"""Acceptance gate: the seven headline claims, each with its stated tolerance.

Each criterion is one test. Every test prints a single PASS/FAIL line with
the measured quantities (visible with `pytest -s`); the assertions carry the
same bounds. All runs are seeded, so the gate is deterministic.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from qsschain import checks, harness, protocol
from qsschain.config import ScenarioConfig

# the headline collusion scenario, shared by criteria 2, 3, 6 and 7
COLLUSION_SCENARIO = ScenarioConfig(
    n=5, m=16, d=8, attack="collusion", check="original", trials=1000, seed=0
)


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_honest_correctness():
    """Secret equals the key XOR on every honest run over the (n, m) grid."""
    started = time.perf_counter()
    runs = bad_secrets = check_failures = 0
    for n, m in itertools.product(range(2, 7), range(1, 9)):
        config = ScenarioConfig(n=n, m=m, d=2, attack="none", check="original", trials=1)
        base_seed = 1000 + 100 * n + m
        for index in range(200):
            rng = harness.trial_generator(base_seed, index)
            transcript = protocol.run_distribution(config, rng)
            runs += 1
            if transcript.detected or any(c.error_count for c in transcript.decoy_checks):
                check_failures += 1
                continue
            expected = []
            for position in transcript.payload_positions:
                expected.extend(protocol.key_total(transcript.participant_keys, position))
            if transcript.extracted_secret != expected:
                bad_secrets += 1
    elapsed = time.perf_counter() - started
    passed = runs == 8000 and bad_secrets == 0 and check_failures == 0 and elapsed < 10.0
    _verdict(
        1,
        passed,
        f"honest correctness: {runs} runs, {bad_secrets} wrong secrets, "
        f"{check_failures} check failures, {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_collusion_claim():
    """The two-colluder attack is never detected and always recovers the secret."""
    started = time.perf_counter()
    report = harness.run_trials(COLLUSION_SCENARIO)
    elapsed = time.perf_counter() - started
    passed = (
        report.detection_rate == 0.0
        and report.secret_recovery_rate == 1.0
        and elapsed < 30.0
    )
    _verdict(
        2,
        passed,
        f"collusion: detection_rate={report.detection_rate} (exactly 0), "
        f"secret_recovery_rate={report.secret_recovery_rate} (exactly 1), "
        f"{elapsed:.2f}s (< 30 s)",
    )


def test_criterion_3_composite_recovery():
    """The probe-pair readout recovers the middle-key XOR at every position."""
    config = COLLUSION_SCENARIO
    mismatches = positions = 0
    for index in range(config.trials):
        rng = harness.trial_generator(config.seed, index)
        transcript = protocol.run_distribution_dense(config, rng)
        middle = transcript.participant_keys[1:-1]
        for position, composite in enumerate(transcript.recovered_composites, 1):
            positions += 1
            if composite != protocol.key_total(middle, position):
                mismatches += 1
    passed = mismatches == 0 and positions == config.trials * config.m
    _verdict(
        3,
        passed,
        f"composite recovery: {positions} positions across {config.trials} trials, "
        f"{mismatches} mismatches (exact)",
    )


def test_criterion_4_decoy_calibration():
    """Intercept-resend shows the 1/4 per-decoy error and the 1-(3/4)^d curve."""
    started = time.perf_counter()
    single = ScenarioConfig(
        n=2, m=1, d=1, attack="intercept_resend", check="original", trials=10000, seed=42
    )
    report = harness.run_trials(single)
    decoys = single.trials * single.d  # one attacked decoy per trial
    se_decoy = math.sqrt(0.25 * 0.75 / decoys)
    decoy_ok = decoys >= 10**4 and abs(report.per_decoy_error_rate - 0.25) < 3 * se_decoy

    curve_ok = True
    curve_notes = []
    for d in range(1, 9):
        config = ScenarioConfig(
            n=2, m=1, d=d, attack="intercept_resend", check="original", trials=2000, seed=400 + d
        )
        r = harness.run_trials(config)
        exact = 1.0 - 0.75**d
        assert r.exact_detection == exact
        se = math.sqrt(exact * (1.0 - exact) / config.trials)
        if abs(r.detection_rate - exact) >= 3 * se:
            curve_ok = False
            curve_notes.append(f"d={d}: {r.detection_rate:.4f} vs {exact:.4f}")
    elapsed = time.perf_counter() - started
    passed = decoy_ok and curve_ok and elapsed < 30.0
    _verdict(
        4,
        passed,
        f"decoy calibration: per-decoy {report.per_decoy_error_rate:.4f} vs 0.25 "
        f"over {decoys} decoys (3 SE = {3 * se_decoy:.4f}), curve d=1..8 "
        f"{'within 3 SE' if curve_ok else 'off: ' + '; '.join(curve_notes)}, "
        f"{elapsed:.2f}s (< 30 s)",
    )


def test_criterion_5_algebra_tables():
    """Label, parity and composition tables agree with the state-vector oracles."""
    started = time.perf_counter()
    label = checks.pauli_bell_label_table()
    parity = checks.parity_rule_table()
    composition = checks.composition_law_table()
    elapsed = time.perf_counter() - started
    passed = (
        label.cases == 16
        and label.passed
        and parity.cases == 32
        and parity.passed
        and composition.cases == 64
        and composition.passed
        and elapsed < 1.0
    )
    _verdict(
        5,
        passed,
        f"algebra tables: label {16 - len(label.failures)}/16, "
        f"parity {32 - len(parity.failures)}/32, "
        f"composition {64 - len(composition.failures)}/64 "
        f"(tolerance 1e-9), {elapsed:.3f}s (< 1 s)",
    )


def test_criterion_6_improved_check_finding():
    """The pair-sampling check also misses the collusion; exact companion is 0."""
    started = time.perf_counter()
    config = COLLUSION_SCENARIO.replace(check="improved", check_fraction=0.5)
    report = harness.run_trials(config)
    elapsed = time.perf_counter() - started
    data = report.to_dict()
    side_by_side = "detection_rate" in data and "exact_detection" in data
    passed = (
        report.detection_rate == 0.0
        and report.exact_detection == 0.0
        and side_by_side
        and elapsed < 30.0
    )
    _verdict(
        6,
        passed,
        f"improved check vs collusion: measured detection_rate={report.detection_rate}, "
        f"exact companion={report.exact_detection} (both recorded in the report), "
        f"{elapsed:.2f}s (< 30 s)",
    )


def test_criterion_7_determinism(tmp_path):
    """Same seed, two fresh interpreters with different hash seeds: bit-identical reports.

    `qsschain run` writes each report once under PYTHONHASHSEED=1 and once
    under 2; both files must equal the bytes `run_trials` gives in this
    process. The headline report does not depend on the draws (its rates
    are exactly 0 and 1), so the same scenario under intercept-resend and
    the improved check, whose rates move with every draw, runs as well.
    """
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    scenarios = [
        COLLUSION_SCENARIO,
        COLLUSION_SCENARIO.replace(attack="intercept_resend", check="improved"),
    ]
    same = True
    for index, config in enumerate(scenarios):
        in_process = tmp_path / f"in-process-{index}.json"
        harness.write_report(harness.run_trials(config), in_process)
        scenario = tmp_path / f"scenario-{index}.json"
        scenario.write_text(json.dumps(config.to_dict()))
        for hash_seed in ("1", "2"):
            out = tmp_path / f"report-{index}-{hash_seed}.json"
            subprocess.run(
                [sys.executable, "-m", "qsschain.cli", "run", "--scenario", str(scenario),
                 "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
                capture_output=True,
            )
            same &= out.exists() and out.read_bytes() == in_process.read_bytes()
    _verdict(
        7,
        same,
        f"determinism: headline collusion and intercept-resend reports of two fresh "
        f"interpreters (PYTHONHASHSEED 1 and 2) and of this process "
        f"{'bit-identical' if same else 'DIFFER'}",
    )
