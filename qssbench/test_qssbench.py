"""Tests of the benchmark itself: its oracle, its determinism and its tracer.

Run from the repository root with `python -m pytest qssbench -q`. The
round tests scale each workload down to a few trials per report; every
other scenario field is the workload's own.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 99
SMALL_TRIALS = {"collusion-headline": 20, "ir-curve": 10, "long-chain": 3}

# -- exact state algebra, independent of qsschain ---------------------------
# Vectors are unnormalized with integer entries; probabilities are ratios of
# squared norms, so every number below is an exact rational.

EIGEN = {("Z", 0): (1, 0), ("Z", 1): (0, 1), ("X", 0): (1, 1), ("X", 1): (1, -1)}
BELL = {  # |00>, |01>, |10>, |11>; label (x, y): x parity bit, y phase bit
    (0, 0): (1, 0, 0, 1),
    (0, 1): (1, 0, 0, -1),
    (1, 0): (0, 1, 1, 0),
    (1, 1): (0, 1, -1, 0),
}


def norm2(vec) -> Fraction:
    return sum(Fraction(a) * a for a in vec)


def project(vec, qubit: int, basis: str, bit: int) -> tuple:
    """Unnormalized projection of a 1- or 2-qubit vector onto one qubit's eigenstate."""
    e = EIGEN[basis, bit]
    scale = Fraction(1, norm2(e))
    if len(vec) == 2:
        amp = e[0] * vec[0] + e[1] * vec[1]
        return tuple(scale * amp * c for c in e)
    out = [Fraction(0)] * 4
    for other in (0, 1):
        idx = [(0, other), (1, other)] if qubit == 0 else [(other, 0), (other, 1)]
        flat = [2 * a + b for a, b in idx]
        amp = e[0] * vec[flat[0]] + e[1] * vec[flat[1]]
        for c, f in zip(e, flat):
            out[f] += scale * amp * c
    return tuple(out)


def outcomes(vec, qubit: int, basis: str):
    """(bit, probability, post-state) for a projective measurement of one qubit."""
    total = norm2(vec)
    for bit in (0, 1):
        post = project(vec, qubit, basis, bit)
        p = norm2(post) / total
        if p:
            yield bit, p, post


def pauli_on_traveling(vec, u: int, v: int) -> tuple:
    """X^u Z^v on qubit 1 of a 2-qubit vector."""
    out = list(vec)
    if v:
        out = [c if i % 2 == 0 else -c for i, c in enumerate(out)]
    if u:
        out = [out[1], out[0], out[3], out[2]]
    return tuple(out)


def bell_probability(vec, label) -> Fraction:
    b = BELL[label]
    amp = sum(Fraction(x) * y for x, y in zip(b, vec))
    return amp * amp / (norm2(b) * norm2(vec))


def enumerated_decoy_error() -> Fraction:
    """Per-decoy error under intercept-resend, summed over every branch."""
    total = Fraction(0)
    for (basis, value), eve in itertools.product(EIGEN, "ZX"):
        for _, p_eve, resent in outcomes(EIGEN[basis, value], 0, eve):
            p_wrong = sum(p for bit, p, _ in outcomes(resent, 0, basis) if bit != value)
            total += Fraction(1, 4) * Fraction(1, 2) * p_eve * p_wrong
    return total


def enumerated_parity_mismatch(eavesdropper: bool) -> Fraction:
    """Parity-check mismatch of one sampled pair, over labels, keys and bases."""
    total = Fraction(0)
    weight = Fraction(1, 4 * 4 * 2)
    for (x, y), (u, v), alice in itertools.product(BELL, itertools.product((0, 1), repeat=2), "ZX"):
        pair = pauli_on_traveling(BELL[x, y], u, v)
        branches = [(Fraction(1), pair)]
        if eavesdropper:
            branches = [
                (Fraction(1, 2) * p, post)
                for eve in "ZX"
                for _, p, post in outcomes(pair, 1, eve)
            ]
        deduced = x ^ u if alice == "Z" else y ^ v
        for p_branch, state in branches:
            for a, p_a, after in outcomes(state, 0, alice):
                for b, p_b, _ in outcomes(after, 1, alice):
                    if a ^ b != deduced:
                        total += weight * p_branch * p_a * p_b
    return total


class TestOracleClosedForms:
    def test_per_decoy_error_is_one_quarter(self):
        assert enumerated_decoy_error() == oracle.PER_DECOY_ERROR

    def test_parity_check_catches_a_resent_pair_with_one_quarter(self):
        assert enumerated_parity_mismatch(eavesdropper=False) == 0
        assert enumerated_parity_mismatch(eavesdropper=True) == oracle.PER_DECOY_ERROR

    @pytest.mark.parametrize("check", ["original", "improved"])
    @pytest.mark.parametrize("d,m,fraction", [(0, 1, 1.0), (1, 3, 0.5), (3, 4, 0.25), (4, 2, 1.0)])
    def test_detection_matches_enumeration_over_error_patterns(self, check, d, m, fraction):
        p_decoy = enumerated_decoy_error()
        p_pair = enumerated_parity_mismatch(eavesdropper=True)
        sampled = math.ceil(fraction * m) if check == "improved" else 0
        probes = [p_decoy] * d + [p_pair] * sampled
        detected = Fraction(0)
        for pattern in itertools.product((0, 1), repeat=len(probes)):
            p = Fraction(1)
            for caught, q in zip(pattern, probes):
                p *= q if caught else 1 - q
            if any(pattern):
                detected += p
        assert detected == oracle.ir_detection(check, d, m, fraction)

    def test_collusion_leaves_no_trace_and_recovers_the_secret(self):
        keys = list(itertools.product((0, 1), repeat=2))
        for label, first, middle, last in itertools.product(BELL, keys, keys, keys):
            probe = pauli_on_traveling(BELL[1, 1], *middle)
            read = [lab for lab in BELL if bell_probability(probe, lab) == 1]
            assert len(read) == 1
            composite = (read[0][0] ^ 1, read[0][1] ^ 1)
            assert composite == middle
            relayed = pauli_on_traveling(BELL[label], *first)
            returned = pauli_on_traveling(relayed, last[0] ^ composite[0], last[1] ^ composite[1])
            total = tuple(a ^ b ^ c for a, b, c in zip(first, middle, last))
            readout = (label[0] ^ total[0], label[1] ^ total[1])
            assert bell_probability(returned, readout) == 1
            attackers = tuple(a ^ b ^ c for a, b, c in zip(first, composite, last))
            assert attackers == total

    def test_statistical_checks_almost_never_fail_a_correct_program(self):
        """Binomial chance, summed term by term, that a correct ir-curve row fails: below 1e-7."""

        def false_alarm(samples: int, p: Fraction) -> float:
            q = float(p)
            total = 0.0
            for k in range(samples + 1):
                if not oracle.within_se(k / samples, p, samples):
                    log = (
                        math.lgamma(samples + 1) - math.lgamma(k + 1) - math.lgamma(samples - k + 1)
                        + (k * math.log(q) if k else 0.0)
                        + ((samples - k) * math.log1p(-q) if samples - k else 0.0)
                    )
                    total += math.exp(log)
            return total

        for invocation in WORKLOADS["ir-curve"].invocations(0):
            for config in invocation.expected_configs():
                trials, d = config["trials"], config["d"]
                closed = oracle.ir_detection(config["check"], d, config["m"], config["check_fraction"])
                if closed not in (0, 1):
                    assert false_alarm(trials, closed) < 1e-7
                if d:
                    assert false_alarm(trials * d, oracle.PER_DECOY_ERROR) < 1e-7


# -- whole rounds ---------------------------------------------------------------


@pytest.fixture(scope="module")
def env():
    environment = bench.program_env()
    bench.preflight(environment)
    return environment


def small_round(workload, outdir, tag, env):
    outdir.mkdir(parents=True, exist_ok=True)
    done = bench.run_round(
        workload, SEED, outdir, tag, env, trials=SMALL_TRIALS[workload.name]
    )
    assert done.verdict.problems == []
    assert all(s.returncode == 0 for s in done.spawned)
    return [out.read_bytes() for out in done.outputs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reports_repeat_byte_for_byte_at_a_fixed_seed(name, env, tmp_path):
    workload = WORKLOADS[name]
    assert small_round(workload, tmp_path, "a", env) == small_round(workload, tmp_path, "b", env)


def test_long_chain_reports_do_not_depend_on_threads(env, tmp_path):
    workload = WORKLOADS["long-chain"]
    assert workload.flags == ("--threads", "1")
    pooled = dataclasses.replace(workload, flags=("--threads", "2"))
    assert small_round(workload, tmp_path, "one", env) == small_round(pooled, tmp_path, "two", env)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_report_bytes_unchanged(name, env, tmp_path):
    from qsschain import protocol

    workload = WORKLOADS[name]
    plain = small_round(workload, tmp_path, "plain", env)
    original = protocol.run_distribution
    with Tracer() as tracer:
        done = bench.run_round_in_process(
            workload, SEED, tmp_path, "traced", trials=SMALL_TRIALS[name]
        )
    assert protocol.run_distribution is original
    assert done.verdict.problems == []
    assert [out.read_bytes() for out in done.outputs] == plain
    stats = tracer.merged()
    assert stats.calls["protocol.run_distribution"] == done.trials
    assert all(oracle.check_transcript(t) == [] for t in stats.transcripts)


def test_per_trial_counts_do_not_depend_on_trials_per_report(env, tmp_path):
    """Layer calls outside any trial, such as exact_detection's proof, are kept apart."""
    workload = WORKLOADS["collusion-headline"]
    per_trial = []
    for trials in (5, 10):
        with Tracer() as tracer:
            bench.run_round_in_process(workload, SEED, tmp_path, f"t{trials}", trials=trials)
        stats = tracer.merged()
        assert stats.calls["outside.qcore.bell_state"] > 0
        runs = stats.calls["protocol.run_distribution"]
        per_trial.append({
            span: count / runs
            for span, count in stats.calls.items()
            if span.startswith(("qcore.", "protocol.", "adversary.", "config."))
        })
    assert per_trial[0] == per_trial[1]
    assert per_trial[0]["config.ScenarioConfig.validate"] == 1


def test_ir_curve_counts_wrong_exact_companions_as_failed(env, tmp_path):
    """Only the program's exact companion can fail a row; the check is a pure comparison."""
    invocation = WORKLOADS["ir-curve"].invocations(SEED)[1]
    config = invocation.expected_configs()[1]
    closed = float(oracle.ir_detection("improved", 1, config["m"], config["check_fraction"]))
    report = {
        "config": config, "trials": config["trials"], "detection_rate": closed,
        "per_decoy_error_rate": 0.25, "exact_detection": closed,
    }
    assert oracle.check_report(config, report) == ([], False)
    assert oracle.check_report(config, dict(report, exact_detection=0.25)) == ([], True)


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero, print no result."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qssbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = [*spec["command"], "--workload", "long-chain", "--seed", "1",
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(
        [sys.executable if args[0] == "python3" else args[0], *args[1:]],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
