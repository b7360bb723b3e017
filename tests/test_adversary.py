"""Attack tests: collusion invisibility and recovery, intercept-resend disturbance."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsschain import adversary, checks, cli, harness, protocol, qcore
from qsschain.adversary import PROBE
from qsschain.config import ScenarioConfig
from qsschain.protocol import PauliKey

SRC = Path(__file__).resolve().parents[1] / "src"


def draws(rng, count=1024):
    """A `Draws` over the next `count` raw words of the numpy generator `rng`."""
    return protocol.Draws(rng.bit_generator.random_raw(count).tolist())


@pytest.mark.parametrize(
    "statement, loaded, absent",
    [
        pytest.param(
            "import qsschain.adversary", "qsschain.adversary", ["qsschain.protocol"],
            id="adversary",
        ),
        pytest.param(
            "import qsschain.labels",
            "qsschain.labels",
            ["qsschain.protocol", "qsschain.adversary", "qsschain.config", "qsschain.qcore"],
            id="labels",
        ),
        pytest.param(
            "from qsschain import harness; harness.exact_detection('collusion', 8)",
            "qsschain.adversary",
            ["qsschain.checks"],
            id="exact_detection",
        ),
    ],
)
def test_adversary_does_not_load_protocol(statement, loaded, absent):
    """Each layer loads only the layers below it, in a fresh interpreter."""
    probe = (
        f"import sys; {statement}\n"
        "print(sorted(name for name in sys.modules if name.startswith('qsschain')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    modules = ast.literal_eval(done.stdout)
    assert loaded in modules
    assert [name for name in absent if name in modules] == []


def test_no_import_inside_a_function():
    """Every import sits at module level, so the module graph is the import graph."""
    found = set()
    for path in sorted((SRC / "qsschain").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
    assert sorted(found) == []


class TestBrokenCollusionRule:
    """A wrong probe rule fails the proof behind every collusion report."""

    @pytest.fixture(autouse=True)
    def wrong_rule(self, monkeypatch):
        monkeypatch.setattr(adversary, "recover_composite", lambda measured: 0)

    def test_exact_detection_raises(self):
        with pytest.raises(RuntimeError, match="^collusion exactness proof failed: composite"):
            harness.exact_detection("collusion", 8)

    def test_run_exits_1(self, capsys):
        code = cli.main(["run", "--attack", "collusion", "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: collusion exactness proof failed: ")

    def test_the_run_reads_probes_with_the_rule(self):
        """Both algebras turn probe outcomes into composites with `recover_composite`."""
        config = ScenarioConfig(n=5, m=8, d=2, attack="collusion", trials=1, seed=61)
        for run in (protocol.run_distribution, protocol.run_distribution_dense):
            transcript = run(config, np.random.default_rng(61))
            middle = transcript.participant_keys[1:-1]
            genuine = [protocol.key_total(middle, p) for p in range(1, config.m + 1)]
            assert genuine != [PauliKey(0, 0)] * config.m
            assert transcript.recovered_composites == [PauliKey(0, 0)] * config.m

    def test_the_replay_checks_the_dealers_secret(self, monkeypatch):
        """Both algebras play the same wrong rule, so only the claim check sees it."""
        monkeypatch.setattr(checks, "DIFFERENTIAL_TRIALS", 2)
        result = checks.differential_sweep()
        assert result.failures
        assert all(f.startswith("collusion/") for f in result.failures)
        assert any(
            " n=4 m=2 " in f and f.endswith(": extracted secret is not the key XOR")
            for f in result.failures
        )

    def test_verify_fails_the_collusion_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "DIFFERENTIAL_TRIALS", 1)
        code = cli.main(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        failed_line = next(
            line for line in out.splitlines() if line.startswith("collusion exactness")
        )
        assert "FAIL" in failed_line


class TestCollusionPieces:
    def test_probe_is_psi_11(self):
        """The probe pair is |Psi_11> = (|01> - |10>)/sqrt(2)."""
        expected = np.array([0, 1, -1, 0]) / math.sqrt(2)
        np.testing.assert_allclose(qcore.bell_state(PROBE).amplitudes, expected, atol=1e-12)

    def test_recover_composite_frozen_table(self):
        """Bell outcome code 2x + y to composite key code 2u + v."""
        assert adversary.recover_composite(3) == 0  # |Psi_11> -> key (0,0)
        assert adversary.recover_composite(2) == 1  # |Psi_10> -> key (0,1)
        assert adversary.recover_composite(1) == 2  # |Psi_01> -> key (1,0)
        assert adversary.recover_composite(0) == 3  # |Psi_00> -> key (1,1)

    @pytest.mark.parametrize("composite", range(4))
    def test_recover_composite_against_state_vectors(self, composite):
        """Encode a known composite on a probe half, Bell-measure, recover."""
        probe = qcore.pauli(qcore.bell_state(PROBE), composite)
        probs = qcore.bell_probabilities(probe)
        outcome = max(range(4), key=probs.__getitem__)
        assert probs[outcome] == pytest.approx(1.0, abs=1e-9)
        assert adversary.recover_composite(outcome) == composite

    def test_untouched_probes_read_zero_composite(self):
        probes = qcore.bell_pairs([PROBE] * 4)
        composites = protocol.read_probes(qcore, probes, draws(np.random.default_rng(3)))
        assert composites == [0] * 4

    def test_probe_halves_accumulate_middle_keys(self):
        middle = [2, 1, 3]  # key codes of (1,0), (0,1), (1,1)
        probes = qcore.bell_pairs([PROBE] * 3)
        probes = protocol.encode_key(qcore, probes, middle)
        assert protocol.read_probes(qcore, probes, draws(np.random.default_rng(2))) == middle


class TestCollusionEndToEnd:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_undetected_and_secret_recovered(self, n):
        config = ScenarioConfig(n=n, m=8, d=4, attack="collusion", trials=1, seed=20 + n)
        transcript = protocol.run_distribution(config, np.random.default_rng(20 + n))
        assert not transcript.detected
        assert all(c.error_count == 0 for c in transcript.decoy_checks)
        assert transcript.attacker_secret == transcript.extracted_secret

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_undetected_under_improved_check(self, n):
        config = ScenarioConfig(
            n=n, m=8, d=4, attack="collusion", check="improved", trials=1, seed=40 + n
        )
        transcript = protocol.run_distribution(config, np.random.default_rng(40 + n))
        assert not transcript.detected
        assert transcript.improved_check.passed
        assert transcript.attacker_secret == transcript.extracted_secret

    def test_composites_equal_middle_key_xor(self):
        config = ScenarioConfig(n=5, m=16, d=8, attack="collusion", trials=1, seed=77)
        transcript = protocol.run_distribution_dense(config, np.random.default_rng(77))
        assert not transcript.detected
        middle = transcript.participant_keys[1:-1]
        assert transcript.recovered_composites == [
            protocol.key_total(middle, position) for position in range(1, config.m + 1)
        ]

    def test_two_participant_chain_has_empty_composite(self):
        """With n=2 there are no middle participants: composites are (0,0)."""
        config = ScenarioConfig(n=2, m=6, d=2, attack="collusion", trials=1, seed=55)
        transcript = protocol.run_distribution_dense(config, np.random.default_rng(55))
        assert transcript.recovered_composites == [PauliKey(0, 0)] * 6
        assert transcript.attacker_secret == transcript.extracted_secret

    @pytest.mark.parametrize("check", ["original", "improved"])
    def test_zero_disturbance_over_many_seeds(self, check):
        for seed in range(30):
            config = ScenarioConfig(
                n=4, m=4, d=3, attack="collusion", check=check, trials=1, seed=seed
            )
            transcript = protocol.run_distribution(config, np.random.default_rng(seed))
            assert not transcript.detected, f"collusion flagged at seed {seed}"
            assert transcript.attacker_secret == transcript.extracted_secret


class TestInterceptResend:
    def test_decoy_error_rate_near_quarter(self):
        total = 4000
        source = draws(np.random.default_rng(6), 4 * total + total // 32)
        slots, plan = protocol.insert_decoys(0, total, source)
        arrived = qcore.eigenstates(plan)
        protocol.intercept_resend(qcore, slots, arrived, [], source)
        errors = protocol.verify_decoys(qcore, plan, arrived, source)
        rate = errors / total
        assert abs(rate - 0.25) < 3 * math.sqrt(0.25 * 0.75 / total)

    def test_every_particle_is_left_in_an_eigenstate(self):
        """Every decoy and every traveling half ends in a Z or X eigenstate."""

        def certain(state, qubit):
            return any(
                max(qcore.measurement_probabilities(state, qubit, basis))
                == pytest.approx(1.0, abs=1e-9)
                for basis in (0, 1)  # Z, X
            )

        source = draws(np.random.default_rng(19))
        pairs = qcore.bell_pairs([0, 1, 2, 3, 1])
        slots, plan = protocol.insert_decoys(len(pairs), 4, source)
        # a state certain in neither basis, so only a measurement makes it certain
        tilted = qcore.PureState(1, np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)]))
        arrived = [tilted] * len(plan)
        assert not certain(tilted, 0)
        protocol.intercept_resend(qcore, slots, arrived, pairs, source)
        assert all(certain(state, 0) for state in arrived)
        assert all(certain(pair, protocol.TRAVELING_QUBIT) for pair in pairs)
        assert all(certain(pair, protocol.RETAINED_QUBIT) for pair in pairs)

    def test_default_hop_is_the_last(self):
        config = ScenarioConfig(n=3, m=4, d=6, attack="intercept_resend", trials=1, seed=31)
        transcript = protocol.run_distribution(config, np.random.default_rng(31))
        assert [c.hop for c in transcript.decoy_checks if c.attacked] == [3]
        clean_hops = [c for c in transcript.decoy_checks if not c.attacked]
        assert all(c.error_count == 0 for c in clean_hops)

    def test_detection_rate_matches_closed_form(self):
        detections = 0
        trials = 400
        d = 4
        for seed in range(trials):
            config = ScenarioConfig(
                n=2, m=1, d=d, attack="intercept_resend", trials=1, seed=seed
            )
            transcript = protocol.run_distribution(config, np.random.default_rng(seed))
            detections += int(transcript.detected)
        expected = 1.0 - 0.75**d
        se = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(detections / trials - expected) < 3 * se

    def test_eve_learns_nothing_reported(self):
        config = ScenarioConfig(n=2, m=2, d=1, attack="intercept_resend", trials=1, seed=8)
        transcript = protocol.run_distribution(config, np.random.default_rng(8))
        assert transcript.attacker_secret is None
