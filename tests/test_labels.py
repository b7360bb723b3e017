"""Label-engine tests: rule certification, algebra dispatch, differential replay."""

import inspect

import numpy as np
import pytest

from qsschain import checks, harness, labels, protocol, qcore
from qsschain.config import ATTACK_KINDS, CHECK_KINDS, ScenarioConfig


def test_every_rule_matches_the_dense_engine():
    result = checks.label_rule_table()
    assert result.cases == 188
    assert result.failures == []


@pytest.mark.parametrize("attack", ATTACK_KINDS)
@pytest.mark.parametrize("check", CHECK_KINDS)
def test_default_run_builds_no_state_vector(attack, check, monkeypatch):
    def refuse(self):
        raise AssertionError("a state vector was built")

    config = ScenarioConfig(n=3, m=4, d=2, attack=attack, check=check, trials=1, seed=3)
    monkeypatch.setattr(qcore.PureState, "__post_init__", refuse)
    transcript = protocol.run_distribution(config, harness.trial_generator(3, 0))
    assert len(transcript.decoy_checks) == config.n + 1


@pytest.mark.parametrize(
    "table,path,entry",
    [
        # pair 7 (|0>|->), traveling qubit in Z: outcome 1 leaves |0>|1>, code 5, not 6
        ("_COLLAPSE", (7, 1, labels.Z), (0.5, ((0, 4), (1, 6)))),
        # decoy |0> measured in Z: certain outcome 0, not an even split
        ("_COLLAPSE_QUBIT", (0, labels.Z), (0.5, ((0, 0), (1, 1)))),
        # pair 10 (|1>|+>): each Bell outcome has 1/4, so the third quarter is code 2, not 3
        ("_BELL_ROWS", (10, 2), 3),
    ],
)
def test_rule_table_checks_the_tables_the_run_reads(table, path, entry, monkeypatch):
    def replaced(node, path):
        if not path:
            return entry
        head, rest = path[0], path[1:]
        return node[:head] + (replaced(node[head], rest),) + node[head + 1 :]

    monkeypatch.setattr(labels, table, replaced(getattr(labels, table), path))
    result = checks.label_rule_table()
    assert result.cases == 188
    assert len(result.failures) == 1


def test_certain_outcomes_at_edge_draws():
    for pair in range(4):
        assert labels.bell_outcome(pair, 0.0) == pair
        assert labels.bell_outcome(pair, 1.0 - 2.0**-53) == pair
    for qubit in range(4):
        kept = (qubit & 1, qubit)
        assert labels.collapse_qubit(qubit, qubit >> 1, 0.0) == kept
        assert labels.collapse_qubit(qubit, qubit >> 1, 1.0 - 2.0**-53) == kept
    for pair in range(20):
        with pytest.raises(ValueError):
            labels.bell_outcome(pair, 1.0)


def test_even_split_threshold_is_exactly_one_half():
    outcomes = [labels.collapse(0, 0, labels.Z, u)[0] for u in (0.5 - 2.0**-53, 0.5)]
    assert outcomes == [0, 1]
    assert labels.bell_outcome(labels.product(0, 0), np.nextafter(0.5, 0)) == 0
    assert labels.bell_outcome(labels.product(0, 0), 0.5) == 1


ALGEBRA = (
    "bell_pairs", "eigenstates", "pauli", "collapse", "collapse_qubit", "bell_outcome",
    "decoys_intact",
)


def test_qcore_is_the_dense_algebra(monkeypatch):
    """`labels` and `qcore` offer one interface, and the dense run plays on `qcore` itself."""
    for name in ALGEBRA:
        signatures = [inspect.signature(getattr(module, name)) for module in (labels, qcore)]
        assert list(signatures[0].parameters) == list(signatures[1].parameters), name
    seen = []
    true_collapse = qcore.collapse
    monkeypatch.setattr(qcore, "collapse", lambda *args: seen.append(args) or true_collapse(*args))
    config = ScenarioConfig(n=2, m=2, d=1, trials=1, seed=4)
    protocol.run_distribution_dense(config, harness.trial_generator(4, 0))
    assert len(seen) == config.n + 1  # one decoy per hop


@pytest.mark.parametrize("attack", ATTACK_KINDS)
def test_dense_run_samples_every_measurement_through_qcore(attack, monkeypatch):
    """Every decoy of every hop, every sampled pair and every Bell readout is a qcore call."""
    calls = {"collapse": 0, "bell_outcome": 0, "states": 0}
    for name in ("collapse", "bell_outcome"):
        def counted(*args, _name=name, _rule=getattr(qcore, name)):
            calls[_name] += 1
            return _rule(*args)

        monkeypatch.setattr(qcore, name, counted)
    post_init = qcore.PureState.__post_init__

    def counted_state(self):
        calls["states"] += 1
        post_init(self)

    monkeypatch.setattr(qcore.PureState, "__post_init__", counted_state)
    n, m, d, sampled = 3, 4, 2, 2
    config = ScenarioConfig(n=n, m=m, d=d, attack=attack, check="improved", trials=1, seed=5)
    protocol.run_distribution_dense(config, harness.trial_generator(5, 0))
    eve = d + m if attack == "intercept_resend" else 0
    probes = m if attack == "collusion" else 0
    assert calls["collapse"] == (n + 1) * d + eve + 2 * sampled
    assert calls["bell_outcome"] == probes + m - sampled
    assert calls["states"] > 0


def test_differential_sweep_sees_a_wrong_bell_rule_on_products(monkeypatch):
    monkeypatch.setattr(checks, "DIFFERENTIAL_TRIALS", 1)
    true_rule = labels.bell_outcome

    def wrong_on_products(pair, u):
        return true_rule(pair, u) if pair < 4 else 3 - true_rule(pair, u)

    monkeypatch.setattr(labels, "bell_outcome", wrong_on_products)
    result = checks.differential_sweep()
    assert result.cases == 72
    assert result.failures


def test_differential_sweep_checks_the_honest_secret(monkeypatch):
    """A wrong secret-bit rule leaves both algebras equal; the key-XOR check fails it."""
    monkeypatch.setattr(checks, "DIFFERENTIAL_TRIALS", 2)

    def swapped(totals):
        return [bit for total in totals for bit in (total & 1, total >> 1)]

    monkeypatch.setattr(protocol, "secret_bits", swapped)
    result = checks.differential_sweep()
    assert not any("differ" in f for f in result.failures)
    assert any(
        f.startswith("none/") and f.endswith(": extracted secret is not the key XOR")
        for f in result.failures
    )



def test_differential_sweep_sees_a_moved_draw(monkeypatch):
    """One extra uniform after the dense run, which often leaves the Philox counter as it was.

    A block of 4 words is computed per counter step, so only a comparison
    of the whole stream position, buffer index included, sees every such draw.
    """
    monkeypatch.setattr(checks, "DIFFERENTIAL_TRIALS", 2)
    dense = protocol.run_distribution_dense
    same_counter = []

    def one_more_draw(config, rng):
        transcript = dense(config, rng)
        before = rng.bit_generator.state["state"]["counter"].tolist()
        rng.random()
        same_counter.append(rng.bit_generator.state["state"]["counter"].tolist() == before)
        return transcript

    monkeypatch.setattr(protocol, "run_distribution_dense", one_more_draw)
    result = checks.differential_sweep()
    assert any(same_counter)
    assert len(result.failures) == result.cases == 144
    assert all(f.endswith(": generator states differ") for f in result.failures)
