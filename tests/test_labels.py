"""Label-engine tests: rule certification, engine dispatch, differential replay."""

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


def test_certain_outcomes_at_edge_draws():
    for pair in range(4):
        assert labels.bell_outcome(pair, 0.0) == pair
        assert labels.bell_outcome(pair, 1.0 - 2.0**-53) == pair
    for qubit in range(4):
        p0, _ = labels.measure_qubit(qubit, qubit >> 1)
        assert labels.outcome(p0, 0.0) == labels.outcome(p0, 1.0 - 2.0**-53) == qubit & 1


def test_even_split_threshold_is_exactly_one_half():
    p0, _ = labels.measure(0, 0, labels.Z)
    assert (labels.outcome(p0, 0.5 - 2.0**-53), labels.outcome(p0, 0.5)) == (0, 1)
    assert labels.bell_outcome(labels.product(0, 0), np.nextafter(0.5, 0)) == 0
    assert labels.bell_outcome(labels.product(0, 0), 0.5) == 1
