"""Exhaustive self-verification suites behind the `verify` CLI command.

Each suite re-derives an algebraic rule of the simulator from the state
vectors alone and counts disagreements, so a regression in either the
engine or the bookkeeping shows up as named failing cases. The suites
work on the integer codes stated in `qcore`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import adversary, harness, labels, protocol, qcore
from .config import ATTACK_KINDS, CHECK_KINDS, ScenarioConfig

_BASIS_NAMES = "ZX"  # by basis code


@dataclass
class CheckResult:
    name: str
    cases: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def pauli_bell_label_table() -> CheckResult:
    """16 cases: every key on every Bell label, state vs the label engine's rule."""
    failures = []
    for pair, key in itertools.product(range(4), range(4)):
        predicted = labels.pauli(pair, key)
        shifted = qcore.pauli(qcore.bell_state(pair), key)
        if not qcore.equal_up_to_phase(shifted, qcore.bell_state(predicted)):
            failures.append(f"Bell code {pair} key {key}: not Bell code {predicted}")
    return CheckResult("pauli/bell label table", 16, failures)


def composition_law_table() -> CheckResult:
    """64 cases: composing two keys equals the XOR key on every Bell input."""
    failures = []
    for key1, key2, pair in itertools.product(range(4), repeat=3):
        sequential = qcore.pauli(qcore.pauli(qcore.bell_state(pair), key1), key2)
        direct = qcore.pauli(qcore.bell_state(pair), key1 ^ key2)
        if not qcore.equal_up_to_phase(sequential, direct):
            failures.append(
                f"keys {key1},{key2} on Bell code {pair}: composition is not the XOR key"
            )
    return CheckResult("pauli composition law", 64, failures)


def _joint_parity_distribution(state: qcore.PureState, basis: int) -> dict[int, float]:
    # brute force over both-qubit outcomes with explicit product projectors
    dist = {0: 0.0, 1: 0.0}
    for a, b in itertools.product((0, 1), repeat=2):
        first, second = qcore.eigenstates([2 * basis + a, 2 * basis + b])
        projector = np.kron(first.amplitudes, second.amplitudes)
        dist[a ^ b] += float(abs(np.vdot(projector, state.amplitudes)) ** 2)
    return dist


def parity_rule_table() -> CheckResult:
    """32 cases: deduced parity vs brute-force both-qubit statistics."""
    failures = []
    for pair, total, basis in itertools.product(range(4), range(4), (labels.Z, labels.X)):
        dist = _joint_parity_distribution(qcore.pauli(qcore.bell_state(pair), total), basis)
        rule = protocol.deduce_parity(pair, total, basis)
        if not dist[rule] > 1.0 - 1e-12:
            failures.append(
                f"Bell code {pair} total {total} basis {_BASIS_NAMES[basis]}: "
                f"parity {rule} has probability {dist[rule]:.3f}"
            )
    return CheckResult("parity rule table", 32, failures)


def collusion_exactness() -> CheckResult:
    """68 cases: the collusion leaves no trace (`adversary.collusion_failures`)."""
    return CheckResult("collusion exactness", 68, adversary.collusion_failures())


_RULE_TOL = 1e-12


def _pair_state(pair: int) -> qcore.PureState:
    if pair < 4:
        return qcore.bell_state(pair)
    retained, traveling = qcore.eigenstates(divmod(pair - 4, 4))
    return qcore.PureState(2, np.kron(retained.amplitudes, traveling.amplitudes))


def _intervals(weights) -> list[tuple[int, float, float]]:
    """(outcome, first draw, last draw) of every possible outcome's draw interval."""
    intervals, low = [], 0.0
    for index, weight in enumerate(weights):
        if weight > 0:
            intervals.append((index, low, math.nextafter(low + weight, 0.0)))
        low += weight
    return intervals


def _check_measurement(tag, rule, collapse, state, qubit, basis, to_state, failures) -> None:
    """Compare a label Z/X measurement with the dense engine.

    `rule` is the closed form's (p0, posts), and `collapse(u)` the table the
    run calls, which must give one (outcome, post code) over each outcome's
    draw interval: the closed form's post, matching the dense post-state.
    """
    p0, posts = rule
    dense_p0, dense_p1 = qcore.measurement_probabilities(state, qubit, basis)
    if max(abs(p0 - dense_p0), abs(1 - p0 - dense_p1)) > _RULE_TOL:
        failures.append(f"{tag}: p0 {p0} vs state vector {dense_p0:.12f}")
        return
    for expected, first, last in _intervals((p0, 1 - p0)):
        picked = {collapse(first), collapse(last)}
        if picked != {(expected, posts[expected])}:
            failures.append(f"{tag}: draws in [{first}, {last}] give {sorted(picked)}, "
                            f"not outcome {expected} and code {posts[expected]}")
        got, post = qcore.collapse(state, qubit, basis, (first + last) / 2)
        if got != expected or not qcore.equal_up_to_phase(post, to_state(posts[expected]), _RULE_TOL):
            failures.append(f"{tag}: post-state of outcome {expected} differs")


def label_rule_table() -> CheckResult:
    """188 cases: every label-engine rule against the dense engine, within 1e-12.

    Pair codes 0..19 (4 Bell states, 16 eigenstate products) under the
    four Pauli keys (80), Z/X measurement of either qubit of every pair
    (80), Z/X measurement of every decoy eigenstate (8), and Bell
    measurement of every pair (20). A measurement case compares the
    closed form's outcome probabilities, checks that the rule the run calls
    (`collapse`, `collapse_qubit`, `bell_outcome`, each an import-time
    table) picks the outcome, and for Z/X the post code, at the first and
    the last draw of each outcome's interval, and compares the post-state
    the dense engine leaves at the interval's midpoint.
    """
    failures = []
    cases = 0
    pairs = range(20)
    for pair, key in itertools.product(pairs, range(4)):
        cases += 1
        dense = qcore.pauli(_pair_state(pair), key)
        if not qcore.equal_up_to_phase(dense, _pair_state(labels.pauli(pair, key)), _RULE_TOL):
            failures.append(f"pauli: pair {pair} key {key} is not pair {labels.pauli(pair, key)}")
    for pair, qubit, basis in itertools.product(pairs, (0, 1), (labels.Z, labels.X)):
        cases += 1
        _check_measurement(
            f"measure: pair {pair} qubit {qubit} basis {_BASIS_NAMES[basis]}",
            labels.measure(pair, qubit, basis),
            functools.partial(labels.collapse, pair, qubit, basis),
            _pair_state(pair), qubit, basis, _pair_state, failures,
        )
    for qubit, basis in itertools.product(range(4), (labels.Z, labels.X)):
        cases += 1
        _check_measurement(
            f"measure: decoy {qubit} basis {_BASIS_NAMES[basis]}",
            labels.measure_qubit(qubit, basis),
            functools.partial(labels.collapse_qubit, qubit, basis),
            qcore.eigenstate(qubit), 0, basis, qcore.eigenstate, failures,
        )
    for pair in pairs:
        cases += 1
        weights = [q / 4 for q in labels.bell_quarters(pair)]
        dense = qcore.bell_probabilities(_pair_state(pair))
        if max(abs(w - p) for w, p in zip(weights, dense)) > _RULE_TOL:
            failures.append(f"bell: pair {pair} probabilities {weights} differ from state vector")
            continue
        for expected, first, last in _intervals(weights):
            picked = {labels.bell_outcome(pair, first), labels.bell_outcome(pair, last)}
            picked.add(qcore.bell_outcome(_pair_state(pair), (first + last) / 2))
            if picked != {expected}:
                failures.append(f"bell: pair {pair} draws in [{first}, {last}] do not all pick {expected}")
    return CheckResult("label engine rules", cases, failures)


DIFFERENTIAL_TRIALS = 140


def _claim_failures(transcript: protocol.Transcript) -> list[str]:
    """An honest or collusion run is not detected and the dealer reads the key XOR.

    The expected secret is built with `key_total`, apart from the run's
    own bookkeeping; under collusion the colluders must read it too.
    """
    expected = []
    for position in transcript.payload_positions:
        expected.extend(protocol.key_total(transcript.participant_keys, position))
    failures = ["run flagged as detected"] if transcript.detected else []
    if transcript.extracted_secret != expected:
        failures.append("extracted secret is not the key XOR")
    if transcript.config.attack == "collusion" and transcript.attacker_secret != expected:
        failures.append("colluders' secret is not the key XOR")
    return failures


def _stream_position(rng: np.random.Generator) -> dict:
    """A Philox generator's state with its arrays as lists, so two positions compare with `==`."""
    state = rng.bit_generator.state
    words = {name: value.tolist() for name, value in state["state"].items()}
    return dict(state, state=words, buffer=state["buffer"].tolist())


def differential_sweep() -> CheckResult:
    """Seeded trials on both register algebras: equal transcripts and generator states.

    Both entry points play the same run, so this certifies the label rules
    against the state vectors along real runs, including the label
    algebra's shortcut for intact decoys; the run draws every uniform
    itself, so equal stream positions follow by construction. They are
    compared in full, since one extra draw often leaves the Philox counter
    as it was. Every honest and collusion trial must also meet the paper's
    claims (`_claim_failures`). Each side keeps one generator per scenario
    and sets it to the start of trial i's stream before the trial.
    Covers attack x check x d x check_fraction x (n, m), where (4, 2) has a
    composite of two middle keys: 72 scenarios of DIFFERENTIAL_TRIALS
    trials each, 10,080 trials in all.
    """
    failures = []
    cases = 0
    grid = itertools.product(
        ATTACK_KINDS, CHECK_KINDS, (0, 1, 3), (0.25, 1.0), ((2, 1), (4, 2))
    )
    for index, (attack, check, d, fraction, (n, m)) in enumerate(grid):
        config = ScenarioConfig(
            n=n, m=m, d=d, attack=attack, check=check, check_fraction=fraction,
            trials=DIFFERENTIAL_TRIALS, seed=70000 + index,
        )
        fast_rng = harness.trial_generator(config.seed, 0)
        dense_rng = harness.trial_generator(config.seed, 0)
        start = fast_rng.bit_generator.state  # trial 0's counter and an empty buffer
        for trial in range(config.trials):
            cases += 1
            start["state"]["counter"][1] = trial
            fast_rng.bit_generator.state = dense_rng.bit_generator.state = start
            fast = protocol.run_distribution(config, fast_rng)
            dense = protocol.run_distribution_dense(config, dense_rng)
            tag = f"{attack}/{check} n={n} m={m} d={d} f={fraction} seed={config.seed} trial={trial}"
            if fast != dense:
                failures.append(f"{tag}: transcripts differ")
            elif _stream_position(fast_rng) != _stream_position(dense_rng):
                failures.append(f"{tag}: generator states differ")
            if attack != "intercept_resend":
                failures.extend(f"{tag}: {failure}" for failure in _claim_failures(fast))
    return CheckResult("differential sweep", cases, failures)


def run_all() -> list[CheckResult]:
    return [
        pauli_bell_label_table(),
        parity_rule_table(),
        composition_law_table(),
        label_rule_table(),
        collusion_exactness(),
        differential_sweep(),
    ]
