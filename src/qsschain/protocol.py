"""Distribution phase of the chained Bell-pair secret-sharing protocol.

One run: a dealer (Alice) prepares m Bell pairs with random labels, keeps
the first particle of each and sends the second down a chain of n
participants. Every hop is protected by decoy particles drawn uniformly
from {|0>, |1>, |+>, |->}: the receiver measures each decoy in its
announced preparation basis and compares, so an outside eavesdropper who
measures in-transit particles shows up as decoy errors. Each participant
applies a Pauli encoding U_{u,v} keyed by its private bits to every
traveling particle. When the particles return, Alice measures each pair in
the Bell basis; the XOR of prepared and readout labels equals the XOR of
all participants' keys, which is the shared secret.

Two final verification variants are supported:

* original: the last hop is checked with the last participant's decoys
  only, like every other hop.
* improved: additionally, Alice samples a fraction of the pairs, measures
  her retained particle in a random Z/X basis, has every participant
  publish (in a recorded random order) the key used at those positions,
  then measures the returned particle in the same basis. The outcome
  parity of an intact pair is determined by the prepared label and the
  published key total (`deduce_parity`), so a substituted or disturbed
  particle shows up as a parity mismatch. Sampled pairs are consumed and
  excluded from the secret payload.

A run has two engines that give the same transcript from the same
generator state: `run_distribution` plays it on small integer codes with
the closed-form rules of `labels`, and `run_distribution_dense` on the
dense state vectors those rules are certified against. Both play the
attack of `config.attack` inline, each with its own steps beside the
honest ones (the label run's are private, e.g. `_intercept_resend_codes`);
`adversary` describes both attacks and holds the collusion's probe rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import adversary, labels, qcore
from .config import ScenarioConfig
from .qcore import Basis, BellLabel, PauliKey, PureState

RETAINED_QUBIT = 0
TRAVELING_QUBIT = 1
_PROBE = 2 * adversary.PROBE_LABEL.x + adversary.PROBE_LABEL.y  # pair code of the probe label


@dataclass
class DecoyRecord:
    """Sender-side description of one decoy: where it sits and how it was prepared."""

    insert_position: int
    basis: Basis
    value: int


@dataclass
class ParticipantKey:
    """Private encoding keys of participant `owner` (1-based), one per pair position."""

    owner: int
    keys: list[PauliKey]


@dataclass
class DecoyCheckResult:
    """Outcome of one hop's decoy comparison."""

    hop: int
    error_count: int
    decoy_count: int
    passed: bool
    attacked: bool


@dataclass
class ImprovedCheckEntry:
    """One sampled position of the pair-sampling parity check."""

    position: int
    basis: Basis
    x_outcome: int
    announced: list[tuple[int, PauliKey]]
    total_published: PauliKey
    y_outcome: int
    deduced_parity: int
    matched: bool


@dataclass
class ImprovedCheckRecord:
    entries: list[ImprovedCheckEntry]
    passed: bool

    @property
    def sampled_positions(self) -> list[int]:
        return [e.position for e in self.entries]


@dataclass
class Transcript:
    """Full record of one distribution run.

    `recovered_composites` holds the colluders' probe readout, one middle-key
    XOR per pair position, under attack=collusion, and is None otherwise.
    """

    config: ScenarioConfig
    prepared: list[BellLabel]
    participant_keys: list[ParticipantKey]
    decoy_checks: list[DecoyCheckResult]
    improved_check: Optional[ImprovedCheckRecord]
    payload_positions: list[int]
    readout: list[BellLabel]
    extracted_secret: list[int]
    attacker_secret: Optional[list[int]]
    recovered_composites: Optional[list[PauliKey]]
    detected: bool


def prepare_epr_sequence(
    m: int, rng: np.random.Generator
) -> tuple[list[BellLabel], list[PureState]]:
    """Prepare m Bell pairs with uniformly random labels: (labels, pair states).

    Entry i is the pair at position i + 1. Its retained particle is qubit 0
    of the pair state and its traveling particle qubit 1.
    """
    bits = rng.integers(0, 2, size=(m, 2))
    prepared = [BellLabel(int(x), int(y)) for x, y in bits]
    return prepared, [qcore.bell_state(label) for label in prepared]


def insert_decoys(seq_len: int, d: int, rng: np.random.Generator) -> list[DecoyRecord]:
    """Plan a hop: choose decoy slots and preparations for a payload of seq_len.

    The hop carries seq_len + d particles. The decoys, sorted by slot, sit
    at their `insert_position`s and the payload fills the other slots in
    order. Each decoy is prepared uniformly over the four eigenstates
    {|0>, |1>, |+>, |->}.
    """
    if d == 0:
        return []
    positions = sorted(int(p) for p in rng.choice(seq_len + d, size=d, replace=False))
    bits = rng.integers(0, 2, size=(d, 2))
    return [
        DecoyRecord(pos, Basis.Z if basis == 0 else Basis.X, int(value))
        for pos, (basis, value) in zip(positions, bits)
    ]


def verify_decoys(
    decoys: Sequence[DecoyRecord], arrived: Sequence[PureState], rng: np.random.Generator
) -> int:
    """Measure each decoy in its announced basis; return how many differ from the value.

    `arrived[i]` is the state in which decoy `decoys[i]` reached the
    receiver. A hop passes only with no errors.
    """
    if len(arrived) != len(decoys):
        raise ValueError(f"{len(arrived)} arrived decoys for {len(decoys)} announced")
    errors = 0
    for rec, state in zip(decoys, arrived):
        outcome, _ = qcore.measure_in_basis(state, 0, rec.basis, rng)
        errors += outcome != rec.value
    return errors


def encode_key(pairs: Sequence[PureState], keys: Sequence[PauliKey]) -> list[PureState]:
    """Apply U_{u,v} with one key per pair to each traveling qubit."""
    if len(keys) != len(pairs):
        raise ValueError(f"{len(keys)} keys for {len(pairs)} pairs")
    return [qcore.apply_pauli(pair, TRAVELING_QUBIT, key) for pair, key in zip(pairs, keys)]


def key_total(keys: Sequence[ParticipantKey], position: int) -> PauliKey:
    """XOR of the participants' keys at one pair position (1-based)."""
    total = PauliKey(0, 0)
    for participant in keys:
        total = total ^ participant.keys[position - 1]
    return total


def extract_secret(
    prepared: Sequence[BellLabel], readout: Sequence[BellLabel]
) -> list[int]:
    """Secret bits from prepared vs readout labels: (x^x', y^y') per pair."""
    if len(prepared) != len(readout):
        raise ValueError(
            f"prepared and readout lengths differ: {len(prepared)} vs {len(readout)}"
        )
    bits = []
    for before, after in zip(prepared, readout):
        bits.append(before.x ^ after.x)
        bits.append(before.y ^ after.y)
    return bits


def deduce_parity(prepared: BellLabel, total_published: PauliKey, basis: Basis) -> int:
    """Parity of same-basis outcomes on both qubits of an intact pair.

    After the published total key acts on the traveling qubit the pair is
    |Psi_{x^U, y^V}> up to phase; measuring both qubits in the Z basis
    gives outcome parity x^U, in the X basis y^V.
    """
    if basis is Basis.Z:
        return prepared.x ^ total_published.u
    return prepared.y ^ total_published.v


def improved_check(
    pairs: list[PureState],
    prepared: Sequence[BellLabel],
    fraction: float,
    announcements: Sequence[ParticipantKey],
    rng: np.random.Generator,
) -> ImprovedCheckRecord:
    """Sample pairs, collect published keys, and compare outcome parities.

    For each sampled position: Alice measures her retained particle in a
    random Z/X basis, every participant publishes its key for that position
    (announcement order is a recorded random permutation), Alice measures
    the returned particle in the same basis and checks the outcome parity
    against `deduce_parity`. Sampled pairs are consumed: their entries in
    `pairs` are replaced by the measured states.

    Returns the per-position record; `passed` is True iff every sampled
    position matched.
    """
    m = len(pairs)
    sample_size = math.ceil(fraction * m)
    chosen = sorted(int(i) for i in rng.choice(m, size=sample_size, replace=False))
    entries = []
    for idx in chosen:
        basis = Basis.Z if rng.integers(2) == 0 else Basis.X
        x_outcome, pairs[idx] = qcore.measure_in_basis(pairs[idx], RETAINED_QUBIT, basis, rng)
        order = rng.permutation(len(announcements))
        announced = [
            (announcements[j].owner, announcements[j].keys[idx]) for j in order
        ]
        total = key_total(announcements, idx + 1)
        y_outcome, pairs[idx] = qcore.measure_in_basis(pairs[idx], TRAVELING_QUBIT, basis, rng)
        deduced = deduce_parity(prepared[idx], total, basis)
        entries.append(
            ImprovedCheckEntry(
                position=idx + 1,
                basis=basis,
                x_outcome=x_outcome,
                announced=announced,
                total_published=total,
                y_outcome=y_outcome,
                deduced_parity=deduced,
                matched=(x_outcome ^ y_outcome) == deduced,
            )
        )
    return ImprovedCheckRecord(entries, passed=all(e.matched for e in entries))


def read_probes(probes: Sequence[PureState], rng: np.random.Generator) -> list[PauliKey]:
    """Bell-measure every collusion probe pair and return the recovered composites.

    The last colluder does this once the probe halves have passed every
    middle participant, so each probe carries the XOR of all middle keys.
    """
    composites = []
    for probe in probes:
        label, _ = qcore.bell_measure(probe, rng)
        composites.append(adversary.recover_composite(label))
    return composites


def intercept_resend(
    decoys: Sequence[DecoyRecord],
    decoy_states: list[PureState],
    pairs: list[PureState],
    rng: np.random.Generator,
) -> None:
    """Measure every particle of one hop, in slot order, in a random Z/X basis.

    The hop's decoys sit at their insert positions and the traveling qubits
    of `pairs` fill the other slots in order. Each post-measurement state
    replaces its entry in `decoy_states` or `pairs`: the eigenstate left
    behind is what a resent particle would carry, so collapsing in place
    models the attack exactly.
    """
    decoy_at = {rec.insert_position: i for i, rec in enumerate(decoys)}
    pair_index = 0
    for slot in range(len(decoys) + len(pairs)):
        basis = Basis.Z if rng.integers(2) == 0 else Basis.X
        if slot in decoy_at:
            i = decoy_at[slot]
            _, decoy_states[i] = qcore.measure_in_basis(decoy_states[i], 0, basis, rng)
        else:
            _, pairs[pair_index] = qcore.measure_in_basis(
                pairs[pair_index], TRAVELING_QUBIT, basis, rng
            )
            pair_index += 1


def _bit_pairs(rng: np.random.Generator, count: int) -> list[int]:
    """`count` uniform bit pairs (a, b), drawn as the dense engine does, coded 2a + b."""
    bits = rng.integers(0, 2, size=(count, 2))
    return (2 * bits[:, 0] + bits[:, 1]).tolist()


def _decoy_plan(seq_len: int, d: int, rng: np.random.Generator):
    """`insert_decoys` on codes: (sorted decoy slots, decoy qubit codes)."""
    slots = sorted(rng.choice(seq_len + d, size=d, replace=False).tolist())
    return slots, _bit_pairs(rng, d)


def _intercept_resend_codes(slots, decoys, pairs, rng) -> None:
    """Measure every particle of the hop in slot order, in a random Z/X basis."""
    decoy_slots = {slot: i for i, slot in enumerate(slots)}
    pair_index = 0
    for slot in range(len(decoys) + len(pairs)):
        basis = int(rng.integers(2))
        u = rng.random()
        if slot in decoy_slots:
            i = decoy_slots[slot]
            p0, posts = labels.measure_qubit(decoys[i], basis)
            decoys[i] = posts[labels.outcome(p0, u)]
        else:
            p0, posts = labels.measure(pairs[pair_index], 1, basis)
            pairs[pair_index] = posts[labels.outcome(p0, u)]
            pair_index += 1


def _verify_codes(prepared: list[int], arrived: list[int], rng: np.random.Generator) -> int:
    """Decoy errors: each arrived decoy measured in its prepared basis."""
    errors = 0
    for plan, state, u in zip(prepared, arrived, rng.random(len(prepared)).tolist()):
        p0, _ = labels.measure_qubit(state, plan >> 1)
        errors += labels.outcome(p0, u) != plan & 1
    return errors


def _encode_codes(pairs: list[int], keys: list[int]) -> list[int]:
    return [labels.pauli(pair, key) for pair, key in zip(pairs, keys)]


def _improved_check_codes(pairs, prepared, keys, codes, fraction, rng) -> ImprovedCheckRecord:
    """`improved_check` on codes; measures the sampled pairs in place."""
    m = len(pairs)
    chosen = sorted(rng.choice(m, size=math.ceil(fraction * m), replace=False).tolist())
    entries = []
    for idx in chosen:
        basis = int(rng.integers(2))
        p0, posts = labels.measure(pairs[idx], 0, basis)
        x_outcome = labels.outcome(p0, rng.random())
        pairs[idx] = posts[x_outcome]
        order = rng.permutation(len(keys)).tolist()
        announced = [(keys[j].owner, keys[j].keys[idx]) for j in order]
        total = 0
        for j in order:
            total ^= codes[j][idx]
        p0, posts = labels.measure(pairs[idx], 1, basis)
        y_outcome = labels.outcome(p0, rng.random())
        pairs[idx] = posts[y_outcome]
        deduced = deduce_parity(prepared[idx], labels.KEYS[total], labels.BASES[basis])
        entries.append(
            ImprovedCheckEntry(
                position=idx + 1,
                basis=labels.BASES[basis],
                x_outcome=x_outcome,
                announced=announced,
                total_published=labels.KEYS[total],
                y_outcome=y_outcome,
                deduced_parity=deduced,
                matched=(x_outcome ^ y_outcome) == deduced,
            )
        )
    return ImprovedCheckRecord(entries, passed=all(e.matched for e in entries))


def run_distribution(config: ScenarioConfig, rng: np.random.Generator) -> Transcript:
    """Execute one full distribution run and return its transcript.

    The run plays the attack of `config.attack` on label codes with the
    closed-form rules of `labels`. `run_distribution_dense` plays the same
    run on state vectors and draws from `rng` in the same fixed order, so a
    fixed generator state reproduces the run bit for bit on either engine,
    up to the threshold rounding described in the `labels` docstring.
    """
    config.validate()
    n, m, d = config.n, config.m, config.d
    pairs = _bit_pairs(rng, m)
    prepared = [qcore.BELL_LABELS[pair] for pair in pairs]
    codes = [_bit_pairs(rng, m) for _ in range(n)]
    keys = [ParticipantKey(owner, [labels.KEYS[c] for c in codes[owner - 1]]) for owner in range(1, n + 1)]
    collusion = config.attack == "collusion"
    eve_hop = n if config.attack == "intercept_resend" else None
    decoy_checks: list[DecoyCheckResult] = []

    def ship(hop: int, travelers: list[int]) -> None:
        slots, decoys = _decoy_plan(len(travelers), d, rng) if d else ([], [])
        errors = 0
        if hop == eve_hop:
            arrived = list(decoys)
            _intercept_resend_codes(slots, arrived, travelers, rng)
            errors = _verify_codes(decoys, arrived, rng)
        elif d:
            rng.random(d)  # untouched decoys measure as prepared: only the draws remain
        decoy_checks.append(DecoyCheckResult(hop, errors, d, errors == 0, hop == eve_hop))

    ship(0, pairs)
    probes = [_PROBE] * m
    composites: list[int] = []
    for k in range(1, n + 1):
        if collusion and k == 1:
            # the first colluder encodes the genuine particles and relays them
            # privately; the chain carries the probe halves instead
            pairs = _encode_codes(pairs, codes[0])
            ship(1, probes)
        elif collusion and k == n:
            draws = rng.random(m).tolist()
            composites = [labels.bell_outcome(p, u) ^ _PROBE for p, u in zip(probes, draws)]
            pairs = _encode_codes(pairs, [own ^ c for own, c in zip(codes[n - 1], composites)])
            ship(n, pairs)
        elif collusion:
            probes = _encode_codes(probes, codes[k - 1])
            ship(k, probes)
        else:
            pairs = _encode_codes(pairs, codes[k - 1])
            ship(k, pairs)

    improved = None
    sampled: set[int] = set()
    if config.check == "improved":
        improved = _improved_check_codes(pairs, prepared, keys, codes, config.check_fraction, rng)
        sampled = set(improved.sampled_positions)

    payload_positions = [p for p in range(1, m + 1) if p not in sampled]
    payload = [pairs[p - 1] for p in payload_positions]
    draws = rng.random(len(payload)).tolist() if payload else []
    readout = [qcore.BELL_LABELS[labels.bell_outcome(pair, u)] for pair, u in zip(payload, draws)]
    prepared_payload = [prepared[p - 1] for p in payload_positions]

    attacker_bits = None
    if collusion:
        attacker_bits = []
        for p in payload_positions:
            total = codes[0][p - 1] ^ composites[p - 1] ^ codes[n - 1][p - 1]
            attacker_bits.extend((total >> 1, total & 1))

    detected = any(not c.passed for c in decoy_checks) or (
        improved is not None and not improved.passed
    )
    return Transcript(
        config=config,
        prepared=prepared,
        participant_keys=keys,
        decoy_checks=decoy_checks,
        improved_check=improved,
        payload_positions=payload_positions,
        readout=readout,
        extracted_secret=extract_secret(prepared_payload, readout),
        attacker_secret=attacker_bits,
        recovered_composites=[labels.KEYS[c] for c in composites] if collusion else None,
        detected=detected,
    )


def run_distribution_dense(config: ScenarioConfig, rng: np.random.Generator) -> Transcript:
    """Execute one full distribution run on dense state vectors.

    This is the reference engine that certifies the label engine. Each
    pair register is a two-qubit `PureState` and each decoy a one-qubit
    one. The attack of `config.attack` runs inline: the colluders swap in
    probe pairs at hop 1 and Bell-measure them at hop n, and Eve measures
    every particle of hop n. All randomness is drawn from `rng` in a fixed
    order, so a fixed generator state reproduces the run bit for bit.
    """
    config.validate()
    n, m, d = config.n, config.m, config.d
    prepared, pairs = prepare_epr_sequence(m, rng)
    keys = []
    for owner in range(1, n + 1):
        bits = rng.integers(0, 2, size=(m, 2))
        keys.append(ParticipantKey(owner, [PauliKey(int(u), int(v)) for u, v in bits]))
    collusion = config.attack == "collusion"
    eve_hop = n if config.attack == "intercept_resend" else None
    decoy_checks: list[DecoyCheckResult] = []

    def ship(hop: int, travelers: list[PureState]) -> None:
        decoys = insert_decoys(len(travelers), d, rng)
        arrived = [qcore.eigenstate(rec.basis, rec.value) for rec in decoys]
        if hop == eve_hop:
            intercept_resend(decoys, arrived, travelers, rng)
        errors = verify_decoys(decoys, arrived, rng)
        decoy_checks.append(DecoyCheckResult(hop, errors, d, errors == 0, hop == eve_hop))

    ship(0, pairs)
    probes = [qcore.bell_state(adversary.PROBE_LABEL)] * m
    composites: list[PauliKey] = []
    for k in range(1, n + 1):
        if collusion and k == 1:
            # the first colluder encodes the genuine particles and relays them
            # privately; the chain carries the probe halves instead
            pairs = encode_key(pairs, keys[0].keys)
            ship(1, probes)
        elif collusion and k == n:
            composites = read_probes(probes, rng)
            pairs = encode_key(pairs, [own ^ c for own, c in zip(keys[n - 1].keys, composites)])
            ship(n, pairs)
        elif collusion:
            probes = encode_key(probes, keys[k - 1].keys)
            ship(k, probes)
        else:
            pairs = encode_key(pairs, keys[k - 1].keys)
            ship(k, pairs)

    improved = None
    sampled: set[int] = set()
    if config.check == "improved":
        improved = improved_check(pairs, prepared, config.check_fraction, keys, rng)
        sampled = set(improved.sampled_positions)

    payload_positions = [p for p in range(1, m + 1) if p not in sampled]
    readout = [
        qcore.bell_measure(pairs[p - 1], rng)[0]
        for p in payload_positions
    ]
    prepared_payload = [prepared[p - 1] for p in payload_positions]

    attacker_bits: Optional[list[int]] = None
    if collusion:
        attacker_bits = []
        for p in payload_positions:
            total = keys[0].keys[p - 1] ^ composites[p - 1] ^ keys[n - 1].keys[p - 1]
            attacker_bits.extend(total)

    detected = any(not c.passed for c in decoy_checks) or (
        improved is not None and not improved.passed
    )
    return Transcript(
        config=config,
        prepared=prepared,
        participant_keys=keys,
        decoy_checks=decoy_checks,
        improved_check=improved,
        payload_positions=payload_positions,
        readout=readout,
        extracted_secret=extract_secret(prepared_payload, readout),
        attacker_secret=attacker_bits,
        recovered_composites=composites if collusion else None,
        detected=detected,
    )
