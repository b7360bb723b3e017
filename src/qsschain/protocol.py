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

Adversaries plug in through a small hook interface (see `adversary`); the
honest flow never needs to know which attack, if any, is running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import qcore
from .config import ScenarioConfig
from .qcore import Basis, BellLabel, PauliKey, PureState

RETAINED_QUBIT = 0
TRAVELING_QUBIT = 1


class DesyncError(RuntimeError):
    """The wire and the announced decoy layout disagree; the run is corrupt."""


@dataclass
class EprRecord:
    """One dealer pair: retained particle is qubit 0, traveling is qubit 1.

    `effective_label` is a cheap label-algebra shadow of the state vector:
    it starts at the prepared label, is advanced by XOR on every Pauli
    encoding of the traveling qubit, and is invalidated (None) by any
    mid-protocol projective measurement. On undisturbed runs it predicts
    the Bell readout exactly.
    """

    position: int
    prepared: BellLabel
    pair_state: PureState
    effective_label: Optional[BellLabel] = None

    def __post_init__(self) -> None:
        if self.effective_label is None:
            self.effective_label = self.prepared


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
class PairQubit:
    """A particle on the wire that is one qubit of a shared pair register."""

    record: EprRecord
    qubit: int

    def measure(self, basis: Basis, rng: np.random.Generator) -> int:
        outcome, post = qcore.measure_in_basis(self.record.pair_state, self.qubit, basis, rng)
        self.record.pair_state = post
        self.record.effective_label = None
        return outcome

    def apply_key(self, key: PauliKey) -> None:
        self.record.pair_state = qcore.apply_pauli(self.record.pair_state, self.qubit, key)
        if self.qubit == TRAVELING_QUBIT and self.record.effective_label is not None:
            self.record.effective_label = qcore.pauli_shift_label(
                self.record.effective_label, key
            )
        elif self.qubit != TRAVELING_QUBIT:
            self.record.effective_label = None


@dataclass
class DecoyQubit:
    """A decoy particle on the wire, carrying its own single-qubit state."""

    record: DecoyRecord
    state: PureState

    def measure(self, basis: Basis, rng: np.random.Generator) -> int:
        outcome, post = qcore.measure_in_basis(self.state, 0, basis, rng)
        self.state = post
        return outcome


WireParticle = PairQubit | DecoyQubit


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
    """Full record of one distribution run."""

    config: ScenarioConfig
    prepared: list[BellLabel]
    participant_keys: list[ParticipantKey]
    decoy_checks: list[DecoyCheckResult]
    improved_check: Optional[ImprovedCheckRecord]
    payload_positions: list[int]
    readout: list[BellLabel]
    predicted_readout: list[Optional[BellLabel]]
    extracted_secret: list[int]
    attacker_secret: Optional[list[int]]
    detected: bool


def prepare_epr_sequence(m: int, rng: np.random.Generator) -> list[EprRecord]:
    """Prepare m Bell pairs with uniformly random labels, positions 1..m."""
    if m < 1:
        raise ValueError(f"pair count must be >= 1, got {m}")
    bits = rng.integers(0, 2, size=(m, 2))
    records = []
    for position in range(1, m + 1):
        label = BellLabel(int(bits[position - 1, 0]), int(bits[position - 1, 1]))
        records.append(EprRecord(position, label, qcore.bell_state(label)))
    return records


def insert_decoys(
    seq_len: int, d: int, rng: np.random.Generator
) -> tuple[list[bool], list[DecoyRecord]]:
    """Plan a hop: choose decoy slots and preparations for a payload of seq_len.

    Returns (layout, decoys): layout has length seq_len + d with True at
    decoy slots; decoys are sorted by slot, each prepared uniformly over
    the four eigenstates {|0>, |1>, |+>, |->}.
    """
    if seq_len < 0 or d < 0:
        raise ValueError(f"lengths must be non-negative, got seq_len={seq_len}, d={d}")
    total = seq_len + d
    layout = [False] * total
    positions = sorted(int(p) for p in rng.choice(total, size=d, replace=False)) if d else []
    bits = rng.integers(0, 2, size=(d, 2)) if d else None
    decoys = []
    for i, pos in enumerate(positions):
        layout[pos] = True
        basis = Basis.Z if bits[i, 0] == 0 else Basis.X
        decoys.append(DecoyRecord(pos, basis, int(bits[i, 1])))
    return layout, decoys


def assemble_wire(
    layout: Sequence[bool],
    decoys: Sequence[DecoyRecord],
    payload: Sequence[PairQubit],
) -> list[WireParticle]:
    """Materialize the hop sequence: fresh decoy particles in their slots."""
    if sum(layout) != len(decoys):
        raise DesyncError("layout decoy slots do not match decoy records")
    if len(layout) - len(decoys) != len(payload):
        raise DesyncError("layout payload slots do not match payload length")
    wire: list[WireParticle] = []
    decoy_iter = iter(decoys)
    payload_iter = iter(payload)
    for slot, is_decoy in enumerate(layout):
        if is_decoy:
            rec = next(decoy_iter)
            if rec.insert_position != slot:
                raise DesyncError(
                    f"decoy record at slot {rec.insert_position} found in slot {slot}"
                )
            wire.append(DecoyQubit(rec, qcore.eigenstate(rec.basis, rec.value)))
        else:
            wire.append(next(payload_iter))
    return wire


def strip_decoys(wire: Sequence[WireParticle]) -> list[PairQubit]:
    """Receiver side: drop decoys, keep payload particles in order."""
    return [p for p in wire if isinstance(p, PairQubit)]


def verify_decoys(
    decoys: Sequence[DecoyRecord],
    channel_view: Sequence[WireParticle],
    threshold: float,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Measure each decoy in its announced basis and compare with its value.

    Returns (error_count, passed); passed iff the error rate is at most
    `threshold`. With no decoys the check trivially passes.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    errors = 0
    for rec in decoys:
        if not 0 <= rec.insert_position < len(channel_view):
            raise DesyncError(f"decoy slot {rec.insert_position} outside the sequence")
        particle = channel_view[rec.insert_position]
        if not isinstance(particle, DecoyQubit) or particle.record is not rec:
            raise DesyncError(f"slot {rec.insert_position} does not hold the announced decoy")
        if particle.measure(rec.basis, rng) != rec.value:
            errors += 1
    rate = errors / len(decoys) if decoys else 0.0
    return errors, rate <= threshold


def encode_key(records: Sequence[EprRecord], participant: ParticipantKey) -> Sequence[EprRecord]:
    """Apply U_{u,v} with the participant's key to each traveling qubit."""
    if len(participant.keys) != len(records):
        raise ValueError(
            f"participant {participant.owner} has {len(participant.keys)} keys "
            f"for {len(records)} pairs"
        )
    for record, key in zip(records, participant.keys):
        PairQubit(record, TRAVELING_QUBIT).apply_key(key)
    return records


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
    records: Sequence[EprRecord],
    fraction: float,
    announcements: Sequence[ParticipantKey],
    rng: np.random.Generator,
) -> ImprovedCheckRecord:
    """Sample pairs, collect published keys, and compare outcome parities.

    For each sampled position: Alice measures her retained particle in a
    random Z/X basis, every participant publishes its key for that position
    (announcement order is a recorded random permutation), Alice measures
    the returned particle in the same basis and checks the outcome parity
    against `deduce_parity`. Sampled pairs are consumed.

    Returns the per-position record; `passed` is True iff every sampled
    position matched.
    """
    m = len(records)
    if m == 0:
        raise ValueError("cannot sample from an empty pair sequence")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"sampled fraction must lie in (0, 1], got {fraction}")
    sample_size = math.ceil(fraction * m)
    if sample_size > m:
        raise ValueError(f"cannot sample {sample_size} of {m} pairs")
    for participant in announcements:
        if len(participant.keys) != m:
            raise ValueError(
                f"participant {participant.owner} announced {len(participant.keys)} "
                f"keys for {m} pairs"
            )
    chosen = sorted(int(i) for i in rng.choice(m, size=sample_size, replace=False))
    entries = []
    for idx in chosen:
        record = records[idx]
        basis = Basis.Z if rng.integers(2) == 0 else Basis.X
        x_outcome = PairQubit(record, RETAINED_QUBIT).measure(basis, rng)
        order = rng.permutation(len(announcements))
        announced = [
            (announcements[j].owner, announcements[j].keys[idx]) for j in order
        ]
        total = PauliKey(0, 0)
        for _, key in announced:
            total = total ^ key
        y_outcome = PairQubit(record, TRAVELING_QUBIT).measure(basis, rng)
        deduced = deduce_parity(record.prepared, total, basis)
        entries.append(
            ImprovedCheckEntry(
                position=record.position,
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


def _default_adversary(config: ScenarioConfig):
    if config.attack == "none":
        return None
    from . import adversary  # deferred: adversary builds on this module

    if config.attack == "collusion":
        return adversary.CollusionAttack()
    return adversary.InterceptResendEve()


def run_distribution(
    config: ScenarioConfig, rng: np.random.Generator, adversary=None
) -> Transcript:
    """Execute one full distribution run and return its transcript.

    Without `adversary` the run plays the default attack of `config.attack`
    on the closed-form label engine (`labels.run`). With a hook object (see
    the adversary module) it runs on the dense state-vector engine,
    `run_distribution_dense`. Both engines draw from `rng` in the same
    fixed order, so a fixed generator state reproduces the run bit for bit
    on either.
    """
    if adversary is not None:
        return run_distribution_dense(config, rng, adversary)
    config.validate()
    from . import labels  # deferred: labels builds on this module

    return labels.run(config, rng)


def run_distribution_dense(
    config: ScenarioConfig, rng: np.random.Generator, adversary=None
) -> Transcript:
    """Execute one full distribution run on dense state vectors.

    This is the reference engine that certifies the label engine.
    `adversary`, if given, must provide the hook interface documented in
    the adversary module; by default it is derived from `config.attack`.
    All randomness is drawn from `rng` in a fixed order, so a fixed
    generator state reproduces the run bit for bit.
    """
    config.validate()
    if adversary is None:
        adversary = _default_adversary(config)
    n, m, d = config.n, config.m, config.d
    threshold = 0.0

    records = prepare_epr_sequence(m, rng)
    keys = []
    for owner in range(1, n + 1):
        bits = rng.integers(0, 2, size=(m, 2))
        keys.append(
            ParticipantKey(owner, [PauliKey(int(u), int(v)) for u, v in bits])
        )
    if adversary is not None:
        adversary.begin_run(n, m, d, rng)

    decoy_checks: list[DecoyCheckResult] = []

    def ship(hop: int, payload, prebuilt=None) -> list[PairQubit]:
        if prebuilt is None:
            layout, decoys = insert_decoys(len(payload), d, rng)
            wire = assemble_wire(layout, decoys, payload)
        else:
            wire, decoys = prebuilt
        attacked = False
        if adversary is not None:
            attacked = bool(adversary.tamper_channel(hop, wire, rng))
        errors, passed = verify_decoys(decoys, wire, threshold, rng)
        decoy_checks.append(DecoyCheckResult(hop, errors, len(decoys), passed, attacked))
        return strip_decoys(wire)

    # hop 0: dealer to the first participant
    payload = ship(0, [PairQubit(r, TRAVELING_QUBIT) for r in records])
    # hop k: participant k to participant k+1 (or back to the dealer for k=n)
    for k in range(1, n + 1):
        custom = None
        if adversary is not None:
            custom = adversary.outgoing_payload(k, payload, keys[k - 1], d, rng)
        if custom is None:
            encode_key([ref.record for ref in payload], keys[k - 1])
            payload = ship(k, payload)
        else:
            payload = ship(k, None, prebuilt=custom)

    if [ref.record for ref in payload] != records:
        raise DesyncError("returned particles do not match the dealer's pair registers")

    improved = None
    sampled: list[int] = []
    if config.check == "improved":
        improved = improved_check(records, config.check_fraction, keys, rng)
        sampled = improved.sampled_positions

    payload_positions = [r.position for r in records if r.position not in sampled]
    readout: list[BellLabel] = []
    predicted: list[Optional[BellLabel]] = []
    for position in payload_positions:
        record = records[position - 1]
        predicted.append(record.effective_label)
        label, post = qcore.bell_measure(record.pair_state, RETAINED_QUBIT, TRAVELING_QUBIT, rng)
        record.pair_state = post
        readout.append(label)

    prepared_payload = [records[p - 1].prepared for p in payload_positions]
    secret = extract_secret(prepared_payload, readout)

    attacker_bits: Optional[list[int]] = None
    if adversary is not None:
        full = adversary.attacker_secret(keys)
        if full is not None:
            if len(full) != 2 * m:
                raise ValueError(f"attacker produced {len(full)} bits for {m} pairs")
            attacker_bits = []
            for position in payload_positions:
                attacker_bits.extend(full[2 * (position - 1) : 2 * position])

    detected = any(not c.passed for c in decoy_checks) or (
        improved is not None and not improved.passed
    )
    return Transcript(
        config=config,
        prepared=[r.prepared for r in records],
        participant_keys=keys,
        decoy_checks=decoy_checks,
        improved_check=improved,
        payload_positions=payload_positions,
        readout=readout,
        predicted_readout=predicted,
        extracted_secret=secret,
        attacker_secret=attacker_bits,
        detected=detected,
    )
