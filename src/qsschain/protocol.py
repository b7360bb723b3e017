"""Distribution phase of the chained Bell-pair secret-sharing protocol.

One run: a dealer (Alice) prepares m Bell pairs with random labels, keeps
the first particle of each and sends the second down a chain of n
participants. Every hop is protected by decoy particles drawn uniformly
from {|0>, |1>, |+>, |->}: the receiver measures each decoy in the
preparation basis the sender reveals and compares, so an outside
eavesdropper who measures in-transit particles shows up as decoy errors.
Each participant applies a Pauli encoding U_{u,v} keyed by its private
bits to every traveling particle. When the particles return, Alice
measures each pair in the Bell basis; the XOR of prepared and readout
labels equals the XOR of all participants' keys, which is the shared
secret.

Two final verification variants are supported:

* original: the last hop is checked with the last participant's decoys
  only, like every other hop.
* improved: additionally, Alice samples `sampled_pairs(config)` of the
  pairs, measures her retained particle in a random Z/X basis, has every
  participant publish the key used at those positions, then measures the
  returned particle in the same basis. The outcome parity of an intact
  pair is determined by the prepared label and the published key total
  (`deduce_parity`), so a substituted or disturbed particle shows up as a
  parity mismatch. Sampled pairs are consumed and excluded from the secret
  payload.

The run is written once, in `_run`, over a register algebra: a module
offering `bell_pairs`, `eigenstates`, `pauli`, `collapse`,
`collapse_qubit`, `bell_outcome` and `decoys_intact` over the integer codes
stated in `qcore`. `run_distribution` plays it on the `labels` module and
`run_distribution_dense` on the `qcore` module, the dense algebra of state
vectors. The run draws every uniform and hands it to the algebra, so a
fixed generator state gives the same transcript on either.

The chain is one loop over hops 0..n of whatever travels. Hop k >= 1
applies participant k's key with `encode_key`; every hop then plans its
decoys with `insert_decoys`, lets the eavesdropper measure with
`intercept_resend` if it is her hop (hop n), and checks the decoys with
`verify_decoys`. Collusion adds two handoffs and nothing else: at hop 1
the encoded genuine particles are relayed privately and probe pairs
travel instead, and at hop n the probes are read with `read_probes`, the
genuine particles travel again, and the last colluder applies its key
XOR the recovered composite. `improved_check` follows the loop.
`adversary` describes both attacks.

The run works on integer codes throughout. Its `Transcript` holds typed
views (`BELL_LABELS`, `KEYS`, `BASES`, each indexed by code) only of the
fields compared outside the run: `prepared`, `participant_keys`, each
improved-check entry's `basis`, and `recovered_composites`.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import adversary, labels, qcore
from .config import ScenarioConfig

RETAINED_QUBIT = 0
TRAVELING_QUBIT = 1


class BellLabel(NamedTuple):
    """Bell-state label: parity bit x, phase bit y, each 0 or 1."""

    x: int
    y: int


class PauliKey(NamedTuple):
    """Pauli encoding key: bit-flip exponent u, phase-flip exponent v."""

    u: int
    v: int


class Basis(enum.Enum):
    """Single-qubit measurement basis."""

    Z = "Z"
    X = "X"


# the typed views of the codes stated in `qcore`, each indexed by code
BELL_LABELS = tuple(BellLabel(x, y) for x in (0, 1) for y in (0, 1))
KEYS = tuple(PauliKey(u, v) for u in (0, 1) for v in (0, 1))
BASES = (Basis.Z, Basis.X)


@dataclass
class ParticipantKey:
    """One participant's private encoding keys, one per pair position."""

    keys: list[PauliKey]


@dataclass
class DecoyCheckResult:
    """Outcome of one hop's decoy comparison; the hop passes with no errors."""

    hop: int
    error_count: int
    attacked: bool


@dataclass
class ImprovedCheckEntry:
    """One sampled position of the pair-sampling parity check: basis and both outcomes."""

    position: int
    basis: Basis
    x_outcome: int
    y_outcome: int


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

    `readout` holds the Bell codes read at the payload positions.
    `recovered_composites` holds the colluders' probe readout, one middle-key
    XOR per pair position, under attack=collusion, and is None otherwise.
    """

    config: ScenarioConfig
    prepared: list[BellLabel]
    participant_keys: list[ParticipantKey]
    decoy_checks: list[DecoyCheckResult]
    improved_check: Optional[ImprovedCheckRecord]
    payload_positions: list[int]
    readout: list[int]
    extracted_secret: list[int]
    attacker_secret: Optional[list[int]]
    recovered_composites: Optional[list[PauliKey]]
    detected: bool


def _bit_pairs(rng: np.random.Generator, count: int) -> list[int]:
    """`count` uniform bit pairs (a, b), coded 2a + b."""
    bits = rng.integers(0, 2, size=(count, 2))
    return (2 * bits[:, 0] + bits[:, 1]).tolist()


def insert_decoys(seq_len: int, d: int, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Plan a hop for a payload of seq_len: (sorted decoy slots, decoy qubit codes).

    The hop carries seq_len + d particles. The decoys sit at the slots and
    the payload fills the other slots in order. Each decoy is prepared
    uniformly over the four eigenstates {|0>, |1>, |+>, |->}, coded
    2 * basis + value as in `labels`.
    """
    if d == 0:
        return [], []
    slots = sorted(rng.choice(seq_len + d, size=d, replace=False).tolist())
    return slots, _bit_pairs(rng, d)


def verify_decoys(alg, plan: Sequence[int], arrived: Sequence, rng: np.random.Generator) -> int:
    """Measure each decoy in its planned basis; return how many differ from the plan.

    `arrived[i]` is the register in which the decoy coded `plan[i]` reached
    the receiver. One uniform is drawn per decoy even where the algebra
    knows they are intact; a hop without decoys draws nothing. A hop passes
    only with no errors.
    """
    if not plan:
        return 0
    draws = rng.random(len(plan))
    if alg.decoys_intact(plan, arrived):
        return 0
    errors = 0
    for code, decoy, u in zip(plan, arrived, draws.tolist(), strict=True):
        outcome, _ = alg.collapse_qubit(decoy, code >> 1, u)
        errors += outcome != code & 1
    return errors


def encode_key(alg, pairs: Sequence, keys: Sequence[int]) -> list:
    """Apply U_{u,v} with one key code 2u + v per pair to each traveling qubit."""
    return [alg.pauli(pair, key) for pair, key in zip(pairs, keys, strict=True)]


def intercept_resend(
    alg, slots: Sequence[int], decoys: list, pairs: list, rng: np.random.Generator
) -> None:
    """Measure every particle of one hop, in slot order, in a random Z/X basis.

    The hop's decoys sit at their slots and the traveling qubits of `pairs`
    fill the other slots in order. Each post-measurement register replaces
    its entry in `decoys` or `pairs`: the eigenstate left behind is what a
    resent particle would carry, so collapsing in place models the attack
    exactly.
    """
    decoy_at = {slot: i for i, slot in enumerate(slots)}
    pair_index = 0
    for slot in range(len(decoys) + len(pairs)):
        basis = int(rng.integers(2))
        u = rng.random()
        if slot in decoy_at:
            i = decoy_at[slot]
            _, decoys[i] = alg.collapse_qubit(decoys[i], basis, u)
        else:
            _, pairs[pair_index] = alg.collapse(pairs[pair_index], TRAVELING_QUBIT, basis, u)
            pair_index += 1


def key_total(keys: Sequence[ParticipantKey], position: int) -> PauliKey:
    """XOR of the participants' keys at one pair position (1-based)."""
    total = 0
    for participant in keys:
        key = participant.keys[position - 1]
        total ^= 2 * key.u + key.v
    return KEYS[total]


def secret_bits(totals: Iterable[int]) -> list[int]:
    """The secret bits (U, V) of each key-total code 2U + V, in order."""
    return [bit for total in totals for bit in (total >> 1, total & 1)]


def extract_secret(prepared: Sequence[int], readout: Sequence[int]) -> list[int]:
    """Secret bits from prepared vs readout Bell codes: (x^x', y^y') per pair."""
    return secret_bits(before ^ after for before, after in zip(prepared, readout, strict=True))


def deduce_parity(prepared: int, total: int, basis: int) -> int:
    """Outcome parity of an intact pair measured in `basis`, all arguments codes.

    After the published key total acts on the traveling qubit the pair is
    |Psi_{x^U, y^V}> up to phase; measuring both qubits in the Z basis
    gives outcome parity x^U, in the X basis y^V.
    """
    return (prepared ^ total) >> (1 - basis) & 1


@functools.cache  # called once per trial; the Fraction parse alone takes about 7 us
def sampled_pairs(config: ScenarioConfig) -> int:
    """Pairs the improved check samples, 0 under the original check.

    ceil(f * m) for the decimal f the fraction prints as: 0.14 of 50 pairs
    is 7, not the 8 that the float product 7.000000000000001 rounds up to.
    """
    if config.check != "improved":
        return 0
    return math.ceil(Fraction(str(config.check_fraction)) * config.m)


def improved_check(
    alg,
    pairs: list,
    prepared: Sequence[int],
    sampled: int,
    keys: Sequence[Sequence[int]],
    rng: np.random.Generator,
) -> ImprovedCheckRecord:
    """Sample `sampled` pairs, collect published keys, and compare outcome parities.

    `prepared` holds the pairs' Bell codes and `keys[i][p]` the key code
    participant i + 1 applied at position p + 1. For each sampled position:
    Alice measures her retained particle in a random Z/X basis, every
    participant publishes its key for that position, Alice measures the
    returned particle in the same basis and checks the outcome parity
    against `deduce_parity` on the XOR of the published keys. Sampled pairs
    are consumed: their entries in `pairs` are replaced by the measured
    registers.

    Returns the per-position record; `passed` is True iff every sampled
    parity agrees.
    """
    chosen = sorted(rng.choice(len(pairs), size=sampled, replace=False).tolist())
    entries = []
    passed = True
    for idx in chosen:
        basis = int(rng.integers(2))
        x_outcome, pairs[idx] = alg.collapse(pairs[idx], RETAINED_QUBIT, basis, rng.random())
        # the keys' publication order is drawn and dropped: their XOR does not depend
        # on it, and the draw keeps the generator schedule of intercept-resend reports
        rng.permutation(len(keys))
        y_outcome, pairs[idx] = alg.collapse(pairs[idx], TRAVELING_QUBIT, basis, rng.random())
        total = 0
        for own in keys:
            total ^= own[idx]
        passed &= (x_outcome ^ y_outcome) == deduce_parity(prepared[idx], total, basis)
        entries.append(ImprovedCheckEntry(idx + 1, BASES[basis], x_outcome, y_outcome))
    return ImprovedCheckRecord(entries, passed)


def read_probes(alg, probes: Sequence, rng: np.random.Generator) -> list[int]:
    """Bell-measure every collusion probe pair and return the recovered composite key codes.

    The last colluder does this once the probe halves have passed every
    middle participant, so each probe carries the XOR of all middle keys;
    `adversary.recover_composite` turns each outcome into that composite.
    """
    draws = rng.random(len(probes)).tolist()
    return [
        adversary.recover_composite(alg.bell_outcome(probe, u)) for probe, u in zip(probes, draws)
    ]


def _run(alg, config: ScenarioConfig, rng: np.random.Generator) -> Transcript:
    """Play one distribution run on the register algebra `alg` (see the module docstring)."""
    # checked when built; kept only because the benchmark counts one validate per trial
    config.validate()
    n, m, d = config.n, config.m, config.d
    # the prepared codes, then each participant's keys; a bounded integer draw takes
    # the stream one element at a time, so one draw gives what n + 1 draws of m give
    drawn = _bit_pairs(rng, (n + 1) * m)
    codes = drawn[:m]
    key_codes = [drawn[m * k : m * (k + 1)] for k in range(1, n + 1)]
    collusion = config.attack == "collusion"
    eve_hop = n if config.attack == "intercept_resend" else None
    decoy_checks: list[DecoyCheckResult] = []
    travelers = alg.bell_pairs(codes)
    relayed: list = []  # the genuine particles the first colluder hands to the last
    composites: list[int] = []
    applied: list[int] = []  # the key codes the last colluder applies to the genuine particles
    for hop in range(n + 1):
        if hop:
            key = key_codes[hop - 1]
            if collusion and hop == n:  # read the probes, take back the genuine particles
                composites = read_probes(alg, travelers, rng)
                travelers = relayed
                key = applied = [own ^ composite for own, composite in zip(key, composites)]
            travelers = encode_key(alg, travelers, key)
            if collusion and hop == 1:  # relay the genuine particles; the probes travel
                relayed = travelers
                travelers = alg.bell_pairs([adversary.PROBE] * m)
        slots, plan = insert_decoys(len(travelers), d, rng)
        arrived = alg.eigenstates(plan)
        if hop == eve_hop:  # she measures every particle; travelers collapse in place
            intercept_resend(alg, slots, arrived, travelers, rng)
        errors = verify_decoys(alg, plan, arrived, rng)
        decoy_checks.append(DecoyCheckResult(hop, errors, hop == eve_hop))

    improved = None
    sampled: set[int] = set()
    if config.check == "improved":
        improved = improved_check(alg, travelers, codes, sampled_pairs(config), key_codes, rng)
        sampled = set(improved.sampled_positions)

    payload_positions = [p for p in range(1, m + 1) if p not in sampled]
    draws = rng.random(len(payload_positions)).tolist()
    readout = [alg.bell_outcome(travelers[p - 1], u) for p, u in zip(payload_positions, draws)]

    attacker_bits = None
    if collusion:  # the pairs carry the first colluder's key and then `applied`
        attacker_bits = secret_bits(key_codes[0][p - 1] ^ applied[p - 1] for p in payload_positions)

    detected = any(c.error_count for c in decoy_checks) or (
        improved is not None and not improved.passed
    )
    return Transcript(
        config=config,
        prepared=[BELL_LABELS[code] for code in codes],
        participant_keys=[ParticipantKey([KEYS[c] for c in own]) for own in key_codes],
        decoy_checks=decoy_checks,
        improved_check=improved,
        payload_positions=payload_positions,
        readout=readout,
        extracted_secret=extract_secret([codes[p - 1] for p in payload_positions], readout),
        attacker_secret=attacker_bits,
        recovered_composites=[KEYS[c] for c in composites] if collusion else None,
        detected=detected,
    )


def run_distribution(config: ScenarioConfig, rng: np.random.Generator) -> Transcript:
    """Execute one full distribution run on label codes and return its transcript.

    The run plays the attack of `config.attack` with the closed-form rules
    of `labels`. `run_distribution_dense` plays the same run on state
    vectors and draws from `rng` in the same fixed order, so a fixed
    generator state reproduces the run bit for bit on either algebra, up to
    the threshold rounding described in the `labels` docstring.
    """
    return _run(labels, config, rng)


def run_distribution_dense(config: ScenarioConfig, rng: np.random.Generator) -> Transcript:
    """Execute the same run on `qcore` state vectors: the reference for the label rules.

    Each pair register is a two-qubit `PureState` and each decoy a one-qubit
    one; every decoy of every hop is measured, and `qcore` samples every
    outcome from the uniform the run draws for it.
    """
    return _run(qcore, config, rng)
