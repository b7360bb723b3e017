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
vectors. The run draws every uniform and hands it to the algebra, so the
same words give the same transcript on either.

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

Every draw comes from `Draws`, one trial's 64-bit words taken in order;
each of its methods takes a fixed number of words, so a run of `config`
takes exactly `words_per_run(config)` of them, laid out as follows:

* `codes` for the (n + 1) * m prepared labels and keys, 32 codes a word;
* at each hop 0..n: under collusion at hop n, `uniforms` for the m probe
  readouts; for d > 0, `subset` for the d decoy slots (d words) and
  `codes` for the d decoy states; under intercept-resend at hop n, a
  `basis` for each of the m + d particles and then `uniforms` for them;
  and for d > 0, `uniforms` for the d decoy measurements;
* under the improved check, `subset` for the s = `sampled_pairs(config)`
  sampled pairs, a `basis` for each and then two `uniforms` for each;
* `uniforms` for the Bell readout of the m - s payload pairs.

The count depends on the config alone, not on any outcome, so the words
of a block of trials can be computed before any of them runs.

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


_UNIT = 2.0**-53  # the spacing of the uniforms in [0, 1) with 53-bit mantissas
# the four 2-bit codes of each byte value, the lowest bits first
_BYTE_CODES = tuple((b & 3, b >> 2 & 3, b >> 4 & 3, b >> 6) for b in range(256))


def _code_words(count: int) -> int:
    return -(-count // 32)


class Draws:
    """One trial's draws, taken in order from its 64-bit words.

    Each method takes a fixed number of words, whatever they hold (see the
    module docstring for a run's layout); `used` counts the words taken.
    Taking more words than `words` holds raises IndexError.
    """

    def __init__(self, words: Sequence[int]) -> None:
        self.words = words
        self.used = 0

    def _take(self, count: int) -> Sequence[int]:
        start = self.used
        self.used = end = start + count
        if end > len(self.words):
            raise IndexError(f"a draw needs word {end - 1}, but only {len(self.words)} are given")
        return self.words[start:end]

    def codes(self, count: int) -> list[int]:
        """`count` uniform 2-bit codes from ceil(count / 32) words, the lowest bits first."""
        data = b"".join([w.to_bytes(8, "little") for w in self._take(_code_words(count))])
        return [code for byte in data for code in _BYTE_CODES[byte]][:count]

    def subset(self, population: int, count: int) -> list[int]:
        """A uniform `count`-subset of range(population), sorted, from `count` words.

        Floyd's algorithm (Bentley and Floyd, "A sample of brilliance",
        CACM 30(9), 1987): for j = population - count, ..., population - 1,
        draw t in 0..j as (w * (j + 1)) >> 64, which each t gets from the
        floor or the ceiling of 2**64 / (j + 1) words, and keep j if t is
        already kept, else t.
        """
        chosen: set[int] = set()
        for j, w in enumerate(self._take(count), population - count):
            t = w * (j + 1) >> 64
            chosen.add(j if t in chosen else t)
        return sorted(chosen)

    def basis(self) -> int:
        """A uniform Z/X basis code, the top bit of one word."""
        return self._take(1)[0] >> 63

    def uniforms(self, count: int) -> list[float]:
        """`count` uniforms in [0, 1), a word each, (w >> 11) * 2**-53, as numpy's `random()`."""
        return [(w >> 11) * _UNIT for w in self._take(count)]


def insert_decoys(seq_len: int, d: int, draws: Draws) -> tuple[list[int], list[int]]:
    """Plan a hop for a payload of seq_len: (sorted decoy slots, decoy qubit codes).

    The hop carries seq_len + d particles. The decoys sit at the slots and
    the payload fills the other slots in order. Each decoy is prepared
    uniformly over the four eigenstates {|0>, |1>, |+>, |->}, coded
    2 * basis + value as in `labels`.
    """
    if d == 0:
        return [], []
    slots = draws.subset(seq_len + d, d)
    return slots, draws.codes(d)


def verify_decoys(alg, plan: Sequence[int], arrived: Sequence, draws: Draws) -> int:
    """Measure each decoy in its planned basis; return how many differ from the plan.

    `arrived[i]` is the register in which the decoy coded `plan[i]` reached
    the receiver. One uniform is drawn per decoy even where the algebra
    knows they are intact; a hop without decoys draws nothing. A hop passes
    only with no errors.
    """
    if not plan:
        return 0
    uniforms = draws.uniforms(len(plan))
    if alg.decoys_intact(plan, arrived):
        return 0
    errors = 0
    for code, decoy, u in zip(plan, arrived, uniforms, strict=True):
        outcome, _ = alg.collapse_qubit(decoy, code >> 1, u)
        errors += outcome != code & 1
    return errors


def encode_key(alg, pairs: Sequence, keys: Sequence[int]) -> list:
    """Apply U_{u,v} with one key code 2u + v per pair to each traveling qubit."""
    return [alg.pauli(pair, key) for pair, key in zip(pairs, keys, strict=True)]


def intercept_resend(alg, slots: Sequence[int], decoys: list, pairs: list, draws: Draws) -> None:
    """Measure every particle of one hop, in slot order, in a random Z/X basis.

    The hop's decoys sit at their slots and the traveling qubits of `pairs`
    fill the other slots in order. Each post-measurement register replaces
    its entry in `decoys` or `pairs`: the eigenstate left behind is what a
    resent particle would carry, so collapsing in place models the attack
    exactly.
    """
    count = len(decoys) + len(pairs)
    bases = [draws.basis() for _ in range(count)]
    decoy_at = {slot: i for i, slot in enumerate(slots)}
    pair_index = 0
    for slot, (basis, u) in enumerate(zip(bases, draws.uniforms(count))):
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


def words_per_run(config: ScenarioConfig) -> int:
    """The number of words `Draws` gives one run of `config` (the module docstring's layout)."""
    n, m, d = config.n, config.m, config.d
    sampled = sampled_pairs(config)
    # labels and keys; each hop's decoy slots, states and checks; improved check; payload
    words = _code_words((n + 1) * m) + (n + 1) * (2 * d + _code_words(d)) + 3 * sampled + m
    if config.attack == "collusion":
        words += m
    elif config.attack == "intercept_resend":
        words += 2 * (m + d)
    return words


def improved_check(
    alg,
    pairs: list,
    prepared: Sequence[int],
    sampled: int,
    keys: Sequence[Sequence[int]],
    draws: Draws,
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
    chosen = draws.subset(len(pairs), sampled)
    bases = [draws.basis() for _ in chosen]
    uniforms = iter(draws.uniforms(2 * sampled))
    entries = []
    passed = True
    for idx, basis in zip(chosen, bases):
        x_outcome, pairs[idx] = alg.collapse(pairs[idx], RETAINED_QUBIT, basis, next(uniforms))
        y_outcome, pairs[idx] = alg.collapse(pairs[idx], TRAVELING_QUBIT, basis, next(uniforms))
        total = 0
        for own in keys:
            total ^= own[idx]
        passed &= (x_outcome ^ y_outcome) == deduce_parity(prepared[idx], total, basis)
        entries.append(ImprovedCheckEntry(idx + 1, BASES[basis], x_outcome, y_outcome))
    return ImprovedCheckRecord(entries, passed)


def read_probes(alg, probes: Sequence, draws: Draws) -> list[int]:
    """Bell-measure every collusion probe pair and return the recovered composite key codes.

    The last colluder does this once the probe halves have passed every
    middle participant, so each probe carries the XOR of all middle keys;
    `adversary.recover_composite` turns each outcome into that composite.
    """
    uniforms = draws.uniforms(len(probes))
    return [
        adversary.recover_composite(alg.bell_outcome(probe, u))
        for probe, u in zip(probes, uniforms, strict=True)
    ]


def _run(alg, config: ScenarioConfig, source) -> Transcript:
    """Play one distribution run on the register algebra `alg` (see the module docstring).

    `source` is a `Draws`, or a numpy Generator whose next
    `words_per_run(config)` raw words the run takes.
    """
    # checked when built; kept only because the benchmark counts one validate per trial
    config.validate()
    if isinstance(source, Draws):
        draws = source
    else:
        draws = Draws(source.bit_generator.random_raw(words_per_run(config)).tolist())
    n, m, d = config.n, config.m, config.d
    # the prepared codes, then each participant's keys
    drawn = draws.codes((n + 1) * m)
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
                composites = read_probes(alg, travelers, draws)
                travelers = relayed
                key = applied = [own ^ composite for own, composite in zip(key, composites)]
            travelers = encode_key(alg, travelers, key)
            if collusion and hop == 1:  # relay the genuine particles; the probes travel
                relayed = travelers
                travelers = alg.bell_pairs([adversary.PROBE] * m)
        slots, plan = insert_decoys(len(travelers), d, draws)
        arrived = alg.eigenstates(plan)
        if hop == eve_hop:  # she measures every particle; travelers collapse in place
            intercept_resend(alg, slots, arrived, travelers, draws)
        errors = verify_decoys(alg, plan, arrived, draws)
        decoy_checks.append(DecoyCheckResult(hop, errors, hop == eve_hop))

    improved = None
    sampled: set[int] = set()
    if config.check == "improved":
        improved = improved_check(alg, travelers, codes, sampled_pairs(config), key_codes, draws)
        sampled = set(improved.sampled_positions)

    payload_positions = [p for p in range(1, m + 1) if p not in sampled]
    uniforms = draws.uniforms(len(payload_positions))
    readout = [alg.bell_outcome(travelers[p - 1], u) for p, u in zip(payload_positions, uniforms)]

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


def run_distribution(config: ScenarioConfig, source) -> Transcript:
    """Execute one full distribution run on label codes and return its transcript.

    The run plays the attack of `config.attack` with the closed-form rules
    of `labels`, drawing from `source`: a `Draws`, or a numpy Generator
    whose next `words_per_run(config)` raw words it takes.
    `run_distribution_dense` plays the same run on state vectors and takes
    the same words in the same order, so equal words reproduce the run bit
    for bit on either algebra, up to the threshold rounding described in
    the `labels` docstring.
    """
    return _run(labels, config, source)


def run_distribution_dense(config: ScenarioConfig, source) -> Transcript:
    """Execute the same run on `qcore` state vectors: the reference for the label rules.

    Each pair register is a two-qubit `PureState` and each decoy a one-qubit
    one; every decoy of every hop is measured, and `qcore` samples every
    outcome from the uniform the run draws for it.
    """
    return _run(qcore, config, source)
