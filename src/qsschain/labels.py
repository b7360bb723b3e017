"""Closed-form label engine: one distribution run on small integer codes.

Every state a run touches is a stabilizer state: Bell pairs under Pauli
encodings, Z/X eigenstate decoys, and the product states that single-qubit
Z/X measurements leave behind. Each has an exact finite description
(Gottesman-Knill; Aaronson & Gottesman, "Improved simulation of stabilizer
circuits", quant-ph/0406196, cut down to two-qubit registers):

* a single qubit in a Z/X eigenstate is coded ``2 * basis + value``
  (basis 0 = Z, 1 = X), 0..3;
* a pair register (retained qubit 0, traveling qubit 1) is either the Bell
  state |Psi_{x,y}>, coded ``2 * x + y`` (0..3, the index into
  `qcore.BELL_LABELS`), or a product of two eigenstates, coded
  ``4 + 4 * retained + traveling`` (4..19).

Pauli encodings, Z/X measurements and Bell measurements are the closed-form
rules `pauli`, `measure_qubit`, `measure` and `bell_quarters`;
`checks.label_rule_table` certifies each of them against the dense engine in
`qcore` by enumeration.

`run` plays the same protocol as `protocol.run_distribution_dense`, under
the attack of `config.attack`, and consumes `rng` in exactly the same
order: the same `integers`, `choice` and `permutation` calls and one uniform
per measurement, even where the outcome is certain. Its outcome thresholds
are exact (1/2 and multiples of 1/4). The dense engine's are rounded: its
p0 for an even split is 0.5 - 2**-53 or 0.5 - 2**-52, and its cumulative
Bell probabilities fall up to 3 * 2**-53 short of 1/4, 1/2 and 3/4. The
two engines can therefore pick different outcomes only for a uniform draw
that lies that close below a threshold (within 2**-52 of 1/2, the only
threshold a run meets); certain outcomes agree at every draw.
"""

from __future__ import annotations

import math

import numpy as np

from . import protocol
from .adversary import PROBE_LABEL
from .config import ScenarioConfig
from .protocol import (
    DecoyCheckResult,
    ImprovedCheckEntry,
    ImprovedCheckRecord,
    ParticipantKey,
    Transcript,
)
from .qcore import BELL_LABELS, Basis, PauliKey

Z, X = 0, 1
BASES = (Basis.Z, Basis.X)
KEYS = tuple(PauliKey(u, v) for u in (0, 1) for v in (0, 1))  # indexed by 2u + v
PROBE = 2 * PROBE_LABEL.x + PROBE_LABEL.y


def product(retained: int, traveling: int) -> int:
    """Pair code of the product of two eigenstate qubit codes."""
    return 4 + 4 * retained + traveling


def pauli(pair: int, key: int) -> int:
    """Pair code after U_{u,v} (key code 2u + v) acts on the traveling qubit."""
    if pair < 4:
        return pair ^ key  # |Psi_{x,y}> -> |Psi_{x^u, y^v}>
    retained, traveling = divmod(pair - 4, 4)
    # X^u flips a Z eigenstate and Z^v an X eigenstate; the other factor is a phase
    flip = key >> 1 if traveling >> 1 == Z else key & 1
    return product(retained, traveling ^ flip)


def measure_qubit(qubit: int, basis: int) -> tuple[float, tuple[int, int]]:
    """Z/X measurement of an eigenstate qubit: (p0, (post if 0, post if 1))."""
    posts = (2 * basis, 2 * basis + 1)
    if qubit >> 1 == basis:
        return (0.0 if qubit & 1 else 1.0), posts
    return 0.5, posts


def measure(pair: int, qubit: int, basis: int) -> tuple[float, tuple[int, int]]:
    """Z/X measurement of one qubit of a pair: (p0, (post if 0, post if 1)).

    On |Psi_{x,y}> either outcome has probability 1/2 and leaves the other
    qubit in the same basis with outcome parity x (Z) or y (X).
    """
    if pair < 4:
        parity = pair >> 1 if basis == Z else pair & 1
        # (measured qubit, other qubit) after outcome 0 and after outcome 1
        branches = [(2 * basis + bit, 2 * basis + (bit ^ parity)) for bit in (0, 1)]
        p0 = 0.5
    else:
        codes = divmod(pair - 4, 4)
        p0, posts = measure_qubit(codes[qubit], basis)
        branches = [(post, codes[1 - qubit]) for post in posts]
    posts = tuple(
        product(mine, other) if qubit == 0 else product(other, mine) for mine, other in branches
    )
    return p0, posts


def bell_quarters(pair: int) -> tuple[int, int, int, int]:
    """Bell-measurement outcome probabilities, in quarters, in BELL_LABELS order."""
    if pair < 4:
        return tuple(4 if label == pair else 0 for label in range(4))
    retained, traveling = divmod(pair - 4, 4)
    if retained >> 1 != traveling >> 1:
        return (1, 1, 1, 1)
    parity = (retained ^ traveling) & 1
    if retained >> 1 == Z:  # |a>|b>: parity bit x = a^b, phase bit uniform
        return (0, 0, 2, 2) if parity else (2, 2, 0, 0)
    return (0, 2, 0, 2) if parity else (2, 0, 2, 0)  # |s>|t>: phase bit y = s^t


def outcome(p0: float, u: float) -> int:
    """Z/X outcome for the uniform draw u."""
    return 0 if u < p0 else 1


def bell_outcome(pair: int, u: float) -> int:
    """Bell outcome code (2x + y) for the uniform draw u."""
    scaled = 4 * u  # exact: a power-of-two scaling
    cumulative = 0
    for label, quarters in enumerate(bell_quarters(pair)):
        cumulative += quarters
        if scaled < cumulative:
            return label
    raise ValueError(f"uniform draw {u} outside [0, 1)")


def _bit_pairs(rng: np.random.Generator, count: int) -> list[int]:
    """`count` uniform bit pairs (a, b), drawn as the dense engine does, coded 2a + b."""
    bits = rng.integers(0, 2, size=(count, 2))
    return (2 * bits[:, 0] + bits[:, 1]).tolist()


def _decoy_plan(seq_len: int, d: int, rng: np.random.Generator):
    """`protocol.insert_decoys` on codes: (sorted decoy slots, decoy qubit codes)."""
    slots = sorted(rng.choice(seq_len + d, size=d, replace=False).tolist())
    return slots, _bit_pairs(rng, d)


def _intercept_resend(slots, decoys, pairs, rng) -> None:
    """Measure every particle of the hop in slot order, in a random Z/X basis."""
    decoy_slots = {slot: i for i, slot in enumerate(slots)}
    pair_index = 0
    for slot in range(len(decoys) + len(pairs)):
        basis = int(rng.integers(2))
        u = rng.random()
        if slot in decoy_slots:
            i = decoy_slots[slot]
            p0, posts = measure_qubit(decoys[i], basis)
            decoys[i] = posts[outcome(p0, u)]
        else:
            p0, posts = measure(pairs[pair_index], 1, basis)
            pairs[pair_index] = posts[outcome(p0, u)]
            pair_index += 1


def _verify(prepared: list[int], arrived: list[int], rng: np.random.Generator) -> int:
    """Decoy errors: each arrived decoy measured in its prepared basis."""
    errors = 0
    for plan, state, u in zip(prepared, arrived, rng.random(len(prepared)).tolist()):
        p0, _ = measure_qubit(state, plan >> 1)
        errors += outcome(p0, u) != plan & 1
    return errors


def _encode(pairs: list[int], keys: list[int]) -> list[int]:
    return [pauli(pair, key) for pair, key in zip(pairs, keys)]


def _improved_check(pairs, prepared, keys, codes, fraction, rng) -> ImprovedCheckRecord:
    """`protocol.improved_check` on codes; measures the sampled pairs in place."""
    m = len(pairs)
    chosen = sorted(rng.choice(m, size=math.ceil(fraction * m), replace=False).tolist())
    entries = []
    for idx in chosen:
        basis = int(rng.integers(2))
        p0, posts = measure(pairs[idx], 0, basis)
        x_outcome = outcome(p0, rng.random())
        pairs[idx] = posts[x_outcome]
        order = rng.permutation(len(keys)).tolist()
        announced = [(keys[j].owner, keys[j].keys[idx]) for j in order]
        total = 0
        for j in order:
            total ^= codes[j][idx]
        p0, posts = measure(pairs[idx], 1, basis)
        y_outcome = outcome(p0, rng.random())
        pairs[idx] = posts[y_outcome]
        deduced = protocol.deduce_parity(prepared[idx], KEYS[total], BASES[basis])
        entries.append(
            ImprovedCheckEntry(
                position=idx + 1,
                basis=BASES[basis],
                x_outcome=x_outcome,
                announced=announced,
                total_published=KEYS[total],
                y_outcome=y_outcome,
                deduced_parity=deduced,
                matched=(x_outcome ^ y_outcome) == deduced,
            )
        )
    return ImprovedCheckRecord(entries, passed=all(e.matched for e in entries))


def run(config: ScenarioConfig, rng: np.random.Generator) -> Transcript:
    """One distribution run under the attack of `config.attack`.

    The transcript and the final generator state equal those of
    `protocol.run_distribution_dense(config, rng)` from the same generator
    state, up to the threshold rounding described in the module docstring.
    `config` must already be validated.
    """
    n, m, d = config.n, config.m, config.d
    pairs = _bit_pairs(rng, m)
    prepared = [BELL_LABELS[pair] for pair in pairs]
    codes = [_bit_pairs(rng, m) for _ in range(n)]
    keys = [ParticipantKey(owner, [KEYS[c] for c in codes[owner - 1]]) for owner in range(1, n + 1)]
    collusion = config.attack == "collusion"
    eve_hop = n if config.attack == "intercept_resend" else None
    decoy_checks: list[DecoyCheckResult] = []

    def ship(hop: int, travelers: list[int]) -> None:
        slots, decoys = _decoy_plan(len(travelers), d, rng) if d else ([], [])
        errors = 0
        if hop == eve_hop:
            arrived = list(decoys)
            _intercept_resend(slots, arrived, travelers, rng)
            errors = _verify(decoys, arrived, rng)
        elif d:
            rng.random(d)  # untouched decoys measure as prepared: only the draws remain
        decoy_checks.append(DecoyCheckResult(hop, errors, d, errors == 0, hop == eve_hop))

    ship(0, pairs)
    probes = [PROBE] * m
    composites: list[int] = []
    for k in range(1, n + 1):
        if collusion and k == 1:
            # the first colluder encodes the genuine particles and relays them
            # privately; the chain carries the probe halves instead
            pairs = _encode(pairs, codes[0])
            ship(1, probes)
        elif collusion and k == n:
            draws = rng.random(m).tolist()
            composites = [bell_outcome(p, u) ^ PROBE for p, u in zip(probes, draws)]
            pairs = _encode(pairs, [own ^ c for own, c in zip(codes[n - 1], composites)])
            ship(n, pairs)
        elif collusion:
            probes = _encode(probes, codes[k - 1])
            ship(k, probes)
        else:
            pairs = _encode(pairs, codes[k - 1])
            ship(k, pairs)

    improved = None
    sampled: set[int] = set()
    if config.check == "improved":
        improved = _improved_check(pairs, prepared, keys, codes, config.check_fraction, rng)
        sampled = set(improved.sampled_positions)

    payload_positions = [p for p in range(1, m + 1) if p not in sampled]
    payload = [pairs[p - 1] for p in payload_positions]
    draws = rng.random(len(payload)).tolist() if payload else []
    readout = [BELL_LABELS[bell_outcome(pair, u)] for pair, u in zip(payload, draws)]
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
        extracted_secret=protocol.extract_secret(prepared_payload, readout),
        attacker_secret=attacker_bits,
        recovered_composites=[KEYS[c] for c in composites] if collusion else None,
        detected=detected,
    )
