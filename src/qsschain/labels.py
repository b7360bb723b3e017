"""Closed-form label rules: stabilizer states on small integer codes.

Every state a run touches is a stabilizer state: Bell pairs under Pauli
encodings, Z/X eigenstate decoys, and the product states that single-qubit
Z/X measurements leave behind. Each has an exact finite description
(Gottesman-Knill; Aaronson & Gottesman, "Improved simulation of stabilizer
circuits", quant-ph/0406196, cut down to two-qubit registers). The module
is a leaf that imports nothing from the package; its keys, bases, outcomes
and the codes below are those stated in `qcore`:

* a single qubit in a Z/X eigenstate is coded ``2 * basis + value``
  (basis 0 = Z, 1 = X), 0..3;
* a pair register (retained qubit 0, traveling qubit 1) is either the Bell
  state |Psi_{x,y}>, coded ``2 * x + y`` (0..3), or a product of two
  eigenstates, coded ``4 + 4 * retained + traveling`` (4..19), a code
  only this module has.

Pauli encodings, Z/X measurements and Bell measurements are the closed-form
rules `pauli`, `measure_qubit`, `measure` and `bell_quarters`;
`checks.label_rule_table` certifies each of them against the dense engine in
`qcore` by enumeration.

`protocol.run_distribution` plays the protocol's one run on this module as
its register algebra, resolving each rule here when it calls it, and
`protocol.run_distribution_dense` plays it on the `qcore` module, which
offers the same seven names over state vectors. The run draws the uniforms
itself, one per measurement even where the outcome is certain, and hands
each to the algebra as a float, so both algebras consume the generator
alike. The rules' outcome thresholds (`outcome`, `bell_outcome`) are exact
(1/2 and multiples of 1/4). The dense engine's are rounded: its p0 for an
even split is 0.5 - 2**-53 or 0.5 - 2**-52, and its cumulative Bell
probabilities fall up to 3 * 2**-53 short of 1/4, 1/2 and 3/4. The two
algebras can therefore pick different outcomes only for a uniform draw
that lies that close below a threshold (within 2**-52 of 1/2, the only
threshold a run meets); certain outcomes agree at every draw.
"""

from __future__ import annotations

Z, X = 0, 1


def product(retained: int, traveling: int) -> int:
    """Pair code of the product of two eigenstate qubit codes."""
    return 4 + 4 * retained + traveling


def bell_pairs(codes: list[int]) -> list[int]:
    """Pair registers in the Bell states of the given codes: the codes themselves."""
    return list(codes)


def eigenstates(codes: list[int]) -> list[int]:
    """Decoy registers in the eigenstates of the given qubit codes: the codes themselves."""
    return list(codes)


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


def collapse(pair: int, qubit: int, basis: int, u: float) -> tuple[int, int]:
    """`measure` at the uniform draw u: (outcome, post-measurement pair code)."""
    p0, posts = measure(pair, qubit, basis)
    bit = outcome(p0, u)
    return bit, posts[bit]


def collapse_qubit(qubit: int, basis: int, u: float) -> tuple[int, int]:
    """`measure_qubit` at the uniform draw u: (outcome, post-measurement qubit code)."""
    p0, posts = measure_qubit(qubit, basis)
    bit = outcome(p0, u)
    return bit, posts[bit]


def decoys_intact(plan: list[int], arrived: list[int]) -> bool:
    """True when every decoy arrived as planned, so none can show an error.

    A decoy measured in its own basis gives its value at every draw (the 8
    decoy cases of `checks.label_rule_table`).
    """
    return arrived == plan


def bell_quarters(pair: int) -> tuple[int, int, int, int]:
    """Bell-measurement outcome probabilities, in quarters, in Bell code order."""
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
