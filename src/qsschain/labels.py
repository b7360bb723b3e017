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
rules `pauli`, `measure_qubit`, `measure` and `bell_quarters`. Over at most
20 codes they tabulate exactly, so the measurements a run makes, `collapse`,
`collapse_qubit` and `bell_outcome`, index tables built at import from
`measure`, `measure_qubit` and `bell_quarters`; the exact enumerations in
`harness` call the closed forms. `checks.label_rule_table` certifies the
closed forms and the tables against the dense engine in `qcore` by
enumeration.

`protocol.run_distribution` plays the protocol's one run on this module as
its register algebra, resolving each rule here when it calls it, and
`protocol.run_distribution_dense` plays it on the `qcore` module, which
offers the same seven names over state vectors. The run draws the uniforms
itself, one per measurement even where the outcome is certain, and hands
each to the algebra as a float, so both algebras consume the generator
alike. The rules' outcome thresholds (outcome 0 for a draw below p0, and
`bell_outcome`'s quarters) are exact (1/2 and multiples of 1/4). The
dense engine's are rounded: its p0 for an even split is 0.5 - 2**-53 or
0.5 - 2**-52, and its cumulative Bell probabilities fall up to 3 * 2**-53
short of 1/4, 1/2 and 3/4. The two algebras can therefore pick different
outcomes only for a uniform draw that lies that close below a threshold
(within 2**-52 of 1/2, the only threshold a run meets); certain outcomes
agree at every draw.
"""

from __future__ import annotations

import itertools

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


def _entry(p0: float, posts: tuple[int, int]) -> tuple[float, tuple]:
    """A measurement table entry: p0, then (outcome, post) of outcomes 0 and 1."""
    return p0, ((0, posts[0]), (1, posts[1]))


def _bell_row(quarters: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Bell outcome for each quarter k = floor(4u) of the draw.

    The outcome is the first label whose cumulative weight exceeds 4u. The
    weights are whole quarters, so that label is the same for every u in
    [k/4, (k + 1)/4): the first whose cumulative weight exceeds k.
    """
    bounds = list(itertools.accumulate(quarters))
    return tuple(next(label for label, bound in enumerate(bounds) if k < bound) for k in range(4))


# The run's rules as tables, built here from the closed forms above: 20 pair
# codes x 2 qubits x 2 bases, 4 decoy codes x 2 bases, and 20 Bell rows.
_COLLAPSE = tuple(
    tuple(tuple(_entry(*measure(pair, qubit, basis)) for basis in (Z, X)) for qubit in (0, 1))
    for pair in range(20)
)
_COLLAPSE_QUBIT = tuple(
    tuple(_entry(*measure_qubit(qubit, basis)) for basis in (Z, X)) for qubit in range(4)
)
_BELL_ROWS = tuple(_bell_row(bell_quarters(pair)) for pair in range(20))


def collapse(pair: int, qubit: int, basis: int, u: float) -> tuple[int, int]:
    """`measure` at the uniform draw u: (outcome, post-measurement pair code)."""
    p0, branches = _COLLAPSE[pair][qubit][basis]
    return branches[u >= p0]  # outcome 0 for u < p0


def collapse_qubit(qubit: int, basis: int, u: float) -> tuple[int, int]:
    """`measure_qubit` at the uniform draw u: (outcome, post-measurement qubit code)."""
    p0, branches = _COLLAPSE_QUBIT[qubit][basis]
    return branches[u >= p0]


def bell_outcome(pair: int, u: float) -> int:
    """Bell outcome code (2x + y) for the uniform draw u, from the row of floor(4u).

    4u is exact, a power-of-two scaling.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform draw {u} outside [0, 1)")
    return _BELL_ROWS[pair][int(4 * u)]
