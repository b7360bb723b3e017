"""Exact state-vector engine for the protocol's two registers.

Everything in the protocol reduces to a handful of primitives on dense
complex amplitude vectors: preparing the four Bell states, applying the
bit/phase Pauli encodings to one qubit, projective single-qubit measurement
in the Z or X basis, and projective measurement of a pair in the Bell
basis. A register is one decoy qubit or one pair, so dense vectors are both
the simplest and the fastest honest representation.

Conventions, fixed once here and relied on everywhere else:

* Amplitude index: the first qubit (index 0) is the most significant bit,
  so a two-qubit vector is ordered |00>, |01>, |10>, |11>.
* Bell labels are bit pairs (x, y): x is the parity bit (0 for the 00/11
  branch, 1 for 01/10), y is the phase bit (0 for +, 1 for -).

      |Psi_00> = (|00> + |11>)/sqrt(2)
      |Psi_01> = (|00> - |11>)/sqrt(2)
      |Psi_10> = (|01> + |10>)/sqrt(2)
      |Psi_11> = (|01> - |10>)/sqrt(2)

* Pauli encodings are keyed by bit pairs (u, v): U_{u,v} = X^u Z^v, with Z
  applied first. Acting on the second qubit of |Psi_{x,y}> this shifts the
  label to (x^u, y^v) up to a global phase.
* Measurement outcomes are bits: |0>/|1> map to 0/1 in the Z basis and
  |+>/|-> map to 0/1 in the X basis.

All states are normalized; every operation preserves the norm to within
1e-9 and measurement collapse renormalizes explicitly. PureState values are
immutable: operations return new instances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-9


class BellLabel(NamedTuple):
    """Bell-state label: parity bit x, phase bit y, each 0 or 1."""

    x: int
    y: int


class PauliKey(NamedTuple):
    """Pauli encoding key: bit-flip exponent u, phase-flip exponent v."""

    u: int
    v: int

    def __xor__(self, other: "PauliKey") -> "PauliKey":  # type: ignore[override]
        return PauliKey(self.u ^ other.u, self.v ^ other.v)


class Basis(enum.Enum):
    """Single-qubit measurement basis."""

    Z = "Z"
    X = "X"


_SQRT_HALF = 1 / np.sqrt(2)

# rows = eigenvectors for outcomes 0 and 1
_EIGENVECTORS = {
    Basis.Z: np.array([[1, 0], [0, 1]], dtype=complex),
    Basis.X: np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
}

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_BELL_VECTORS = {
    BellLabel(0, 0): np.array([_SQRT_HALF, 0, 0, _SQRT_HALF], dtype=complex),
    BellLabel(0, 1): np.array([_SQRT_HALF, 0, 0, -_SQRT_HALF], dtype=complex),
    BellLabel(1, 0): np.array([0, _SQRT_HALF, _SQRT_HALF, 0], dtype=complex),
    BellLabel(1, 1): np.array([0, _SQRT_HALF, -_SQRT_HALF, 0], dtype=complex),
}

# fixed outcome ordering for Bell-basis sampling
BELL_LABELS = (BellLabel(0, 0), BellLabel(0, 1), BellLabel(1, 0), BellLabel(1, 1))


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of one qubit or one pair as a dense amplitude vector."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.num_qubits not in (1, 2):
            raise ValueError(f"num_qubits must be 1 or 2, got {self.num_qubits}")
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{self.num_qubits} qubit(s)"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |amps| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)


def _as_front_axis(state: PureState, qubit: int) -> np.ndarray:
    """Amplitudes reshaped to (2, rest) with `qubit` as the leading axis."""
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")
    if qubit == 0:
        return state.amplitudes.reshape(2, -1)
    return state.amplitudes.reshape(2, 2).T  # qubit 1 of a pair: swap the two axes


def _from_front_axis(mat: np.ndarray, qubit: int) -> np.ndarray:
    if qubit == 0:
        return mat.reshape(-1)
    return mat.T.reshape(-1)  # undo the axis swap


def eigenstate(basis: Basis, value: int) -> PureState:
    """Single-qubit eigenstate of `basis` with outcome `value`."""
    if value not in (0, 1):
        raise ValueError(f"outcome value must be 0 or 1, got {value}")
    return PureState(1, _EIGENVECTORS[basis][value].copy())


def bell_state(label: BellLabel) -> PureState:
    """Two-qubit Bell state |Psi_{x,y}> for the given label."""
    label = BellLabel(*label)
    if label not in _BELL_VECTORS:
        raise ValueError(f"bell label bits must be 0 or 1, got {label}")
    return PureState(2, _BELL_VECTORS[label].copy())


def _build_pauli(u: int, v: int) -> np.ndarray:
    mat = np.eye(2, dtype=complex)
    if v:
        mat = _PAULI_Z @ mat
    if u:
        mat = _PAULI_X @ mat
    return mat


_PAULI_TABLE = {(u, v): _build_pauli(u, v) for u in (0, 1) for v in (0, 1)}


def apply_pauli(state: PureState, qubit: int, key: PauliKey) -> PureState:
    """Apply U_{u,v} to one qubit of the register; returns the new state."""
    mat = _PAULI_TABLE.get((key[0], key[1]))
    if mat is None:
        raise ValueError(f"pauli key bits must be 0 or 1, got {key}")
    front = _as_front_axis(state, qubit)
    out = _from_front_axis(mat @ front, qubit)
    return PureState(state.num_qubits, out)


def measurement_probabilities(state: PureState, qubit: int, basis: Basis) -> tuple[float, float]:
    """Born-rule outcome probabilities (p0, p1) for measuring one qubit."""
    front = _as_front_axis(state, qubit)
    eig = _EIGENVECTORS[basis]
    p0 = float(np.sum(np.abs(eig[0].conj() @ front) ** 2))
    p1 = float(np.sum(np.abs(eig[1].conj() @ front) ** 2))
    return p0, p1


def measure_in_basis(
    state: PureState, qubit: int, basis: Basis, rng: np.random.Generator
) -> tuple[int, PureState]:
    """Projectively measure one qubit in the Z or X basis.

    Samples the outcome from the Born rule using one `rng.random()` draw
    and collapses the register, renormalizing the kept branch. Only an
    outcome whose probability exceeds NORM_TOL can be picked: a certain
    outcome's float probability can fall a few ulp short of 1, and the
    draw must not land in that rounding gap.

    Returns:
        (outcome bit, post-measurement state).
    """
    front = _as_front_axis(state, qubit)
    eig = _EIGENVECTORS[basis]
    coeff0 = eig[0].conj() @ front
    coeff1 = eig[1].conj() @ front
    p0 = float(np.vdot(coeff0, coeff0).real)
    draw = rng.random()
    if float(np.vdot(coeff1, coeff1).real) <= NORM_TOL:
        outcome = 0
    elif p0 <= NORM_TOL:
        outcome = 1
    else:
        outcome = 0 if draw < p0 else 1
    coeff = coeff0 if outcome == 0 else coeff1
    norm = math.sqrt(np.vdot(coeff, coeff).real)
    if norm <= NORM_TOL:
        raise RuntimeError("sampled a zero-probability branch; state was not normalized")
    post = np.outer(eig[outcome], coeff / norm)
    return outcome, PureState(state.num_qubits, _from_front_axis(post, qubit))


# rows: conjugated Bell vectors in BELL_LABELS order, for batched projection
_BELL_BASIS_CONJ = np.array([_BELL_VECTORS[label].conj() for label in BELL_LABELS])


def _bell_branches(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """(4, 1) overlaps of a pair with the Bell states in BELL_LABELS order, and their weights."""
    if state.num_qubits != 2:
        raise ValueError(f"bell measurement needs a pair, got a {state.num_qubits}-qubit state")
    coeffs = _BELL_BASIS_CONJ @ state.amplitudes.reshape(4, 1)
    return coeffs, (np.abs(coeffs) ** 2).sum(axis=1)


def bell_probabilities(state: PureState) -> dict[BellLabel, float]:
    """Born-rule probabilities of the four Bell outcomes on a pair."""
    _, probs = _bell_branches(state)
    return {label: float(probs[i]) for i, label in enumerate(BELL_LABELS)}


def bell_measure(state: PureState, rng: np.random.Generator) -> tuple[BellLabel, PureState]:
    """Projectively measure a pair in the Bell basis.

    One `rng.random()` draw picks the outcome from the cumulative Born
    probabilities; as in `measure_in_basis`, only an outcome whose
    probability exceeds NORM_TOL can be picked.
    Returns the outcome label and the collapsed, renormalized register.
    """
    coeffs, probs = _bell_branches(state)
    draw = rng.random()
    possible = [i for i in range(len(BELL_LABELS)) if probs[i] > NORM_TOL]
    outcome = possible[-1]
    acc = 0.0
    for i in range(len(BELL_LABELS)):
        acc += probs[i]
        if draw < acc and probs[i] > NORM_TOL:
            outcome = i
            break
    label = BELL_LABELS[outcome]
    coeff = coeffs[outcome]
    norm = math.sqrt(np.vdot(coeff, coeff).real)
    if norm <= NORM_TOL:
        raise RuntimeError("sampled a zero-probability Bell branch")
    post = np.outer(_BELL_VECTORS[label], coeff / norm)
    return label, PureState(2, post.reshape(-1))


def equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """True iff the states differ only by a global phase (|<a|b>| >= 1 - tol)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"cannot compare states on {a.num_qubits} and {b.num_qubits} qubits"
        )
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1 - tol)
