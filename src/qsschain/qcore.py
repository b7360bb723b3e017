"""Exact state-vector engine for the protocol's two registers: the dense register algebra.

A register is one decoy qubit or one pair, so dense complex amplitude
vectors are both the simplest and the fastest honest representation. The
seven operations a run needs (`bell_pairs`, `eigenstates`, `pauli`,
`collapse`, `collapse_qubit`, `bell_outcome`, `decoys_intact`) take the
arguments of the closed-form rules in `labels`, over the same codes, with
`PureState` registers in place of label codes, so `protocol._run` plays one
run on either module.

Conventions, fixed once here and relied on everywhere else:

* Amplitude index: the first qubit (index 0) is the most significant bit,
  so a two-qubit vector is ordered |00>, |01>, |10>, |11>. A pair holds
  the retained qubit 0 and the traveling qubit 1.
* Bell labels are bit pairs (x, y): x is the parity bit (0 for the 00/11
  branch, 1 for 01/10), y is the phase bit (0 for +, 1 for -). The label
  (x, y) is coded 2x + y.

      |Psi_00> = (|00> + |11>)/sqrt(2)
      |Psi_01> = (|00> - |11>)/sqrt(2)
      |Psi_10> = (|01> + |10>)/sqrt(2)
      |Psi_11> = (|01> - |10>)/sqrt(2)

* Pauli encodings are keyed by bit pairs (u, v): U_{u,v} = X^u Z^v, with Z
  applied first, coded 2u + v. Acting on the traveling qubit of
  |Psi_{x,y}> this shifts the label to (x^u, y^v) up to a global phase, so
  the key code XORs onto the label code.
* Bases are coded 0 for Z and 1 for X, and the eigenstate of basis b with
  outcome bit v is coded 2b + v.
* Measurement outcomes are bits: |0>/|1> map to 0/1 in the Z basis and
  |+>/|-> map to 0/1 in the X basis.

Every entry point that takes a code checks its range. All states are
normalized; every operation preserves the norm to within 1e-9 and
measurement collapse renormalizes explicitly. PureState values are
immutable: operations return new instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

NORM_TOL = 1e-9

_SQRT_HALF = 1 / np.sqrt(2)

# [basis code][outcome bit]: the eigenvector of that outcome
_EIGENVECTORS = np.array(
    [[[1, 0], [0, 1]], [[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]]], dtype=complex
)

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# [Bell code]: the amplitude vector of |Psi_{x,y}>
_BELL_VECTORS = np.array(
    [
        [_SQRT_HALF, 0, 0, _SQRT_HALF],
        [_SQRT_HALF, 0, 0, -_SQRT_HALF],
        [0, _SQRT_HALF, _SQRT_HALF, 0],
        [0, _SQRT_HALF, -_SQRT_HALF, 0],
    ],
    dtype=complex,
)
_BELL_BASIS_CONJ = _BELL_VECTORS.conj()  # rows project a pair onto the Bell states


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


def _checked(kind: str, code: int, count: int) -> int:
    """`code` if it lies in 0..count-1; a negative code would silently pick a wrong row."""
    if not 0 <= code < count:
        raise ValueError(f"{kind} code must be in 0..{count - 1}, got {code!r}")
    return code


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


def eigenstate(code: int) -> PureState:
    """Single-qubit eigenstate of qubit code 2 * basis + value."""
    basis, value = divmod(_checked("qubit", code, 4), 2)
    return PureState(1, _EIGENVECTORS[basis, value].copy())


def bell_state(code: int) -> PureState:
    """Two-qubit Bell state |Psi_{x,y}> of Bell code 2x + y."""
    return PureState(2, _BELL_VECTORS[_checked("bell", code, 4)].copy())


def bell_pairs(codes: Sequence[int]) -> list[PureState]:
    """Pair registers in the Bell states of the given codes."""
    return [bell_state(code) for code in codes]


def eigenstates(codes: Sequence[int]) -> list[PureState]:
    """Decoy registers in the eigenstates of the given qubit codes."""
    return [eigenstate(code) for code in codes]


def _build_pauli(key: int) -> np.ndarray:
    u, v = divmod(key, 2)
    mat = np.eye(2, dtype=complex)
    if v:
        mat = _PAULI_Z @ mat
    if u:
        mat = _PAULI_X @ mat
    return mat


_PAULI_TABLE = np.array([_build_pauli(key) for key in range(4)])  # [key code]


def pauli(pair: PureState, key: int) -> PureState:
    """Pair after U_{u,v} (key code 2u + v) acts on its traveling qubit."""
    mat = _PAULI_TABLE[_checked("key", key, 4)]
    return PureState(2, _from_front_axis(mat @ _as_front_axis(pair, 1), 1))


def _overlaps(state: PureState, qubit: int, basis: int) -> tuple[np.ndarray, list, tuple]:
    """Eigenvectors of basis code `basis`, their overlaps with `qubit`, and the weights."""
    eig = _EIGENVECTORS[_checked("basis", basis, 2)]
    front = _as_front_axis(state, qubit)
    coeffs = [eig[bit].conj() @ front for bit in (0, 1)]
    return eig, coeffs, tuple(float(np.vdot(coeff, coeff).real) for coeff in coeffs)


def measurement_probabilities(state: PureState, qubit: int, basis: int) -> tuple[float, float]:
    """Born-rule outcome probabilities (p0, p1) for measuring one qubit in basis code `basis`."""
    return _overlaps(state, qubit, basis)[2]


def collapse(pair: PureState, qubit: int, basis: int, u: float) -> tuple[int, PureState]:
    """Measure one qubit in basis code `basis` at the uniform draw u: (outcome, post-state).

    `pair` may also be a one-qubit register (qubit 0). The outcome is 0 if
    u < p0, else 1, and the kept branch is renormalized. Only an outcome
    whose probability exceeds NORM_TOL can be picked: a certain outcome's
    float probability can fall a few ulp short of 1, and the draw must not
    land in that rounding gap.
    """
    eig, coeffs, weights = _overlaps(pair, qubit, basis)
    if weights[1] <= NORM_TOL:
        outcome = 0
    elif weights[0] <= NORM_TOL:
        outcome = 1
    else:
        outcome = 0 if u < weights[0] else 1
    post = np.outer(eig[outcome], coeffs[outcome] / math.sqrt(weights[outcome]))
    return outcome, PureState(pair.num_qubits, _from_front_axis(post, qubit))


def collapse_qubit(qubit: PureState, basis: int, u: float) -> tuple[int, PureState]:
    """`collapse` of a one-qubit register: (outcome, post-measurement qubit)."""
    return collapse(qubit, 0, basis, u)


def decoys_intact(plan: Sequence[int], arrived: Sequence[PureState]) -> bool:
    """Always False: the dense algebra measures every decoy."""
    return False


def bell_probabilities(pair: PureState) -> list[float]:
    """Born-rule probabilities of the four Bell outcomes on a pair, in code order."""
    if pair.num_qubits != 2:
        raise ValueError(f"bell measurement needs a pair, got a {pair.num_qubits}-qubit state")
    overlaps = _BELL_BASIS_CONJ @ pair.amplitudes.reshape(4, 1)
    return (np.abs(overlaps) ** 2).sum(axis=1).tolist()


def bell_outcome(pair: PureState, u: float) -> int:
    """Bell outcome code (2x + y) at the uniform draw u.

    The draw picks the outcome from the cumulative Born probabilities in
    code order; as in `collapse`, only an outcome whose probability exceeds
    NORM_TOL can be picked.
    """
    cumulative = 0.0
    for code, probability in enumerate(bell_probabilities(pair)):
        cumulative += probability
        if probability > NORM_TOL:
            last_possible = code
            if u < cumulative:
                return code
    return last_possible


def equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """True iff the states differ only by a global phase (|<a|b>| >= 1 - tol)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"cannot compare states on {a.num_qubits} and {b.num_qubits} qubits"
        )
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1 - tol)
