"""State-engine tests: frozen oracle values plus exhaustive algebra tables.

Derived expectations are cross-checked in-test against explicit kron-matrix
oracles that do not share code with the engine under test.
"""

import itertools
import math

import numpy as np
import pytest

from qsschain import labels, qcore
from qsschain.labels import X as X_BASIS, Z as Z_BASIS
from qsschain.qcore import PureState

SQ2 = 1 / math.sqrt(2)

# Bell labels (x, y) and Pauli keys (u, v) as bit pairs; qcore takes their codes 2a + b
ALL_LABELS = [(x, y) for x in (0, 1) for y in (0, 1)]
ALL_KEYS = [(u, v) for u in (0, 1) for v in (0, 1)]

# independent oracle pieces: explicit matrices, qubit 0 = most significant bit
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def oracle_pauli(key):
    u, v = key
    mat = np.eye(2, dtype=complex)
    if v:
        mat = Z @ mat
    if u:
        mat = X @ mat
    return mat


def oracle_on_second(key):
    return np.kron(I2, oracle_pauli(key))


def code(bits):
    """Code 2a + b of a Bell label (a, b) or a Pauli key (a, b)."""
    return 2 * bits[0] + bits[1]


def bell(label):
    return qcore.bell_state(code(label))


def eigen(basis, value):
    """The eigenstate of basis code `basis` with outcome `value`, by its qubit code."""
    return qcore.eigenstate(2 * basis + value)


class TestBellStates:
    """The four Bell states have the frozen amplitude vectors."""

    def test_frozen_amplitudes(self):
        expected = {
            (0, 0): [SQ2, 0, 0, SQ2],
            (0, 1): [SQ2, 0, 0, -SQ2],
            (1, 0): [0, SQ2, SQ2, 0],
            (1, 1): [0, SQ2, -SQ2, 0],
        }
        for label, amps in expected.items():
            state = bell(label)
            np.testing.assert_allclose(state.amplitudes, amps, atol=1e-12)

    def test_normalized(self):
        for label in ALL_LABELS:
            amps = bell(label).amplitudes
            assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-9)

    def test_invalid_label_rejected(self):
        """A code outside 0..3, even a negative one that would index a row, is refused."""
        for bad in (4, -1):
            with pytest.raises(ValueError, match="bell code"):
                qcore.bell_state(bad)


class TestPureState:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 0.0]))

    def test_three_qubits_rejected(self):
        """A register is one decoy qubit or one pair, nothing larger."""
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            PureState(3, amps)


class TestPauliEncoding:
    """U_{u,v} = X^u Z^v with Z applied first."""

    def test_identity_key_leaves_state(self):
        state = bell((1, 0))
        out = qcore.pauli(state, code((0, 0)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_phase_flip_on_plus(self):
        """Z flips a traveling |+> to |->; the retained |0> is untouched."""
        zero = eigen(Z_BASIS, 0).amplitudes
        zero_plus = PureState(2, np.kron(zero, eigen(X_BASIS, 0).amplitudes))
        out = qcore.pauli(zero_plus, code((0, 1)))
        np.testing.assert_allclose(out.amplitudes, np.kron(zero, eigen(X_BASIS, 1).amplitudes))

    def test_key_11_on_traveling_qubit_of_psi00(self):
        """Frozen case: (1,1) on the second qubit maps Psi_00 to Psi_11."""
        out = qcore.pauli(bell((0, 0)), code((1, 1)))
        assert qcore.equal_up_to_phase(out, bell((1, 1)))
        oracle = oracle_on_second((1, 1)) @ bell((0, 0)).amplitudes
        assert abs(np.vdot(oracle, out.amplitudes)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_agrees_with_kron_oracle(self, label, key):
        out = qcore.pauli(bell(label), code(key))
        oracle = oracle_on_second(key) @ bell(label).amplitudes
        np.testing.assert_allclose(out.amplitudes, oracle, atol=1e-12)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = PureState(2, raw / np.linalg.norm(raw))
            out = qcore.pauli(state, int(rng.integers(4)))
            norm = np.vdot(out.amplitudes, out.amplitudes).real
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_qubit_out_of_range(self):
        """A lone qubit has no traveling qubit 1 to encode."""
        with pytest.raises(ValueError, match="out of range"):
            qcore.pauli(eigen(X_BASIS, 0), code((0, 1)))

    def test_invalid_key_bits(self):
        for bad in (4, -1):
            with pytest.raises(ValueError, match="key code"):
                qcore.pauli(bell((0, 0)), bad)


class TestLabelShift:
    """The label engine's Pauli rule on Bell codes is the XOR rule of the state engine."""

    def test_frozen_examples(self):
        assert labels.pauli(code((0, 0)), code((1, 0))) == code((1, 0))
        assert labels.pauli(code((1, 0)), code((1, 1))) == code((0, 1))

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_all_16_cases_match_state_vectors(self, label, key):
        shifted_state = qcore.pauli(bell(label), code(key))
        predicted = labels.pauli(code(label), code(key))
        assert qcore.equal_up_to_phase(shifted_state, qcore.bell_state(predicted), tol=1e-9)

    @pytest.mark.parametrize("key1", ALL_KEYS)
    @pytest.mark.parametrize("key2", ALL_KEYS)
    def test_composition_law(self, key1, key2):
        """Two encodings compose to the XOR key on every Bell input, up to phase."""
        combined = (key1[0] ^ key2[0], key1[1] ^ key2[1])
        for label in ALL_LABELS:
            sequential = qcore.pauli(qcore.pauli(bell(label), code(key1)), code(key2))
            direct = qcore.pauli(bell(label), code(combined))
            assert qcore.equal_up_to_phase(sequential, direct, tol=1e-9)
            assert labels.pauli(labels.pauli(code(label), code(key1)), code(key2)) == (
                labels.pauli(code(label), code(combined))
            )


class TestMeasurement:
    def test_z_eigenstate_is_certain(self):
        state = eigen(Z_BASIS, 0)
        for seed in range(10):
            u = np.random.default_rng(seed).random()
            outcome, post = qcore.collapse_qubit(state, Z_BASIS, u)
            assert outcome == 0
            np.testing.assert_allclose(post.amplitudes, state.amplitudes)

    def test_plus_in_z_is_unbiased(self):
        state = eigen(X_BASIS, 0)
        probs = qcore.measurement_probabilities(state, 0, Z_BASIS)
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        counts = 0
        trials = 4000
        rng = np.random.default_rng(7)
        for _ in range(trials):
            outcome, _ = qcore.collapse_qubit(state, Z_BASIS, rng.random())
            counts += outcome
        se = math.sqrt(0.25 / trials)
        assert abs(counts / trials - 0.5) < 3 * se

    def test_bell_pair_collapse_is_correlated(self):
        """Measuring the first qubit of Psi_00 in Z leaves |00> or |11>."""
        seen = set()
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            outcome, post = qcore.collapse(bell((0, 0)), 0, Z_BASIS, u)
            seen.add(outcome)
            expected = np.zeros(4, dtype=complex)
            expected[outcome * 3] = 1.0  # |00> at index 0, |11> at index 3
            np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)
        assert seen == {0, 1}

    @pytest.mark.parametrize("basis", [Z_BASIS, X_BASIS])
    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("qubit", [0, 1])
    def test_probabilities_sum_to_one(self, basis, label, qubit):
        probs = qcore.measurement_probabilities(bell(label), qubit, basis)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(3)
        state = bell((1, 0))
        outcome, post = qcore.collapse(state, 1, X_BASIS, rng.random())
        again, post2 = qcore.collapse(post, 1, X_BASIS, rng.random())
        assert again == outcome
        np.testing.assert_allclose(post2.amplitudes, post.amplitudes, atol=1e-12)

    def test_collapse_preserves_norm(self):
        rng = np.random.default_rng(11)
        for label in ALL_LABELS:
            _, post = qcore.collapse(bell(label), 0, X_BASIS, rng.random())
            norm = np.vdot(post.amplitudes, post.amplitudes).real
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_invalid_codes_rejected(self):
        for bad in (2, -1):
            with pytest.raises(ValueError, match="basis code"):
                qcore.collapse(bell((0, 0)), 0, bad, 0.5)
            with pytest.raises(ValueError, match="basis code"):
                qcore.measurement_probabilities(bell((0, 0)), 0, bad)
        for bad in (4, -1):
            with pytest.raises(ValueError, match="qubit code"):
                qcore.eigenstate(bad)


class TestBellMeasure:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_eigenstate_is_deterministic(self, label):
        probs = qcore.bell_probabilities(bell(label))
        assert probs[code(label)] == pytest.approx(1.0, abs=1e-12)
        for seed in range(5):
            u = np.random.default_rng(seed).random()
            assert qcore.bell_outcome(bell(label), u) == code(label)

    def test_product_00_frozen_probabilities(self):
        """|00> overlaps only the two parity-0 Bell states, each with 1/2."""
        probs = qcore.bell_probabilities(PureState(2, np.array([1, 0, 0, 0])))
        assert probs[code((0, 0))] == pytest.approx(0.5, abs=1e-12)
        assert probs[code((0, 1))] == pytest.approx(0.5, abs=1e-12)
        assert probs[code((1, 0))] == pytest.approx(0.0, abs=1e-12)
        assert probs[code((1, 1))] == pytest.approx(0.0, abs=1e-12)
        # kron oracle: amplitudes of |00> against explicit Bell vectors
        v00 = np.array([1, 0, 0, 0], dtype=complex)
        for label in ALL_LABELS:
            overlap = abs(np.vdot(bell(label).amplitudes, v00)) ** 2
            assert probs[code(label)] == pytest.approx(overlap, abs=1e-12)

    def test_product_00_sampling(self):
        rng = np.random.default_rng(5)
        product_00 = PureState(2, np.array([1, 0, 0, 0]))
        outcomes = [qcore.bell_outcome(product_00, rng.random()) for _ in range(2000)]
        assert set(outcomes) == {code((0, 0)), code((0, 1))}
        frac = sum(1 for o in outcomes if o == code((0, 0))) / len(outcomes)
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 2000)

    def test_single_qubit_register_rejected(self):
        decoy = eigen(Z_BASIS, 0)
        with pytest.raises(ValueError, match="needs a pair"):
            qcore.bell_outcome(decoy, 0.0)
        with pytest.raises(ValueError, match="needs a pair"):
            qcore.bell_probabilities(decoy)


# the smallest and the largest value `Generator.random()` can return
EDGE_DRAWS = [0.0, 1.0 - 2.0**-53]


class TestCertainOutcomesAtEdgeDraws:
    """A certain outcome is picked at every draw, even where float rounding
    leaves its probability a few ulp short of 1."""

    @pytest.mark.parametrize("u", EDGE_DRAWS)
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_bell_measure_of_a_bell_state(self, label, u):
        assert qcore.bell_outcome(bell(label), u) == code(label)

    @pytest.mark.parametrize("u", EDGE_DRAWS)
    @pytest.mark.parametrize("basis", [Z_BASIS, X_BASIS])
    @pytest.mark.parametrize("value", [0, 1])
    def test_eigenstate_in_its_own_basis(self, basis, value, u):
        state = eigen(basis, value)
        outcome, post = qcore.collapse_qubit(state, basis, u)
        assert outcome == value
        assert qcore.equal_up_to_phase(post, state)


class TestEqualUpToPhase:
    def test_global_phase_ignored(self):
        state = bell((0, 1))
        flipped = PureState(2, -state.amplitudes)
        rotated = PureState(2, np.exp(1j * 0.7) * state.amplitudes)
        assert qcore.equal_up_to_phase(state, flipped)
        assert qcore.equal_up_to_phase(state, rotated)

    def test_orthogonal_states_differ(self):
        assert not qcore.equal_up_to_phase(bell((0, 0)), bell((1, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.equal_up_to_phase(eigen(Z_BASIS, 0), bell((0, 0)))
