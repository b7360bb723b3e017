"""Distribution-phase tests: decoy plumbing, key algebra, honest end-to-end runs."""

import itertools
import math

import numpy as np
import pytest

from qsschain import protocol, qcore
from qsschain.config import ScenarioConfig
from qsschain.protocol import (
    DecoyQubit,
    DesyncError,
    PairQubit,
    ParticipantKey,
    TRAVELING_QUBIT,
)
from qsschain.qcore import Basis, BellLabel, PauliKey

ALL_LABELS = [BellLabel(x, y) for x in (0, 1) for y in (0, 1)]
ALL_KEYS = [PauliKey(u, v) for u in (0, 1) for v in (0, 1)]


def xor_total(keys):
    total = PauliKey(0, 0)
    for key in keys:
        total = total ^ key
    return total


class TestPrepare:
    def test_positions_and_states(self):
        records = protocol.prepare_epr_sequence(3, np.random.default_rng(0))
        assert [r.position for r in records] == [1, 2, 3]
        for record in records:
            assert record.effective_label == record.prepared
            assert qcore.equal_up_to_phase(record.pair_state, qcore.bell_state(record.prepared))

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            protocol.prepare_epr_sequence(0, np.random.default_rng(0))

    def test_seed_reproduces_labels(self):
        first = protocol.prepare_epr_sequence(32, np.random.default_rng(41))
        second = protocol.prepare_epr_sequence(32, np.random.default_rng(41))
        assert [r.prepared for r in first] == [r.prepared for r in second]

    def test_labels_cover_all_four(self):
        records = protocol.prepare_epr_sequence(200, np.random.default_rng(1))
        assert {tuple(r.prepared) for r in records} == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestDecoyPlanning:
    @pytest.mark.parametrize("seq_len,d", [(0, 1), (5, 0), (5, 3), (1, 8)])
    def test_layout_shape(self, seq_len, d):
        layout, decoys = protocol.insert_decoys(seq_len, d, np.random.default_rng(2))
        assert len(layout) == seq_len + d
        assert sum(layout) == d == len(decoys)
        assert [rec.insert_position for rec in decoys] == sorted(
            i for i, flag in enumerate(layout) if flag
        )

    def test_preparations_cover_all_four_states(self):
        _, decoys = protocol.insert_decoys(0, 400, np.random.default_rng(3))
        seen = {(rec.basis, rec.value) for rec in decoys}
        assert seen == {(b, v) for b in (Basis.Z, Basis.X) for v in (0, 1)}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            protocol.insert_decoys(-1, 2, np.random.default_rng(0))


class TestWireAssembly:
    def _payload(self, m, rng):
        return [
            PairQubit(r, TRAVELING_QUBIT) for r in protocol.prepare_epr_sequence(m, rng)
        ]

    def test_roundtrip_preserves_payload_order(self):
        rng = np.random.default_rng(4)
        payload = self._payload(6, rng)
        layout, decoys = protocol.insert_decoys(6, 4, rng)
        wire = protocol.assemble_wire(layout, decoys, payload)
        assert len(wire) == 10
        assert protocol.strip_decoys(wire) == payload

    def test_layout_mismatch_raises(self):
        rng = np.random.default_rng(5)
        payload = self._payload(2, rng)
        layout, decoys = protocol.insert_decoys(2, 2, rng)
        with pytest.raises(DesyncError):
            protocol.assemble_wire(layout, decoys[:1], payload)
        with pytest.raises(DesyncError):
            protocol.assemble_wire(layout, decoys, payload[:1])

    def test_untampered_decoys_verify_clean(self):
        rng = np.random.default_rng(6)
        payload = self._payload(4, rng)
        layout, decoys = protocol.insert_decoys(4, 16, rng)
        wire = protocol.assemble_wire(layout, decoys, payload)
        errors, passed = protocol.verify_decoys(decoys, wire, 0.0, rng)
        assert (errors, passed) == (0, True)

    def test_tampered_decoy_is_caught(self):
        rng = np.random.default_rng(7)
        layout, decoys = protocol.insert_decoys(0, 1, rng)
        wire = protocol.assemble_wire(layout, decoys, [])
        particle = wire[0]
        assert isinstance(particle, DecoyQubit)
        # flip the decoy to the orthogonal state in its preparation basis
        particle.state = qcore.eigenstate(decoys[0].basis, decoys[0].value ^ 1)
        errors, passed = protocol.verify_decoys(decoys, wire, 0.0, rng)
        assert (errors, passed) == (1, False)

    def test_threshold_semantics(self):
        rng = np.random.default_rng(8)
        layout, decoys = protocol.insert_decoys(0, 4, rng)
        wire = protocol.assemble_wire(layout, decoys, [])
        wire[0].state = qcore.eigenstate(decoys[0].basis, decoys[0].value ^ 1)
        errors, passed = protocol.verify_decoys(decoys, wire, 0.25, rng)
        assert errors == 1 and passed  # 1/4 <= threshold

    def test_no_decoys_passes(self):
        errors, passed = protocol.verify_decoys([], [], 0.0, np.random.default_rng(0))
        assert (errors, passed) == (0, True)

    def test_missing_decoy_desyncs(self):
        rng = np.random.default_rng(9)
        payload = self._payload(1, rng)
        layout, decoys = protocol.insert_decoys(1, 1, rng)
        wire = protocol.assemble_wire(layout, decoys, payload)
        swapped = [wire[1], wire[0]]
        with pytest.raises(DesyncError):
            protocol.verify_decoys(decoys, swapped, 0.0, rng)


class TestEncodeKey:
    def test_zero_keys_are_identity(self):
        rng = np.random.default_rng(10)
        records = protocol.prepare_epr_sequence(4, rng)
        before = [r.pair_state.amplitudes.copy() for r in records]
        protocol.encode_key(records, ParticipantKey(1, [PauliKey(0, 0)] * 4))
        for record, amps in zip(records, before):
            np.testing.assert_allclose(record.pair_state.amplitudes, amps)
            assert record.effective_label == record.prepared

    def test_bit_flip_key_shifts_x(self):
        record = protocol.EprRecord(1, BellLabel(0, 0), qcore.bell_state(BellLabel(0, 0)))
        protocol.encode_key([record], ParticipantKey(1, [PauliKey(1, 0)]))
        assert record.effective_label == BellLabel(1, 0)
        assert qcore.equal_up_to_phase(record.pair_state, qcore.bell_state(BellLabel(1, 0)))

    def test_double_encode_is_involution(self):
        rng = np.random.default_rng(11)
        records = protocol.prepare_epr_sequence(3, rng)
        keys = ParticipantKey(1, [PauliKey(1, 1), PauliKey(0, 1), PauliKey(1, 0)])
        protocol.encode_key(records, keys)
        protocol.encode_key(records, keys)
        for record in records:
            assert record.effective_label == record.prepared
            assert qcore.equal_up_to_phase(record.pair_state, qcore.bell_state(record.prepared))

    def test_key_count_mismatch(self):
        records = protocol.prepare_epr_sequence(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            protocol.encode_key(records, ParticipantKey(1, [PauliKey(0, 0)]))


class TestExtractSecret:
    def test_frozen_examples(self):
        assert protocol.extract_secret([BellLabel(1, 0)], [BellLabel(0, 0)]) == [1, 0]
        assert protocol.extract_secret(
            [BellLabel(0, 1), BellLabel(1, 1)], [BellLabel(0, 1), BellLabel(0, 0)]
        ) == [0, 0, 1, 1]

    def test_matches_three_key_xor(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prepared = BellLabel(int(rng.integers(2)), int(rng.integers(2)))
            keys = [
                PauliKey(int(rng.integers(2)), int(rng.integers(2))) for _ in range(3)
            ]
            total = xor_total(keys)
            readout = qcore.pauli_shift_label(prepared, total)
            assert protocol.extract_secret([prepared], [readout]) == [total.u, total.v]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            protocol.extract_secret([BellLabel(0, 0)], [])


class TestDeduceParity:
    def test_frozen_cases(self):
        assert protocol.deduce_parity(BellLabel(0, 0), PauliKey(0, 0), Basis.Z) == 0
        assert protocol.deduce_parity(BellLabel(1, 0), PauliKey(0, 1), Basis.Z) == 1
        assert protocol.deduce_parity(BellLabel(1, 0), PauliKey(0, 1), Basis.X) == 1

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("total", ALL_KEYS)
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_all_32_cases_against_state_statistics(self, label, total, basis):
        """Brute-force both-qubit outcome parity of the encoded pair."""
        state = qcore.apply_pauli(qcore.bell_state(label), 1, total)
        parity_prob = {0: 0.0, 1: 0.0}
        for a, b in itertools.product((0, 1), repeat=2):
            projector = np.kron(
                qcore.eigenstate(basis, a).amplitudes,
                qcore.eigenstate(basis, b).amplitudes,
            )
            parity_prob[a ^ b] += abs(np.vdot(projector, state.amplitudes)) ** 2
        rule = protocol.deduce_parity(label, total, basis)
        assert parity_prob[rule] == pytest.approx(1.0, abs=1e-9)


class TestImprovedCheck:
    def _setup(self, m, n_participants, rng):
        records = protocol.prepare_epr_sequence(m, rng)
        keys = []
        for owner in range(1, n_participants + 1):
            bits = rng.integers(0, 2, size=(m, 2))
            key = ParticipantKey(owner, [PauliKey(int(u), int(v)) for u, v in bits])
            protocol.encode_key(records, key)
            keys.append(key)
        return records, keys

    def test_honest_pairs_always_match(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            records, keys = self._setup(8, 3, rng)
            result = protocol.improved_check(records, 0.5, keys, rng)
            assert result.passed
            assert len(result.entries) == 4
            for entry in result.entries:
                assert entry.matched
                assert entry.total_published == xor_total(key for _, key in entry.announced)

    @pytest.mark.parametrize(
        "m,fraction,expected", [(8, 0.5, 4), (5, 0.5, 3), (8, 1.0, 8), (8, 0.01, 1)]
    )
    def test_sample_size_is_ceil(self, m, fraction, expected):
        rng = np.random.default_rng(13)
        records, keys = self._setup(m, 2, rng)
        result = protocol.improved_check(records, fraction, keys, rng)
        assert len(result.entries) == expected
        assert math.ceil(fraction * m) == expected

    def test_fraction_validation(self):
        rng = np.random.default_rng(14)
        records, keys = self._setup(4, 2, rng)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                protocol.improved_check(records, bad, keys, rng)

    def test_sampled_pairs_are_consumed(self):
        rng = np.random.default_rng(15)
        records, keys = self._setup(4, 2, rng)
        result = protocol.improved_check(records, 1.0, keys, rng)
        assert sorted(result.sampled_positions) == [1, 2, 3, 4]
        for record in records:
            assert record.effective_label is None

    def test_substituted_fresh_qubit_mismatches_half(self):
        """A traveling particle replaced by an uncorrelated |0> fails half the time.

        Oracle: Born statistics of |prepared pair> (x) |0> with Alice's two
        measurements on qubits 0 and 2 give parity match probability 1/2 in
        both bases, averaged over preparations and published totals.
        """
        mismatches = 0
        trials = 2000
        rng = np.random.default_rng(16)
        for _ in range(trials):
            records, keys = self._setup(1, 2, np.random.default_rng(int(rng.integers(2**32))))
            record = records[0]
            # substitute: the genuine traveling half is gone, a fresh |0> arrives
            retained_probs = qcore.measurement_probabilities(
                record.pair_state, protocol.RETAINED_QUBIT, Basis.Z
            )
            record.pair_state = qcore.PureState(
                2,
                np.kron(
                    qcore.eigenstate(Basis.Z, 0 if rng.random() < retained_probs[0] else 1).amplitudes,
                    qcore.eigenstate(Basis.Z, 0).amplitudes,
                ),
            )
            result = protocol.improved_check(records, 1.0, keys, rng)
            mismatches += 0 if result.passed else 1
        rate = mismatches / trials
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / trials)

    def test_z_collapsed_pair_mismatches_quarter(self):
        """An intercept-style Z collapse leaves Z parity intact, X parity random."""
        mismatches = 0
        trials = 4000
        rng = np.random.default_rng(17)
        for _ in range(trials):
            records, keys = self._setup(1, 2, np.random.default_rng(int(rng.integers(2**32))))
            PairQubit(records[0], TRAVELING_QUBIT).measure(Basis.Z, rng)
            result = protocol.improved_check(records, 1.0, keys, rng)
            mismatches += 0 if result.passed else 1
        rate = mismatches / trials
        assert abs(rate - 0.25) < 3 * math.sqrt(0.25 * 0.75 / trials)


class TestRunDistribution:
    def test_honest_run_structure(self):
        config = ScenarioConfig(n=3, m=8, d=4, trials=1, seed=100)
        transcript = protocol.run_distribution(config, np.random.default_rng(100))
        assert len(transcript.participant_keys) == 3
        assert [c.hop for c in transcript.decoy_checks] == [0, 1, 2, 3]
        assert all(c.decoy_count == 4 and c.error_count == 0 for c in transcript.decoy_checks)
        assert not transcript.detected
        assert transcript.improved_check is None
        assert transcript.payload_positions == list(range(1, 9))
        assert len(transcript.extracted_secret) == 16
        assert transcript.attacker_secret is None

    @pytest.mark.parametrize("check", ["original", "improved"])
    @pytest.mark.parametrize("seed", range(8))
    def test_honest_secret_is_key_xor(self, check, seed):
        config = ScenarioConfig(n=4, m=6, d=3, check=check, trials=1, seed=seed)
        transcript = protocol.run_distribution(config, np.random.default_rng(seed))
        assert not transcript.detected
        expected = []
        for position in transcript.payload_positions:
            total = xor_total(
                p.keys[position - 1] for p in transcript.participant_keys
            )
            expected.extend((total.u, total.v))
        assert transcript.extracted_secret == expected

    def test_improved_check_consumes_sampled_positions(self):
        config = ScenarioConfig(n=2, m=8, d=2, check="improved", trials=1, seed=5)
        transcript = protocol.run_distribution(config, np.random.default_rng(5))
        sampled = set(transcript.improved_check.sampled_positions)
        assert len(sampled) == 4
        assert set(transcript.payload_positions) == set(range(1, 9)) - sampled
        assert len(transcript.extracted_secret) == 8

    def test_full_fraction_leaves_no_payload(self):
        config = ScenarioConfig(
            n=2, m=4, d=2, check="improved", check_fraction=1.0, trials=1, seed=6
        )
        transcript = protocol.run_distribution(config, np.random.default_rng(6))
        assert transcript.payload_positions == []
        assert transcript.extracted_secret == []
        assert transcript.improved_check.passed

    def test_fast_path_predicts_readout_when_untouched(self):
        for seed in range(10):
            config = ScenarioConfig(n=3, m=5, d=2, trials=1, seed=seed)
            transcript = protocol.run_distribution_dense(config, np.random.default_rng(seed))
            assert transcript.predicted_readout == transcript.readout

    def test_same_generator_state_reproduces_run(self):
        config = ScenarioConfig(n=3, m=8, d=4, attack="collusion", trials=1, seed=9)
        first = protocol.run_distribution(config, np.random.default_rng(9))
        second = protocol.run_distribution(config, np.random.default_rng(9))
        assert first.prepared == second.prepared
        assert first.readout == second.readout
        assert first.extracted_secret == second.extracted_secret
        assert first.attacker_secret == second.attacker_secret

    def test_invalid_config_rejected(self):
        config = ScenarioConfig(n=1)
        with pytest.raises(ValueError):
            protocol.run_distribution(config, np.random.default_rng(0))
