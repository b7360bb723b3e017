"""Distribution-phase tests: decoy checks, key algebra, honest end-to-end runs."""

import dataclasses
import hashlib
import collections
import itertools
import math

import numpy as np
import pytest

from qsschain import labels, protocol, qcore
from qsschain.config import ATTACK_KINDS, CHECK_KINDS, ConfigError, ScenarioConfig
from qsschain.protocol import (
    BASES, BELL_LABELS, KEYS, TRAVELING_QUBIT, Basis, BellLabel, ParticipantKey, PauliKey
)

ALL_LABELS = list(BELL_LABELS)
ALL_KEYS = list(KEYS)
ALGEBRAS = [pytest.param(labels, id="labels"), pytest.param(qcore, id="dense")]


def key_codes(keys):
    return [2 * u + v for u, v in keys]


def draws(rng, count=1024):
    """A `Draws` over the next `count` raw words of the numpy generator `rng`."""
    return protocol.Draws(rng.bit_generator.random_raw(count).tolist())


def eigen(basis, value):
    """The eigenstate of `basis` with outcome `value`, by its qubit code."""
    return qcore.eigenstate(2 * BASES.index(basis) + value)


class TestPrepare:
    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_registers_read_out_as_their_codes(self, alg):
        pairs = alg.bell_pairs(range(4))
        assert [alg.bell_outcome(pair, 0.5) for pair in pairs] == [0, 1, 2, 3]

    def test_states_match_labels(self):
        """|Psi_{x,y}> = (|0 x> + (-1)^y |1 not-x>) / sqrt(2)."""
        for (x, y), pair in zip(BELL_LABELS, qcore.bell_pairs(range(4))):
            expected = np.zeros(4)
            expected[x], expected[3 - x] = 1, (-1) ** y
            np.testing.assert_allclose(pair.amplitudes, expected / math.sqrt(2), atol=1e-12)

    def test_seed_reproduces_labels(self):
        config = ScenarioConfig(n=2, m=32, d=0, trials=1, seed=41)
        first = protocol.run_distribution_dense(config, np.random.default_rng(41)).prepared
        second = protocol.run_distribution_dense(config, np.random.default_rng(41)).prepared
        assert first == second

    def test_labels_cover_all_four(self):
        config = ScenarioConfig(n=2, m=200, d=0, trials=1, seed=1)
        prepared = protocol.run_distribution_dense(config, np.random.default_rng(1)).prepared
        assert {tuple(label) for label in prepared} == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestDecoyPlanning:
    @pytest.mark.parametrize("seq_len,d", [(0, 1), (5, 0), (5, 3), (1, 8)])
    def test_layout_shape(self, seq_len, d):
        slots, plan = protocol.insert_decoys(seq_len, d, draws(np.random.default_rng(2)))
        assert len(slots) == len(plan) == d
        assert slots == sorted(set(slots))
        assert all(0 <= slot < seq_len + d for slot in slots)

    def test_preparations_cover_all_four_states(self):
        _, plan = protocol.insert_decoys(0, 400, draws(np.random.default_rng(3)))
        decoys = qcore.eigenstates(plan)
        seen = set()
        for code, decoy in zip(plan, decoys):
            basis, value = code >> 1, code & 1
            probs = qcore.measurement_probabilities(decoy, 0, basis)
            assert probs[value] == pytest.approx(1.0, abs=1e-12)
            seen.add((BASES[basis], value))
        assert seen == {(b, v) for b in (Basis.Z, Basis.X) for v in (0, 1)}

    def test_seed_reproduces_plan(self):
        first = protocol.insert_decoys(6, 5, draws(np.random.default_rng(42)))
        second = protocol.insert_decoys(6, 5, draws(np.random.default_rng(42)))
        assert first == second


@pytest.mark.parametrize("alg", ALGEBRAS)
class TestDecoyVerification:
    def test_untampered_decoys_verify_clean(self, alg):
        source = draws(np.random.default_rng(6))
        _, plan = protocol.insert_decoys(4, 16, source)
        assert protocol.verify_decoys(alg, plan, alg.eigenstates(plan), source) == 0

    def test_tampered_decoy_is_caught(self, alg):
        source = draws(np.random.default_rng(7))
        _, plan = protocol.insert_decoys(0, 1, source)
        # the decoy arrives in the orthogonal state of its preparation basis
        arrived = alg.eigenstates([plan[0] ^ 1])
        assert protocol.verify_decoys(alg, plan, arrived, source) == 1

    def test_error_count_counts_each_flipped_decoy(self, alg):
        source = draws(np.random.default_rng(8))
        _, plan = protocol.insert_decoys(3, 8, source)
        flipped = (0, 2, 5)
        arrived = alg.eigenstates([code ^ (i in flipped) for i, code in enumerate(plan)])
        assert protocol.verify_decoys(alg, plan, arrived, source) == len(flipped)

    def test_no_decoys_passes(self, alg):
        assert protocol.verify_decoys(alg, [], [], draws(np.random.default_rng(0))) == 0

    def test_arrived_count_must_match(self, alg):
        source = draws(np.random.default_rng(9))
        _, plan = protocol.insert_decoys(1, 2, source)
        with pytest.raises(ValueError):
            protocol.verify_decoys(alg, plan, alg.eigenstates(plan)[:1], source)


class TestEncodeKey:
    def test_zero_keys_are_identity(self):
        pairs = qcore.bell_pairs([0, 1, 2, 3])
        encoded = protocol.encode_key(qcore, pairs, [0] * 4)
        for before, after in zip(pairs, encoded):
            np.testing.assert_allclose(after.amplitudes, before.amplitudes)

    def test_bit_flip_key_shifts_x(self):
        [encoded] = protocol.encode_key(qcore, qcore.bell_pairs([0]), key_codes([PauliKey(1, 0)]))
        assert qcore.equal_up_to_phase(encoded, qcore.bell_state(2))  # |Psi_10>

    def test_double_encode_is_involution(self):
        codes = [3, 0, 2]
        keys = key_codes([PauliKey(1, 1), PauliKey(0, 1), PauliKey(1, 0)])
        once = protocol.encode_key(qcore, qcore.bell_pairs(codes), keys)
        twice = protocol.encode_key(qcore, once, keys)
        for code, pair in zip(codes, twice):
            assert qcore.equal_up_to_phase(pair, qcore.bell_state(code))

    @pytest.mark.parametrize("alg", ALGEBRAS)
    def test_key_count_mismatch(self, alg):
        with pytest.raises(ValueError):
            protocol.encode_key(alg, alg.bell_pairs([0, 1]), [0])


class TestKeyTotal:
    def test_no_participants_is_the_identity_key(self):
        assert protocol.key_total([], 1) == PauliKey(0, 0)

    def test_positions_are_one_based(self):
        keys = [
            ParticipantKey([PauliKey(1, 0), PauliKey(0, 0), PauliKey(1, 1)]),
            ParticipantKey([PauliKey(1, 1), PauliKey(0, 1), PauliKey(1, 1)]),
        ]
        totals = [protocol.key_total(keys, position) for position in (1, 2, 3)]
        assert totals == [PauliKey(0, 1), PauliKey(0, 1), PauliKey(0, 0)]

    def test_participant_order_does_not_matter(self):
        rng = np.random.default_rng(18)
        keys = []
        for _ in range(4):
            bits = rng.integers(0, 2, size=(6, 2))
            keys.append(ParticipantKey([PauliKey(int(u), int(v)) for u, v in bits]))
        for position in range(1, 7):
            assert protocol.key_total(keys, position) == protocol.key_total(
                keys[::-1], position
            )


class TestExtractSecret:
    def test_frozen_examples(self):
        """Bell codes 2x + y: |Psi_10> read as |Psi_00> gives the bits (1, 0)."""
        assert protocol.extract_secret([2], [0]) == [1, 0]
        assert protocol.extract_secret([1, 3], [1, 0]) == [0, 0, 1, 1]

    def test_matches_three_key_xor(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prepared = BellLabel(int(rng.integers(2)), int(rng.integers(2)))
            keys = [
                PauliKey(int(rng.integers(2)), int(rng.integers(2))) for _ in range(3)
            ]
            total = protocol.key_total([ParticipantKey([key]) for key in keys], 1)
            code = 2 * prepared.x + prepared.y
            readout = code ^ (2 * total.u + total.v)
            assert protocol.extract_secret([code], [readout]) == [total.u, total.v]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            protocol.extract_secret([0], [])


class TestDeduceParity:
    def test_frozen_cases(self):
        """Bell code 2x + y, key code 2u + v, basis code 0 (Z) or 1 (X)."""
        assert protocol.deduce_parity(0, 0, labels.Z) == 0  # label (0,0), key (0,0)
        assert protocol.deduce_parity(2, 1, labels.Z) == 1  # label (1,0), key (0,1): x^u
        assert protocol.deduce_parity(2, 1, labels.X) == 1  # y^v

    @pytest.mark.parametrize("label", ALL_LABELS)
    @pytest.mark.parametrize("total", ALL_KEYS)
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_all_32_cases_against_state_statistics(self, label, total, basis):
        """Brute-force both-qubit outcome parity of the encoded pair."""
        state = qcore.pauli(qcore.bell_state(2 * label.x + label.y), 2 * total.u + total.v)
        parity_prob = {0: 0.0, 1: 0.0}
        for a, b in itertools.product((0, 1), repeat=2):
            projector = np.kron(eigen(basis, a).amplitudes, eigen(basis, b).amplitudes)
            parity_prob[a ^ b] += abs(np.vdot(projector, state.amplitudes)) ** 2
        rule = protocol.deduce_parity(
            2 * label.x + label.y, 2 * total.u + total.v, BASES.index(basis)
        )
        assert parity_prob[rule] == pytest.approx(1.0, abs=1e-9)


def recomputed_match(entry, prepared, keys):
    """Whether an entry's outcome parity is what `deduce_parity` gives for its key total."""
    total = 0
    for own in keys:
        total ^= own[entry.position - 1]
    basis = BASES.index(entry.basis)
    parity = protocol.deduce_parity(prepared[entry.position - 1], total, basis)
    return entry.x_outcome ^ entry.y_outcome == parity


class TestImprovedCheck:
    def _setup(self, m, n_participants, rng):
        """Encoded dense pairs, their Bell codes and the n x m grid of key codes."""
        codes = rng.integers(0, 4, size=m).tolist()
        pairs = qcore.bell_pairs(codes)
        keys = []
        for _ in range(n_participants):
            bits = rng.integers(0, 2, size=(m, 2))
            own = key_codes(bits.tolist())
            pairs = protocol.encode_key(qcore, pairs, own)
            keys.append(own)
        return pairs, codes, keys

    def test_honest_pairs_always_match(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pairs, prepared, keys = self._setup(8, 3, rng)
            result = protocol.improved_check(qcore, pairs, prepared, 4, keys, draws(rng))
            assert result.passed
            assert len(result.entries) == 4
            for entry in result.entries:
                assert recomputed_match(entry, prepared, keys)

    @pytest.mark.parametrize(
        "m,fraction,expected", [(8, 0.5, 4), (5, 0.5, 3), (8, 1.0, 8), (8, 0.01, 1)]
    )
    def test_sample_size_is_ceil(self, m, fraction, expected):
        config = ScenarioConfig(m=m, check="improved", check_fraction=fraction)
        assert protocol.sampled_pairs(config) == expected
        assert protocol.sampled_pairs(config.replace(check="original")) == 0
        rng = np.random.default_rng(13)
        pairs, prepared, keys = self._setup(m, 2, rng)
        result = protocol.improved_check(qcore, pairs, prepared, expected, keys, draws(rng))
        assert len(result.entries) == expected

    def test_sampled_pairs_are_consumed(self):
        rng = np.random.default_rng(15)
        pairs, prepared, keys = self._setup(4, 2, rng)
        result = protocol.improved_check(qcore, pairs, prepared, 4, keys, draws(rng))
        assert sorted(result.sampled_positions) == [1, 2, 3, 4]
        for entry in result.entries:
            measured = np.kron(
                eigen(entry.basis, entry.x_outcome).amplitudes,
                eigen(entry.basis, entry.y_outcome).amplitudes,
            )
            assert qcore.equal_up_to_phase(pairs[entry.position - 1], qcore.PureState(2, measured))

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
            pairs, prepared, keys = self._setup(
                1, 2, np.random.default_rng(int(rng.integers(2**32)))
            )
            # substitute: the genuine traveling half is gone, a fresh |0> arrives
            retained_probs = qcore.measurement_probabilities(
                pairs[0], protocol.RETAINED_QUBIT, labels.Z
            )
            pairs[0] = qcore.PureState(
                2,
                np.kron(
                    eigen(Basis.Z, 0 if rng.random() < retained_probs[0] else 1).amplitudes,
                    eigen(Basis.Z, 0).amplitudes,
                ),
            )
            result = protocol.improved_check(qcore, pairs, prepared, 1, keys, draws(rng))
            mismatches += 0 if result.passed else 1
        rate = mismatches / trials
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / trials)

    def test_z_collapsed_pair_mismatches_quarter(self):
        """An intercept-style Z collapse leaves Z parity intact, X parity random."""
        mismatches = 0
        trials = 4000
        rng = np.random.default_rng(17)
        for _ in range(trials):
            pairs, prepared, keys = self._setup(
                1, 2, np.random.default_rng(int(rng.integers(2**32)))
            )
            _, pairs[0] = qcore.collapse(pairs[0], TRAVELING_QUBIT, labels.Z, rng.random())
            result = protocol.improved_check(qcore, pairs, prepared, 1, keys, draws(rng))
            mismatches += 0 if result.passed else 1
        rate = mismatches / trials
        assert abs(rate - 0.25) < 3 * math.sqrt(0.25 * 0.75 / trials)


class TestDraws:
    """The draw rules, exactly, and the words a run takes."""

    WORDS = (0, 1, 2**11, 2**64 - 1)

    @pytest.mark.parametrize("population", range(7))
    def test_subset_is_exactly_uniform(self, population):
        """Every k-subset comes out k! times over the lowest word of each multiply-shift bucket.

        Member j takes t = (w * (j + 1)) >> 64, so w = ceil(t * 2**64 / (j + 1))
        is the lowest word giving t; every combination of one t per member
        runs once.
        """
        for count in range(population + 1):
            members = range(population - count, population)
            buckets = [[-(-t * 2**64 // (j + 1)) for t in range(j + 1)] for j in members]
            seen = collections.Counter()
            for words in itertools.product(*buckets):
                chosen = protocol.Draws(list(words)).subset(population, count)
                assert chosen == sorted(set(chosen)) and len(chosen) == count
                assert all(0 <= member < population for member in chosen)
                seen[tuple(chosen)] += 1
            assert sorted(seen) == list(itertools.combinations(range(population), count))
            assert set(seen.values()) == {math.factorial(count)}

    def test_codes_basis_and_uniforms_are_pinned(self):
        """Codes take 2 bits at a time from the bottom, the basis the top bit, a uniform 53 bits."""
        assert protocol.Draws(list(self.WORDS)).codes(128) == (
            [0] * 32 + [1] + [0] * 31 + [0] * 5 + [2] + [0] * 26 + [3] * 32
        )
        assert protocol.Draws([2**11]).codes(6) == [0, 0, 0, 0, 0, 2]
        source = protocol.Draws(list(self.WORDS))
        assert [source.basis() for _ in self.WORDS] == [0, 0, 0, 1]
        assert protocol.Draws(list(self.WORDS)).uniforms(4) == [0.0, 0.0, 2**-53, 1 - 2**-53]

    def test_each_method_takes_a_fixed_number_of_words(self):
        source = protocol.Draws(list(range(200)))
        source.codes(33)
        assert source.used == 2
        source.subset(10, 4)
        assert source.used == 6
        source.basis()
        assert source.used == 7
        source.uniforms(5)
        assert source.used == 12
        with pytest.raises(IndexError):
            source.uniforms(189)

    @pytest.mark.parametrize("alg", ALGEBRAS)
    @pytest.mark.parametrize("attack", ATTACK_KINDS)
    @pytest.mark.parametrize("check", CHECK_KINDS)
    def test_words_per_run_is_what_a_run_takes(self, alg, attack, check):
        """Both algebras take exactly `words_per_run(config)` words: no more, no fewer."""
        grid = itertools.product((0, 3), (0.25, 1.0), ((2, 1), (4, 2), (16, 64)))
        for seed, (d, fraction, (n, m)) in enumerate(grid):
            config = ScenarioConfig(
                n=n, m=m, d=d, attack=attack, check=check, check_fraction=fraction, seed=seed
            )
            words = protocol.words_per_run(config)
            source = draws(np.random.default_rng(seed), words)
            protocol._run(alg, config, source)
            assert source.used == words
            with pytest.raises(IndexError):
                protocol._run(alg, config, draws(np.random.default_rng(seed), words - 1))


TRANSCRIPT_DIGESTS = {  # (attack, check): sha256 of 180 runs, the same on both algebras
    ("none", "original"): "6fba107dc31f3b7638ebf5a556c65aa10aaaf18a3ff7f4e56d06efc04cda2afa",
    ("none", "improved"): "8c59325d660b2f53b5d2b844ae9b245b3da2c4d3d8155f0d0806f07cf63809f7",
    ("collusion", "original"): "ebdf98cb1bead2f5f41e6381569c3b17f3b4be7a1d36396c9817fb29675d2b7a",
    ("collusion", "improved"): "f92d87e6a2942af1bc5ce2de1076abcc63be9cd995d7793fa2191624aed911a4",
    ("intercept_resend", "original"): (
        "55d3bc98dba919d676f79e2e07f83102bc17516e930f2e7183a78f683b26aaeb"
    ),
    ("intercept_resend", "improved"): (
        "bb9ad03356ff7f4e8bdf1527242ae18597e9f29afe83bab911c1fb37efdec9e6"
    ),
}


class TestRunDistribution:
    def test_honest_run_structure(self):
        config = ScenarioConfig(n=3, m=8, d=4, trials=1, seed=100)
        transcript = protocol.run_distribution(config, np.random.default_rng(100))
        assert len(transcript.participant_keys) == 3
        assert [c.hop for c in transcript.decoy_checks] == [0, 1, 2, 3]
        assert all(c.error_count == 0 and not c.attacked for c in transcript.decoy_checks)
        assert not transcript.detected
        assert transcript.improved_check is None
        assert transcript.payload_positions == list(range(1, 9))
        assert len(transcript.extracted_secret) == 16
        assert transcript.attacker_secret is None
        for position, code in zip(transcript.payload_positions, transcript.readout, strict=True):
            label = transcript.prepared[position - 1]
            total = protocol.key_total(transcript.participant_keys, position)
            assert code == (2 * label.x + label.y) ^ (2 * total.u + total.v)  # Bell codes

    def test_detection_is_a_recomputed_parity_mismatch(self):
        """With no decoys, an intercept-resend run is detected iff a sampled parity mismatches.

        The parity each entry should show is recomputed with `deduce_parity`
        from the transcript's prepared label and the key total at its
        position; both verdicts occur over the seeds.
        """
        verdicts = set()
        for seed in range(40):
            config = ScenarioConfig(
                n=3, m=6, d=0, attack="intercept_resend", check="improved", trials=1, seed=seed
            )
            transcript = protocol.run_distribution(config, np.random.default_rng(seed))
            prepared = [2 * label.x + label.y for label in transcript.prepared]
            keys = [key_codes(participant.keys) for participant in transcript.participant_keys]
            entries = transcript.improved_check.entries
            mismatch = any(not recomputed_match(entry, prepared, keys) for entry in entries)
            assert transcript.detected == mismatch
            verdicts.add(mismatch)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("check", ["original", "improved"])
    @pytest.mark.parametrize("seed", range(8))
    def test_honest_secret_is_key_xor(self, check, seed):
        config = ScenarioConfig(n=4, m=6, d=3, check=check, trials=1, seed=seed)
        transcript = protocol.run_distribution(config, np.random.default_rng(seed))
        assert not transcript.detected
        expected = []
        for position in transcript.payload_positions:
            expected.extend(protocol.key_total(transcript.participant_keys, position))
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

    def test_same_generator_state_reproduces_run(self):
        config = ScenarioConfig(n=3, m=8, d=4, attack="collusion", trials=1, seed=9)
        first = protocol.run_distribution(config, np.random.default_rng(9))
        second = protocol.run_distribution(config, np.random.default_rng(9))
        assert first.prepared == second.prepared
        assert first.readout == second.readout
        assert first.extracted_secret == second.extracted_secret
        assert first.attacker_secret == second.attacker_secret

    @pytest.mark.parametrize("attack", ["none", "intercept_resend"])
    def test_composites_only_under_collusion(self, attack):
        config = ScenarioConfig(n=3, m=4, d=2, attack=attack, trials=1, seed=12)
        for run in (protocol.run_distribution, protocol.run_distribution_dense):
            assert run(config, np.random.default_rng(12)).recovered_composites is None

    @pytest.mark.parametrize("attack", ATTACK_KINDS)
    def test_engines_agree_on_one_run(self, attack):
        """Same generator state in, equal transcript and generator state out."""
        config = ScenarioConfig(
            n=4, m=5, d=3, attack=attack, check="improved", trials=1, seed=13
        )
        label_rng = np.random.default_rng(13)
        dense_rng = np.random.default_rng(13)
        fast = protocol.run_distribution(config, label_rng)
        dense = protocol.run_distribution_dense(config, dense_rng)
        assert fast == dense
        assert label_rng.bit_generator.state == dense_rng.bit_generator.state

    @pytest.mark.parametrize("alg", ALGEBRAS)
    @pytest.mark.parametrize("attack,check", TRANSCRIPT_DIGESTS)
    def test_transcripts_and_generator_states_are_pinned(self, alg, attack, check):
        """sha256 of every transcript and final generator state over n, d and 30 seeds.

        Honest and collusion reports do not depend on the draws, so only a pin
        of the transcripts sees a draw moved inside the hop loop. The config
        echo is left out, so that a new config field does not move the pins.
        """
        sha = hashlib.sha256()
        for n, d, seed in itertools.product((2, 3, 5), (0, 3), range(30)):
            config = ScenarioConfig(n=n, m=4, d=d, attack=attack, check=check, trials=1, seed=seed)
            rng = np.random.default_rng(seed)
            transcript = protocol._run(alg, config, rng)
            fields = [
                getattr(transcript, f.name)
                for f in dataclasses.fields(transcript)
                if f.name != "config"
            ]
            sha.update(repr((fields, rng.bit_generator.state)).encode())
        assert sha.hexdigest() == TRANSCRIPT_DIGESTS[attack, check]

    @pytest.mark.parametrize(
        "changes,field",
        [
            ({"n": 1}, "n"),
            ({"n": True}, "n"),
            ({"m": True}, "m"),
            ({"d": False}, "d"),
            ({"trials": True}, "trials"),
            ({"seed": True}, "seed"),
            ({"check_fraction": True}, "check_fraction"),
        ],
    )
    def test_invalid_config_rejected(self, changes, field):
        """A ScenarioConfig checks itself as it is built, so no run sees a bad one."""
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig(trials=3).replace(**changes)
        assert caught.value.field == field
