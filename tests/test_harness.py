"""Harness tests: trial streams, aggregation, exact companions, report files."""

import csv
import hashlib
import inspect
import json
import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest

from qsschain import harness, labels, protocol
from qsschain.config import ScenarioConfig
from qsschain.harness import ReportWriteError, RunReport


class TestTrialGenerator:
    def test_same_inputs_same_stream(self):
        a = harness.trial_generator(1234, 7)
        b = harness.trial_generator(1234, 7)
        assert a.integers(0, 2**31, size=16).tolist() == b.integers(0, 2**31, size=16).tolist()

    def test_distinct_trials_distinct_streams(self):
        a = harness.trial_generator(1234, 0)
        b = harness.trial_generator(1234, 1)
        assert a.integers(0, 2**31, size=16).tolist() != b.integers(0, 2**31, size=16).tolist()

    def test_distinct_seeds_distinct_streams(self):
        a = harness.trial_generator(1, 0)
        b = harness.trial_generator(2, 0)
        assert a.integers(0, 2**31, size=16).tolist() != b.integers(0, 2**31, size=16).tolist()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("trial", [0, 1, 2**32, 2**63, 2**64 - 1])
    def test_stream_is_philox_at_the_trials_counter(self, seed, trial):
        """Trial i's words are Philox4x64-10's, keyed by the seed, from counter [0, i, 0, 0]."""
        counter = np.array([0, trial, 0, 0], dtype=np.uint64)
        expected = np.random.Philox(key=seed, counter=counter).random_raw(8).tolist()
        assert harness.trial_generator(seed, trial).bit_generator.random_raw(8).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("trial", [0, 1, 2**32, 2**64 - 2, 2**64 - 1])
    def test_block_words_are_numpys_philox(self, seed, trial):
        """`philox_words` rows equal numpy's Philox at each trial's counter, 11 words each."""
        trials = min(2, 2**64 - trial)
        expected = [
            np.random.Philox(key=seed, counter=np.array([0, i, 0, 0], dtype=np.uint64))
            .random_raw(11)
            .tolist()
            for i in range(trial, trial + trials)
        ]
        assert harness.philox_words(seed, trial, trials, 11) == expected

    def test_last_trial_does_not_wrap_to_the_first(self):
        """Counter word 1 holds every 64-bit index: trial 2**64 - 1 is not trial 0."""
        last = harness.trial_generator(7, 2**64 - 1).bit_generator.random_raw(8).tolist()
        first = harness.trial_generator(7, 0).bit_generator.random_raw(8).tolist()
        assert last != first


class TestRunTrials:
    def test_honest_batch_never_detects(self):
        config = ScenarioConfig(n=3, m=4, d=2, trials=50, seed=1)
        report = harness.run_trials(config)
        assert report.trials == 50
        assert report.detection_rate == 0.0
        assert report.ci_low == 0.0
        assert report.ci_high == pytest.approx(1.96**2 / (50 + 1.96**2), abs=1e-12)
        assert report.secret_recovery_rate is None
        assert report.per_decoy_error_rate == 0.0
        assert report.exact_detection == 0.0

    def test_collusion_batch_is_invisible_and_leaks(self):
        config = ScenarioConfig(n=4, m=8, d=4, attack="collusion", trials=60, seed=2)
        report = harness.run_trials(config)
        assert report.detection_rate == 0.0
        assert report.secret_recovery_rate == 1.0
        assert report.per_decoy_error_rate == 0.0
        assert report.exact_detection == 0.0

    def test_intercept_resend_statistics(self):
        config = ScenarioConfig(
            n=2, m=2, d=4, attack="intercept_resend", trials=400, seed=3
        )
        report = harness.run_trials(config)
        assert report.secret_recovery_rate is None
        exact = report.exact_detection
        assert exact == pytest.approx(1.0 - 0.75**4, abs=1e-12)
        se = math.sqrt(exact * (1.0 - exact) / report.trials)
        assert abs(report.detection_rate - exact) < 3 * se
        se_decoy = math.sqrt(0.25 * 0.75 / (400 * 4))
        assert abs(report.per_decoy_error_rate - 0.25) < 3 * se_decoy
        assert report.ci_low <= report.detection_rate <= report.ci_high

    def test_ci_is_clamped_and_centered(self):
        """Wilson score interval: center (p + z^2/2n) / (1 + z^2/n), width stays positive."""
        z2 = 1.96**2
        config = ScenarioConfig(n=2, m=1, d=1, attack="intercept_resend", trials=30, seed=4)
        report = harness.run_trials(config)
        assert 0.0 <= report.ci_low <= report.detection_rate
        assert report.detection_rate <= report.ci_high <= 1.0
        p, n = report.detection_rate, 30
        center = (p + z2 / (2 * n)) / (1 + z2 / n)
        half = 1.96 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
        assert report.ci_low == pytest.approx(center - half, abs=1e-12)
        assert report.ci_high == pytest.approx(center + half, abs=1e-12)
        # 0 of 1000: the normal approximation collapsed to [0, 0]
        assert harness._binomial_ci(0, 1000) == (0.0, 0.0, pytest.approx(0.003827, abs=1e-6))
        assert harness._binomial_ci(1000, 1000) == (1.0, pytest.approx(0.996173, abs=1e-6), 1.0)

    def test_ci_mirrors_under_swapped_outcomes(self):
        """The interval of k of n is the mirror image of the one of n - k of n."""
        for trials in (1, 7, 50, 1000):
            for successes in range(0, trials + 1, max(1, trials // 7)):
                rate, low, high = harness._binomial_ci(successes, trials)
                _, mirror_low, mirror_high = harness._binomial_ci(trials - successes, trials)
                assert 0.0 <= low <= rate <= high <= 1.0
                assert low < high
                assert low == pytest.approx(1.0 - mirror_high, abs=1e-12)
                assert high == pytest.approx(1.0 - mirror_low, abs=1e-12)

    def test_same_seed_same_report(self):
        config = ScenarioConfig(n=3, m=4, d=2, attack="collusion", trials=40, seed=5)
        first = harness.run_trials(config)
        second = harness.run_trials(config)
        assert first == second

    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig(n=2, m=2, d=3, attack="intercept_resend", trials=64, seed=6),
            ScenarioConfig(
                n=3, m=4, d=2, attack="intercept_resend", check="improved", trials=64, seed=6
            ),
            # 755 words a trial: 86 trials to a block, so the report spans two blocks
            ScenarioConfig(n=16, m=64, d=16, check="improved", trials=100, seed=2**64 - 1),
        ],
        ids=["original", "improved", "two-blocks"],
    )
    def test_trials_run_in_the_calling_thread(self, config, monkeypatch):
        """Trials run serially in the calling thread, trial i on the first W words of its stream.

        W is `protocol.words_per_run(config)` and the stream is that of
        `trial_generator(seed, i)`, which `run_trials` never calls. Every
        trial takes all of its words. The config is `run_trials`' only argument.
        """
        words = protocol.words_per_run(config)
        expected = [
            harness.trial_generator(config.seed, i).bit_generator.random_raw(words).tolist()
            for i in range(config.trials)
        ]
        idents, received, used = [], [], []
        run_distribution = protocol.run_distribution

        def recording(config, source):
            idents.append(threading.get_ident())
            received.append(list(source.words))
            transcript = run_distribution(config, source)
            used.append(source.used)
            return transcript

        def refuse(*args):
            raise AssertionError("run_trials built a numpy Generator")

        monkeypatch.setattr(protocol, "run_distribution", recording)
        monkeypatch.setattr(harness, "trial_generator", refuse)
        harness.run_trials(config)
        assert idents == [threading.get_ident()] * config.trials
        assert received == expected
        assert used == [words] * config.trials
        assert list(inspect.signature(harness.run_trials).parameters) == ["config"]

    @pytest.mark.parametrize(
        "overrides,detection_rate,digest",
        [
            (
                dict(check="improved", d=1),
                0.625,
                "72040afa80b0102c498fbb06acb07f664735fe32e95c8c2dd9133ccb5fc5fefa",
            ),
            (
                dict(check="original", d=8),
                0.925,
                "46a1fb03a185eec87a95a8e7e63b964bc76c39bb7b54e61619879689f26f4546",
            ),
            (  # every pair sampled: the payload is empty
                dict(check="improved", d=1, check_fraction=1.0),
                0.85,
                "32717ee037cdfe868e333702b76304b26b024e595f0023f7f1389effb7476564",
            ),
            (  # no decoys: no hop draws for its decoy check
                dict(check="improved", d=0, n=4),
                0.6,
                "c7dd952ff2dd0567358f3b229d3ca7b5362f330f5124247526faa19375e8c468",
            ),
            (  # the first seed above 32 bits
                dict(check="improved", d=1, seed=2**32),
                0.6,
                "4493df3ad72effd5a38e015117cfedbe29f6437e7d22bf8f7a2ddfd4a19f6a1e",
            ),
            (  # the largest seed
                dict(check="improved", d=1, seed=2**64 - 1),
                0.55,
                "8910eca6f58c86a15d8a05148b3b61fa7f2cdb4304988680be7c0bb8846c7145",
            ),
            (  # a long report: 1100 trials
                dict(check="original", d=1, n=2, m=2, trials=1100),
                0.2309090909090909,
                "b38f37dae23d75d40acb75a8b8a12a965af1eb0afc6b1ebf680e1f4439163a40",
            ),
        ],
        ids=["improved", "original-d8", "all-sampled", "n4-d0", "seed-2to32", "seed-max", "1100"],
    )
    def test_draw_schedule_is_kept(self, overrides, detection_rate, digest):
        """Bytes of fixed intercept-resend reports, as a sha256 of their sorted JSON.

        Every uniform the run draws can move an intercept-resend outcome, so
        these bytes change with the draw schedule, for instance if the
        improved check draws one more word per sampled pair, or with the
        streams the trials draw from.
        """
        config = ScenarioConfig(
            n=3, m=6, attack="intercept_resend", check_fraction=0.5, trials=40, seed=2024
        ).replace(**overrides)
        report = harness.run_trials(config)
        assert report.detection_rate == detection_rate
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestExactDetection:
    def test_intercept_resend_values(self):
        assert harness.exact_detection("intercept_resend", 0) == 0.0
        assert harness.exact_detection("intercept_resend", 1) == pytest.approx(0.25, abs=1e-12)
        assert harness.exact_detection("intercept_resend", 8) == pytest.approx(
            1.0 - 0.75**8, abs=1e-12
        )

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_improved_check_counts_the_sampled_pairs(self, d):
        """n=3, m=8, f=0.5: the parity check samples s = 4 pairs, each caught with 1/4."""
        config = ScenarioConfig(
            n=3, m=8, d=d, attack="intercept_resend", check="improved",
            check_fraction=0.5, trials=1000, seed=300 + d,
        )
        closed_form = float(1 - Fraction(3, 4) ** (d + 4))
        assert harness.exact_detection("intercept_resend", d, sampled=4) == closed_form
        report = harness.run_trials(config)
        assert report.exact_detection == closed_form
        se = math.sqrt(closed_form * (1.0 - closed_form) / config.trials)
        assert abs(report.detection_rate - closed_form) < 3 * se

    @pytest.mark.parametrize(
        "m,fraction,sampled",
        [(100, 0.07, 7), (50, 0.14, 7), (16, 0.5, 8), (3, 0.25, 1), (5, 1.0, 5), (50, 1.0, 50)],
    )
    def test_sampled_pairs_follow_the_decimal_fraction(self, m, fraction, sampled):
        """ceil(f * m) of the decimal f: 0.14 * 50 is 7.000000000000001 as a float."""
        config = ScenarioConfig(
            n=2, m=m, d=0, attack="intercept_resend", check="improved",
            check_fraction=fraction, trials=1, seed=m,
        )
        transcript = protocol.run_distribution(config, harness.trial_generator(config.seed, 0))
        assert len(transcript.improved_check.entries) == sampled
        assert harness.run_trials(config).exact_detection == float(1 - Fraction(3, 4) ** sampled)

    def test_monotone_in_decoy_count(self):
        values = [harness.exact_detection("intercept_resend", d) for d in range(9)]
        assert values == sorted(values)
        assert values[-1] < 1.0

    def test_enumerations_run_once(self, monkeypatch):
        first = harness.exact_detection("intercept_resend", 3, sampled=2)

        def refuse(*args):
            raise AssertionError("a label rule was called again")

        for name in ("measure", "measure_qubit"):
            monkeypatch.setattr(labels, name, refuse)
        assert harness.exact_detection("intercept_resend", 3, sampled=2) == first

    def test_collusion_is_exactly_zero(self):
        assert harness.exact_detection("collusion", 8) == 0.0
        assert harness.exact_detection("collusion", 0) == 0.0

    def test_unsupported_kind(self):
        """Every attack kind has a companion, 0 with no attack; other kinds and counts raise."""
        assert harness.exact_detection("none", 4) == 0.0
        assert harness.exact_detection("none", 0, sampled=3) == 0.0
        with pytest.raises(ValueError):
            harness.exact_detection("eavesdrop", 4)
        for attack in ("none", "intercept_resend", "collusion"):
            with pytest.raises(ValueError):
                harness.exact_detection(attack, -1)
            with pytest.raises(ValueError):
                harness.exact_detection(attack, 2, sampled=-1)


class TestReportFiles:
    def _report(self, **overrides):
        config = ScenarioConfig(n=2, m=2, d=2, attack="collusion", trials=10, seed=7)
        config = config.replace(**overrides)
        return harness.run_trials(config)

    def test_json_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        harness.write_report(report, path)
        loaded = harness.read_report(path)
        assert loaded == report

    def test_json_file_has_no_timing_field(self, tmp_path):
        path = tmp_path / "report.json"
        harness.write_report(self._report(), path)
        text = path.read_text()
        assert "wall_time" not in text
        assert sorted(json.loads(text).keys()) == sorted(harness.REPORT_COLUMNS)

    def test_csv_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        harness.write_csv([report], path)
        assert harness.read_csv(path) == [report]

    def test_csv_none_cells_roundtrip(self, tmp_path):
        report = self._report(attack="none")
        assert report.secret_recovery_rate is None
        path = tmp_path / "report.csv"
        harness.write_csv([report], path)
        [loaded] = harness.read_csv(path)
        assert loaded.secret_recovery_rate is None
        assert loaded == report

    @pytest.mark.parametrize("column", ["detection_rate", "exact_detection"])
    def test_missing_required_value_is_rejected(self, tmp_path, column):
        """A blank CSV cell fails like a JSON null: both reach `from_dict` as None."""
        report = self._report()
        data = report.to_dict()
        data[column] = None
        with pytest.raises(TypeError):
            RunReport.from_dict(data)
        path = tmp_path / "report.csv"
        harness.write_csv([report], path)
        with open(path, newline="") as handle:
            [row] = list(csv.DictReader(handle))
        row[column] = ""
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=harness.REPORT_COLUMNS)
            writer.writeheader()
            writer.writerow(row)
        with pytest.raises(TypeError):
            harness.read_csv(path)

    def test_each_writer_has_one_format(self, tmp_path):
        """The format follows the writer, never a parameter or the file suffix."""
        for function in (harness.write_report, harness.read_report):
            assert "format" not in inspect.signature(function).parameters
        report = self._report()
        as_json, as_csv = tmp_path / "report.csv", tmp_path / "report.json"
        harness.write_report(report, as_json)
        assert json.loads(as_json.read_text())["config"]["seed"] == 7
        assert harness.read_report(as_json) == report
        harness.write_csv([report], as_csv)
        assert as_csv.read_text().splitlines()[0] == ",".join(harness.REPORT_COLUMNS)
        assert harness.read_csv(as_csv) == [report]
        with pytest.raises(json.JSONDecodeError):
            harness.read_report(as_csv)

    def test_multi_row_csv(self, tmp_path):
        reports = [self._report(seed=s) for s in (1, 2, 3)]
        path = tmp_path / "sweep.csv"
        harness.write_csv(reports, path)
        loaded = harness.read_csv(path)
        assert loaded == reports
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # header + one row per report
        assert lines[0] == ",".join(harness.REPORT_COLUMNS)

    def test_float_cells_roundtrip_exactly(self, tmp_path):
        report = self._report(attack="intercept_resend", trials=37)
        path = tmp_path / "report.csv"
        harness.write_csv([report], path)
        [loaded] = harness.read_csv(path)
        assert loaded.detection_rate == report.detection_rate
        assert loaded.exact_detection == report.exact_detection

    def test_unwritable_path_raises_and_leaves_nothing(self, tmp_path):
        report = self._report()
        missing_dir = tmp_path / "no" / "such" / "dir" / "report.json"
        with pytest.raises(ReportWriteError):
            harness.write_report(report, missing_dir)
        assert not missing_dir.exists()
        with pytest.raises(ReportWriteError):
            harness.write_csv([report], missing_dir.with_suffix(".csv"))
        assert list(tmp_path.iterdir()) == []

    def test_existing_partial_file_survives_both_outcomes(self, tmp_path):
        """The scratch file is a fresh name: a file called `<target>.partial` is not ours."""
        report = self._report()
        target = tmp_path / "report.json"
        bystander = tmp_path / "report.json.partial"
        bystander.write_text("keep")
        harness.write_report(report, target)
        assert harness.read_report(target) == report
        target.unlink()
        target.mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(ReportWriteError):
            harness.write_report(report, target)
        assert bystander.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.partial"]

    def test_report_mode_is_that_of_a_plain_open(self, tmp_path):
        """0o666 minus the umask, as `open(..., "w")` gives, not mkstemp's 0o600."""
        plain, report = tmp_path / "plain", tmp_path / "report.json"
        with open(plain, "w", encoding="utf-8"):
            pass
        harness.write_report(self._report(), report)
        assert os.stat(report).st_mode == os.stat(plain).st_mode

    def test_rewrite_is_byte_identical(self, tmp_path):
        config = ScenarioConfig(n=5, m=16, d=8, attack="collusion", trials=25, seed=9)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        harness.write_report(harness.run_trials(config), first)
        harness.write_report(harness.run_trials(config), second)
        assert first.read_bytes() == second.read_bytes()
