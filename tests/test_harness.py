"""Harness tests: trial streams, aggregation, exact companions, report files."""

import csv
import inspect
import json
import math
import threading
from fractions import Fraction

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

    def test_trials_run_in_the_calling_thread(self, monkeypatch):
        """Trials run serially in the calling thread; the config is the only argument."""
        idents = []
        run_distribution = protocol.run_distribution

        def recording(config, rng):
            idents.append(threading.get_ident())
            return run_distribution(config, rng)

        monkeypatch.setattr(protocol, "run_distribution", recording)
        config = ScenarioConfig(n=2, m=2, d=3, attack="intercept_resend", trials=64, seed=6)
        harness.run_trials(config)
        assert idents == [threading.get_ident()] * config.trials
        assert list(inspect.signature(harness.run_trials).parameters) == ["config"]

    def test_draw_schedule_is_kept(self):
        """Bytes of a fixed intercept-resend report under the improved check.

        Every uniform the run draws can move an intercept-resend outcome, so
        these bytes change with the draw schedule, for instance if the
        improved check stops drawing the key-publication order it discards.
        """
        config = ScenarioConfig(
            n=3, m=6, d=1, attack="intercept_resend", check="improved",
            check_fraction=0.5, trials=40, seed=2024,
        )
        assert json.dumps(harness.run_trials(config).to_dict(), sort_keys=True) == (
            '{"ci_high": 0.7991568303733828, "ci_low": 0.52017458088898, "config": '
            '{"attack": "intercept_resend", "check": "improved", "check_fraction": 0.5, '
            '"d": 1, "m": 6, "n": 3, "seed": 2024, "trials": 40}, "detection_rate": 0.675, '
            '"exact_detection": 0.68359375, "per_decoy_error_rate": 0.225, '
            '"secret_recovery_rate": null, "trials": 40}'
        )


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
        with pytest.raises(ValueError):
            harness.exact_detection("none", 4)
        with pytest.raises(ValueError):
            harness.exact_detection("intercept_resend", -1)
        with pytest.raises(ValueError):
            harness.exact_detection("intercept_resend", 2, sampled=-1)


class TestReportFiles:
    def _report(self, **overrides):
        config = ScenarioConfig(n=2, m=2, d=2, attack="collusion", trials=10, seed=7)
        config = config.replace(**overrides)
        return harness.run_trials(config)

    def test_json_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        harness.write_report(report, path, "json")
        loaded = harness.read_report(path, "json")
        assert loaded == report

    def test_json_file_has_no_timing_field(self, tmp_path):
        path = tmp_path / "report.json"
        harness.write_report(self._report(), path, "json")
        text = path.read_text()
        assert "wall_time" not in text
        assert sorted(json.loads(text).keys()) == sorted(harness.REPORT_COLUMNS)

    def test_csv_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        harness.write_report(report, path, "csv")
        assert harness.read_report(path, "csv") == report

    def test_csv_none_cells_roundtrip(self, tmp_path):
        report = self._report(attack="none")
        assert report.secret_recovery_rate is None
        path = tmp_path / "report.csv"
        harness.write_report(report, path, "csv")
        loaded = harness.read_report(path, "csv")
        assert loaded.secret_recovery_rate is None
        assert loaded == report

    def test_missing_required_value_is_rejected(self, tmp_path):
        """A blank CSV cell fails like a JSON null: both reach `from_dict` as None."""
        report = self._report()
        data = report.to_dict()
        data["detection_rate"] = None
        with pytest.raises(TypeError):
            RunReport.from_dict(data)
        path = tmp_path / "report.csv"
        harness.write_report(report, path, "csv")
        with open(path, newline="") as handle:
            [row] = list(csv.DictReader(handle))
        row["detection_rate"] = ""
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=harness.REPORT_COLUMNS)
            writer.writeheader()
            writer.writerow(row)
        with pytest.raises(TypeError):
            harness.read_report(path, "csv")

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
        harness.write_report(report, path, "csv")
        loaded = harness.read_report(path, "csv")
        assert loaded.detection_rate == report.detection_rate
        assert loaded.exact_detection == report.exact_detection

    def test_unwritable_path_raises_and_leaves_nothing(self, tmp_path):
        report = self._report()
        missing_dir = tmp_path / "no" / "such" / "dir" / "report.json"
        with pytest.raises(ReportWriteError):
            harness.write_report(report, missing_dir, "json")
        assert not missing_dir.exists()
        assert list(tmp_path.iterdir()) == []

    def test_bad_format_rejected(self, tmp_path):
        report = self._report()
        with pytest.raises(ValueError):
            harness.write_report(report, tmp_path / "r.xml", "xml")
        with pytest.raises(ValueError):
            harness.read_report(tmp_path / "r.xml", "xml")

    def test_rewrite_is_byte_identical(self, tmp_path):
        config = ScenarioConfig(n=5, m=16, d=8, attack="collusion", trials=25, seed=9)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        harness.write_report(harness.run_trials(config), first, "json")
        harness.write_report(harness.run_trials(config), second, "json")
        assert first.read_bytes() == second.read_bytes()
