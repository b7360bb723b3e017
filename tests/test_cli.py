"""Command-line tests, run in-process through main(argv)."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qsschain import checks, cli, harness, labels, protocol
from qsschain.config import ConfigError, ScenarioConfig

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def run_cli(*argv):
    return cli.main(list(argv))


class TestRun:
    def test_collusion_summary_line(self, capsys):
        code = run_cli(
            "run", "--attack", "collusion", "--n", "5", "--m", "16", "--d", "8",
            "--trials", "50", "--seed", "11",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "attack=collusion" in out
        assert "detection_rate=0.000000" in out
        assert "secret_recovery_rate=1.000000" in out
        assert "exact_detection=0.000000" in out

    def test_readme_example_line(self, capsys):
        """The summary line quoted in the README is what its example command prints."""
        quoted = [
            line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("attack=collusion ")
        ]
        code = run_cli(
            "run", "--attack", "collusion", "--n", "5", "--m", "16", "--d", "8",
            "--trials", "1000", "--seed", "7",
        )
        assert code == 0
        assert quoted == [capsys.readouterr().out.rstrip("\n")]

    def test_readme_report_table_names_the_columns(self):
        """The README "Reports" table lists exactly the report columns, in order."""
        section = README.read_text(encoding="utf-8").split("## Reports\n", 1)[1].split("\n## ")[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        named = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert tuple(named) == harness.REPORT_COLUMNS

    def test_honest_summary_has_no_recovery_field(self, capsys):
        code = run_cli("run", "--n", "2", "--m", "2", "--d", "1", "--trials", "5", "--seed", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "secret_recovery_rate" not in out
        assert "detection_rate=0.000000" in out

    def test_memory_error_is_reported(self, tmp_path, capsys, monkeypatch):
        """A batch too large to allocate exits 1 with a one-line error, no traceback.

        The allocation is simulated: a real one could succeed under memory
        overcommit and then fill the host's memory.
        """
        message = "Unable to allocate 14.6 TiB for an array with shape (1000000000001, 2)"

        def out_of_memory(config):
            raise MemoryError(message)

        monkeypatch.setattr(harness, "run_trials", out_of_memory)
        out = tmp_path / "report.json"
        code = run_cli(
            "run", "--n", "1000000000000", "--m", "1", "--trials", "1", "--out", str(out)
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_report_written_and_reproducible(self, tmp_path, capsys):
        args = (
            "run", "--attack", "intercept_resend", "--n", "2", "--m", "2", "--d", "2",
            "--trials", "40", "--seed", "21",
        )
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(first)) == 0
        out1 = capsys.readouterr().out
        assert run_cli(*args, "--out", str(second)) == 0
        out2 = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        assert out1 == out2
        data = json.loads(first.read_text())
        assert data["config"]["seed"] == 21
        assert "wall_time" not in first.read_text()

    def test_one_row_csv_comes_from_a_seed_sweep(self, tmp_path):
        """`sweep --axis seed --values S` writes the one-row CSV of the seed-S report."""
        out, expected = tmp_path / "sweep.csv", tmp_path / "expected.csv"
        assert run_cli(
            "sweep", "--axis", "seed", "--values", "5", "--attack", "collusion",
            "--n", "3", "--m", "4", "--d", "2", "--trials", "6", "--out", str(out),
        ) == 0
        config = ScenarioConfig(n=3, m=4, d=2, attack="collusion", trials=6, seed=5)
        harness.write_csv([harness.run_trials(config)], expected)
        assert out.read_bytes() == expected.read_bytes()
        assert len(out.read_text().splitlines()) == 2

    def test_format_flag_is_refused(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as refused:
            run_cli("run", "--trials", "1", "--out", str(out), "--format", "csv")
        assert refused.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        args = (
            "run", "--attack", "collusion", "--n", "3", "--m", "4", "--d", "2",
            "--trials", "32", "--seed", "2",
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--threads", "1", "--out", str(a)) == 0
        first = capsys.readouterr().out
        assert run_cli(*args, "--threads", "4", "--out", str(b)) == 0
        second = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert first == second


def test_run_and_sweep_leave_numpy_random_unimported(tmp_path):
    """A collusion `run` and an intercept-resend `sweep` in a fresh interpreter.

    Importing `numpy.random` costs a process 12-16 ms, more than a
    100-trial report takes, so neither command may load it.
    """
    report, table = str(tmp_path / "r.json"), str(tmp_path / "s.csv")
    probe = (
        "import sys\n"
        "from qsschain import cli\n"
        "codes = [\n"
        "    cli.main(['run', '--attack', 'collusion', '--n', '5', '--m', '16', '--d', '8',\n"
        f"              '--trials', '20', '--out', {report!r}]),\n"
        "    cli.main(['sweep', '--attack', 'intercept_resend', '--check', 'improved',\n"
        f"              '--trials', '20', '--axis', 'd', '--values', '0,4', '--out', {table!r}]),\n"
        "]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "[0, 0] False"
    assert len(harness.read_csv(table)) == 2


class TestEmptyOut:
    """An empty `--out` is refused before any trial runs, by both commands."""

    @pytest.mark.parametrize(
        "command", [("run",), ("sweep", "--axis", "d", "--values", "1")]
    )
    def test_empty_out_runs_no_trial(self, command, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_trials", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        code = run_cli(*command, "--trials", "2", "--out", "")
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: out:")
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestDirectoryOut:
    """An `--out` that names no file is refused before any trial runs."""

    @pytest.mark.parametrize(
        "command", [("run",), ("sweep", "--axis", "d", "--values", "1")]
    )
    @pytest.mark.parametrize("out", [".", "/", "existing"])
    def test_directory_out_runs_no_trial(self, command, out, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_trials", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing").mkdir()
        code = run_cli(*command, "--trials", "3", "--out", out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"configuration error: out: must be a file path, got {out!r}\n"
        )
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]


class TestMissingDirectoryOut:
    """An `--out` whose directory does not exist is refused before any trial runs."""

    @pytest.mark.parametrize(
        "command", [("run",), ("sweep", "--axis", "d", "--values", "1")]
    )
    @pytest.mark.parametrize("out", ["missing/r.json", "missing/deeper/r.json", "file/r.json"])
    def test_missing_directory_runs_no_trial(self, command, out, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_trials", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        code = run_cli(*command, "--trials", "3", "--out", out)
        assert code == 2
        parent = str(Path(out).parent)
        assert capsys.readouterr().err == (
            f"configuration error: out: no directory {parent!r} to write into\n"
        )
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["file"]


class TestScenarioResolution:
    @pytest.mark.parametrize(
        "flags,named",
        [
            (("--n", "1", "--trials", "1"), "participants"),
            (("--trials", "5", "--threads", "0"), "threads"),
        ],
    )
    def test_invalid_value_names_its_field(self, flags, named, capsys):
        code = run_cli("run", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert err.startswith("configuration error:")

    @pytest.mark.parametrize("threads", ["0", "1.5", "True", "two"])
    def test_bad_thread_count_names_its_field(self, threads, tmp_path, capsys):
        """`--threads` has no effect but must still be an integer >= 1."""
        sweep = ("sweep", "--axis", "d", "--values", "1", "--out", str(tmp_path / "r.csv"))
        for command in (("run",), sweep):
            try:
                code = run_cli(*command, "--trials", "1", "--threads", threads)
            except SystemExit as refused:  # argparse rejects a non-integer itself
                code = refused.code
            assert code == 2
            assert "threads" in capsys.readouterr().err

    def test_scenario_file_with_flag_overrides(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"n": 2, "m": 2, "d": 1, "trials": 4, "seed": 3}))
        out = tmp_path / "r.json"
        assert run_cli("run", "--scenario", str(scenario), "--seed", "9", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["config"]["seed"] == 9  # flag beats file
        assert data["config"]["n"] == 2  # file beats defaults
        assert data["config"]["trials"] == 4

    def test_scenario_file_must_be_valid_on_its_own(self, tmp_path, capsys):
        """The file is checked before a flag overrides it: `--n 3` does not mend `"n": 1`."""
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"n": 1}))
        code = run_cli("run", "--scenario", str(scenario), "--n", "3", "--trials", "1")
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: n:")

    def test_file_value_of_the_wrong_type_gets_the_field_message(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"n": 2.5}))
        assert run_cli("run", "--scenario", str(scenario)) == 2
        assert capsys.readouterr().err == (
            "configuration error: n: participants must be an integer >= 2, got 2.5\n"
        )

    def test_check_fraction_flag_is_echoed_as_a_float(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(
            "run", "--check", "improved", "--check-fraction", "1", "--n", "2", "--m", "2",
            "--d", "1", "--trials", "3", "--out", str(out),
        ) == 0
        assert '"check_fraction": 1.0,' in out.read_text()

    def test_unknown_scenario_field(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"pairs": 4}))
        code = run_cli("run", "--scenario", str(scenario))
        err = capsys.readouterr().err
        assert code == 2
        assert "pairs" in err

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", str(tmp_path / "nope.json"))
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_scenario_file_must_hold_an_object(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text("[1, 2]")
        assert run_cli("run", "--scenario", str(scenario)) == 2

    def test_scenario_file_that_is_not_utf8(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_bytes(b'\xff\xfe{"n": 3}')
        code = run_cli("run", "--scenario", str(scenario), "--trials", "1")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: scenario:")

    def test_oversized_check_fraction_names_its_field(self, tmp_path, capsys):
        """An integer too large for a float is compared exactly, not converted."""
        scenario = tmp_path / "s.json"
        scenario.write_text('{"check_fraction": 1' + "0" * 400 + "}")
        assert run_cli("run", "--scenario", str(scenario), "--trials", "1") == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: check_fraction: sampled fraction must lie in (0, 1], got 1000"
        )
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig(check_fraction=10**400)
        assert caught.value.field == "check_fraction"

    @pytest.mark.parametrize(
        "field,value,shown",
        [
            ("seed", 10**5000, "an integer of 16610 bits"),
            ("trials", -(10**5000), "a negative integer of 16610 bits"),
            ("check_fraction", 10**5000, "an integer of 16610 bits"),
            ("d", -(10**5000), "a negative integer of 16610 bits"),
        ],
        ids=["seed", "trials", "check_fraction", "d"],
    )
    def test_over_long_integer_from_python_names_its_field(self, field, value, shown):
        """An int past the 4300-digit conversion limit is described by its size, not printed."""
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig(**{field: value})
        assert caught.value.field == field
        assert str(caught.value).endswith(f", got {shown}")

    def test_over_long_integer_in_scenario_file(self, tmp_path, capsys):
        """`json.load` refuses an integer of over 4300 digits with a plain ValueError."""
        scenario = tmp_path / "s.json"
        scenario.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert run_cli("run", "--scenario", str(scenario), "--trials", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: scenario: cannot read {scenario}: ")
        assert "4300 digits" in err

    def test_scenario_seed_holds_without_the_flag(self, tmp_path, monkeypatch, capsys):
        """Without `--seed` the scenario file's seed is used, whatever the environment."""
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"n": 2, "m": 1, "d": 1, "trials": 3, "seed": 3}))
        out = tmp_path / "r.json"
        monkeypatch.setenv("QSS_SEED", "123")
        assert run_cli("run", "--scenario", str(scenario), "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 3

    def test_seed_environment_variable_is_ignored(self, tmp_path, monkeypatch, capsys):
        """The seed comes from `--seed` or the scenario file, never the environment."""
        args = ("run", "--n", "2", "--m", "1", "--d", "1", "--trials", "20")
        plain, seeded = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.delenv("QSS_SEED", raising=False)
        assert run_cli(*args, "--out", str(plain)) == 0
        first = capsys.readouterr().out
        monkeypatch.setenv("QSS_SEED", "123")
        assert run_cli(*args, "--out", str(seeded)) == 0
        assert capsys.readouterr().out == first
        assert seeded.read_bytes() == plain.read_bytes()
        assert json.loads(seeded.read_text())["config"]["seed"] == 0


class TestSweep:
    def test_decoy_axis_tracks_exact_curve(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--axis", "d", "--values", "1,2,4,8",
            "--attack", "intercept_resend", "--n", "2", "--m", "1",
            "--trials", "300", "--seed", "31", "--out", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert [f"d={v}" in stdout for v in (1, 2, 4, 8)] == [True] * 4
        reports = harness.read_csv(out)
        assert [r.config.d for r in reports] == [1, 2, 4, 8]
        exacts = [r.exact_detection for r in reports]
        assert exacts == sorted(exacts) and len(set(exacts)) == 4
        for report in reports:
            se = (report.exact_detection * (1 - report.exact_detection) / 300) ** 0.5
            assert abs(report.detection_rate - report.exact_detection) < 4 * se

    def test_participant_axis_under_collusion(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--axis", "n", "--values", "2,3,4", "--attack", "collusion",
            "--m", "4", "--d", "2", "--trials", "25", "--seed", "32", "--out", str(out),
        ) == 0
        reports = harness.read_csv(out)
        assert [r.config.n for r in reports] == [2, 3, 4]
        for report in reports:
            assert report.detection_rate == 0.0
            assert report.secret_recovery_rate == 1.0

    def test_unknown_axis(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--axis", "attack", "--values", "1,2",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "axis" in capsys.readouterr().err

    def test_empty_values(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--axis", "d", "--values", " , ", "--out", str(tmp_path / "s.csv")
        )
        assert code == 2
        assert "values" in capsys.readouterr().err

    def test_invalid_value_for_axis(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--axis", "d", "--values", "1,two", "--out", str(tmp_path / "s.csv")
        )
        assert code == 2

    def test_swept_value_is_validated(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--axis", "n", "--values", "2,1", "--trials", "1",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "participants" in capsys.readouterr().err

    def test_check_fraction_axis_echoes_floats(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--axis", "check_fraction", "--values", "0.25,1", "--check", "improved",
            "--n", "2", "--m", "4", "--d", "1", "--trials", "3", "--out", str(out),
        ) == 0
        with open(out, encoding="utf-8", newline="") as handle:
            echoed = [json.loads(row["config"])["check_fraction"] for row in csv.DictReader(handle)]
        assert echoed == [0.25, 1.0]
        assert all(type(value) is float for value in echoed)
        assert "check_fraction=1.0 attack=none" in capsys.readouterr().out

    def test_bad_later_value_runs_no_row(self, tmp_path, capsys, monkeypatch):
        """Every swept config is checked before the first trial runs."""
        calls = []
        monkeypatch.setattr(harness, "run_trials", lambda *a, **k: calls.append(a))
        out = tmp_path / "x.csv"
        code = run_cli(
            "sweep", "--axis", "trials", "--values", "5,0", "--trials", "5", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: trials:")
        assert calls == []
        assert not out.exists()


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code = run_cli("verify")
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "pauli/bell label table" in out
        assert "parity rule table" in out
        assert "pauli composition law" in out
        assert " 16 cases" in out
        assert " 32 cases" in out
        assert " 64 cases" in out
        assert "10080 runs  ok" in out

    def test_broken_parity_rule_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "DIFFERENTIAL_TRIALS", 1)
        true_rule = protocol.deduce_parity

        def inverted(prepared, total, basis):
            return true_rule(prepared, total, basis) ^ 1

        monkeypatch.setattr(protocol, "deduce_parity", inverted)
        code = run_cli("verify")
        out = capsys.readouterr().out
        assert code == 1
        assert "verification failed" in out
        failed_line = next(
            line for line in out.splitlines() if line.startswith("parity rule table")
        )
        assert "FAIL" in failed_line

    def test_broken_label_rule_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "DIFFERENTIAL_TRIALS", 1)
        true_rule = labels.pauli

        def ignores_products(pair, key):
            return true_rule(pair, key) if pair < 4 else pair

        monkeypatch.setattr(labels, "pauli", ignores_products)
        code = run_cli("verify")
        out = capsys.readouterr().out
        assert code == 1
        assert "verification failed" in out
        failed_line = next(
            line for line in out.splitlines() if line.startswith("label engine rules")
        )
        assert "FAIL" in failed_line


class TestParser:
    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_attack_choice(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--attack", "mitm"])
