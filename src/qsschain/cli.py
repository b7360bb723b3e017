"""Command-line front end.

    qsschain run    [--scenario FILE] [field overrides] [--out PATH]
    qsschain sweep  --axis FIELD --values V1,V2,... --out PATH [overrides]
    qsschain verify

Exit codes: 0 success, 1 runtime or verification failure, 2 configuration
error (the message names the offending field). All commands are
deterministic under a fixed seed; nothing time-dependent reaches stdout or
the report files. `run` writes JSON and `sweep` CSV; the seed is `--seed`,
else the scenario file's, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import checks, harness
from .config import ATTACK_KINDS, CHECK_KINDS, FIELDS, INTEGER_FIELDS, ConfigError
from .config import ScenarioConfig, config_from_dict

_SWEEP_AXES = (*INTEGER_FIELDS, "check_fraction")


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", metavar="FILE", help="JSON scenario file")
    parser.add_argument("--n", type=int, help="number of participants")
    parser.add_argument("--m", type=int, help="number of entangled pairs")
    parser.add_argument("--d", type=int, help="decoys per hop")
    parser.add_argument("--attack", choices=ATTACK_KINDS, help="attack kind")
    parser.add_argument("--check", choices=CHECK_KINDS, help="verification variant")
    parser.add_argument(
        "--check-fraction", type=float, dest="check_fraction",
        help="fraction of pairs sampled by the improved check",
    )
    parser.add_argument("--trials", type=int, help="Monte Carlo repetitions")
    parser.add_argument("--seed", type=int, help="master seed (overrides the scenario file)")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="an integer >= 1, accepted for compatibility; no effect: trials run in one thread",
    )


def _load_scenario_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError("scenario", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("scenario", f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("scenario", f"{path} must contain a JSON object")
    return data


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    """Scenario from file plus flag overrides; each is checked as it is built."""
    data = _load_scenario_file(args.scenario) if args.scenario else {}
    overrides = {name: getattr(args, name) for name in FIELDS if getattr(args, name) is not None}
    config = config_from_dict(data).replace(**overrides)
    if args.threads < 1:  # argparse has already refused a non-integer
        raise ConfigError("threads", f"must be an integer >= 1, got {args.threads}")
    if args.out == "":
        raise ConfigError("out", "must be a file path, got ''")
    return config


def _summary_line(report: harness.RunReport) -> str:
    config = report.config
    parts = [
        f"attack={config.attack}",
        f"check={config.check}",
        f"n={config.n}",
        f"m={config.m}",
        f"d={config.d}",
        f"trials={report.trials}",
        f"detection_rate={report.detection_rate:.6f}",
        f"ci=[{report.ci_low:.6f},{report.ci_high:.6f}]",
    ]
    if report.secret_recovery_rate is not None:
        parts.append(f"secret_recovery_rate={report.secret_recovery_rate:.6f}")
    parts.append(f"per_decoy_error_rate={report.per_decoy_error_rate:.6f}")
    parts.append(f"exact_detection={report.exact_detection:.6f}")
    return " ".join(parts)


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    report = harness.run_trials(config)
    if args.out is not None:
        harness.write_report(report, args.out)
    print(_summary_line(report))
    return 0


def _parse_axis_values(axis: str, raw: str) -> list:
    if axis not in _SWEEP_AXES:
        raise ConfigError("axis", f"must be one of {', '.join(_SWEEP_AXES)}, got {axis!r}")
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ConfigError("values", "at least one value is required")
    values = []
    for item in items:
        try:
            values.append(int(item) if axis in INTEGER_FIELDS else float(item))
        except ValueError as err:
            raise ConfigError("values", f"{item!r} is not a valid {axis} value") from err
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _resolve_config(args)
    values = _parse_axis_values(args.axis, args.values)
    # every config is built, and so checked, before the first row runs
    configs = [base.replace(**{args.axis: value}) for value in values]
    reports = [harness.run_trials(config) for config in configs]
    harness.write_csv(reports, args.out)
    for value, report in zip(values, reports):
        print(f"{args.axis}={value} {_summary_line(report)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = checks.run_all()
    failed = False
    for result in results:
        status = "ok" if result.passed else "FAIL"
        unit = "runs" if "sweep" in result.name else "cases"
        print(f"{result.name:<28} {result.cases:>3} {unit}  {status}")
        for line in result.failures:
            failed = True
            print(f"  {line}")
    if failed:
        print("verification failed")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsschain",
        description=(
            "Simulator of a chained Bell-pair secret-sharing distribution "
            "protocol, with collusion and intercept-resend adversaries."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one scenario and report statistics")
    _add_scenario_arguments(run_parser)
    run_parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = commands.add_parser("sweep", help="vary one numeric field, write a CSV")
    _add_scenario_arguments(sweep_parser)
    sweep_parser.add_argument("--axis", required=True, help="config field to vary")
    sweep_parser.add_argument("--values", required=True, help="comma-separated values")
    sweep_parser.add_argument("--out", required=True, metavar="PATH", help="CSV output path")
    sweep_parser.set_defaults(func=cmd_sweep)

    verify_parser = commands.add_parser("verify", help="run the exhaustive self-checks")
    verify_parser.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (MemoryError, OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
