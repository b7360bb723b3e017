"""Monte Carlo harness: seeded trial batches, exact companions, reports.

Every trial draws its randomness from an independent generator derived by
mixing the master seed with the trial index through numpy's SeedSequence
spawn mechanism. The derivation depends only on (seed, index), and the
trials of a batch run one after another in the calling thread.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import adversary, labels, protocol
from .config import ScenarioConfig, config_from_dict

__all__ = [
    "RunReport",
    "ReportWriteError",
    "trial_generator",
    "run_trials",
    "exact_detection",
    "write_report",
    "read_report",
    "write_csv",
    "read_csv",
]

_CI_Z = 1.96  # 95% two-sided normal quantile

REPORT_COLUMNS = (
    "config",
    "trials",
    "detection_rate",
    "ci_low",
    "ci_high",
    "secret_recovery_rate",
    "per_decoy_error_rate",
    "exact_detection",
)


class ReportWriteError(OSError):
    """A report could not be written; no partial file is left behind."""


@dataclass(frozen=True)
class RunReport:
    """Aggregated statistics of one scenario's trial batch."""

    config: ScenarioConfig
    trials: int
    detection_rate: float
    ci_low: float
    ci_high: float
    secret_recovery_rate: Optional[float]
    per_decoy_error_rate: float
    exact_detection: Optional[float]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "trials": self.trials,
            "detection_rate": self.detection_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "secret_recovery_rate": self.secret_recovery_rate,
            "per_decoy_error_rate": self.per_decoy_error_rate,
            "exact_detection": self.exact_detection,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunReport":
        """Report from `to_dict` output, or from a CSV row with its cells decoded."""
        return RunReport(
            config=config_from_dict(data["config"]),
            trials=int(data["trials"]),
            detection_rate=float(data["detection_rate"]),
            ci_low=float(data["ci_low"]),
            ci_high=float(data["ci_high"]),
            secret_recovery_rate=(
                None
                if data["secret_recovery_rate"] is None
                else float(data["secret_recovery_rate"])
            ),
            per_decoy_error_rate=float(data["per_decoy_error_rate"]),
            exact_detection=(
                None if data["exact_detection"] is None else float(data["exact_detection"])
            ),
        )


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent, scheduling-invariant RNG stream for one trial."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(sequence))


def _binomial_ci(successes: int, trials: int) -> tuple[float, float, float]:
    """Rate and its 95% Wilson score interval.

    Unlike the normal approximation, the interval keeps a positive width at
    a rate of 0 or 1. The two bounds are the roots of a quadratic whose
    product is rate^2 / (1 + z^2/trials); the lower one is taken from that
    product, and the upper one as 1 minus the lower bound of the failure
    rate, so a rate of 0 gives exactly 0 and a rate of 1 exactly 1.
    """
    z2 = _CI_Z**2 / trials

    def lower(rate: float) -> float:
        # the upper root times (1 + z2): a sum of non-negative terms, no cancellation
        upper = rate + z2 / 2 + _CI_Z * math.sqrt(rate * (1 - rate) / trials + z2 / (4 * trials))
        return rate * rate / upper

    return successes / trials, lower(successes / trials), 1 - lower((trials - successes) / trials)


def run_trials(config: ScenarioConfig) -> RunReport:
    """Run the configured number of seeded trials and aggregate the outcomes.

    Trials run serially in the calling thread, each on its own stream from
    `trial_generator`; the exact companion counts `protocol.sampled_pairs`.
    """
    config.validate()
    detected = undetected_collusion = recovered = 0
    attacked_errors = attacked_hops = all_errors = all_hops = 0
    for index in range(config.trials):
        transcript = protocol.run_distribution(config, trial_generator(config.seed, index))
        detected += transcript.detected
        if config.attack == "collusion" and not transcript.detected:
            undetected_collusion += 1
            recovered += transcript.attacker_secret == transcript.extracted_secret
        for check in transcript.decoy_checks:  # each hop carries config.d decoys
            all_errors += check.error_count
            all_hops += 1
            if check.attacked:
                attacked_errors += check.error_count
                attacked_hops += 1

    detection_rate, ci_low, ci_high = _binomial_ci(detected, config.trials)
    if config.d == 0:
        per_decoy = 0.0
    elif attacked_hops > 0:
        per_decoy = attacked_errors / (attacked_hops * config.d)
    else:
        per_decoy = all_errors / (all_hops * config.d)
    recovery: Optional[float] = None
    if config.attack == "collusion" and undetected_collusion > 0:
        recovery = recovered / undetected_collusion
    exact: Optional[float]
    if config.attack == "none":
        exact = 0.0  # untouched noiseless channel: no check can fire
    else:
        exact = exact_detection(config.attack, config.d, protocol.sampled_pairs(config))
    return RunReport(
        config=config,
        trials=config.trials,
        detection_rate=detection_rate,
        ci_low=ci_low,
        ci_high=ci_high,
        secret_recovery_rate=recovery,
        per_decoy_error_rate=per_decoy,
        exact_detection=exact,
    )


def _branches(p0: float) -> tuple[tuple[int, Fraction], tuple[int, Fraction]]:
    """Exact outcome weights of a label-engine Z/X measurement rule."""
    return (0, Fraction(p0)), (1, 1 - Fraction(p0))


@functools.cache
def _intercept_resend_decoy_error() -> Fraction:
    """Exact per-decoy error rate under intercept-resend, by enumeration.

    Averages over the four equiprobable decoy states, the eavesdropper's
    two equiprobable bases and her outcomes, then scores the receiver's
    mismatch probability in the preparation basis. The label engine's
    measurement rules give every probability as 0, 1/2 or 1, so the sum is
    an exact rational.
    """
    total = Fraction(0)
    for decoy in range(4):  # qubit code 2 * basis + value
        for eve_basis in (labels.Z, labels.X):
            p0, resent = labels.measure_qubit(decoy, eve_basis)
            for eve_outcome, p_eve in _branches(p0):
                p0, _ = labels.measure_qubit(resent[eve_outcome], decoy >> 1)
                _, p_error = _branches(p0)[1 - (decoy & 1)]  # outcome != value
                total += Fraction(1, 8) * p_eve * p_error
    return total


@functools.cache
def _intercept_resend_pair_error() -> Fraction:
    """Exact chance that the parity check flags one sampled pair Eve measured.

    The eavesdropper measures the traveling qubit in a random Z/X basis;
    the dealer then measures both qubits in one random Z/X basis and
    compares their parity with the one the intact pair would show. The
    label is irrelevant, so the enumeration starts from |Psi_00>, whose
    parity is 0 in both bases.
    """
    total = Fraction(0)
    for eve_basis, basis in itertools.product((labels.Z, labels.X), repeat=2):
        p0, after_eve = labels.measure(0, 1, eve_basis)
        for eve_outcome, p_eve in _branches(p0):
            p0, after_x = labels.measure(after_eve[eve_outcome], 0, basis)
            for x, p_x in _branches(p0):
                p0, _ = labels.measure(after_x[x], 1, basis)
                for y, p_y in _branches(p0):
                    if x ^ y:
                        total += Fraction(1, 4) * p_eve * p_x * p_y
    return total


def exact_detection(attack: str, d: int, sampled: int = 0) -> float:
    """Exact detection probability for the given attack.

    `d` is the number of decoys per hop and `sampled` the number of pairs
    the improved check measures (0 for the original check).
    intercept_resend: 1 - (1 - p)^d (1 - q)^sampled, with p the enumerated
    per-decoy error rate and q the enumerated chance that the parity check
    flags a pair the eavesdropper measured; both are 1/4, so this is
    1 - (3/4)^(d + sampled); each enumeration runs once per process.
    collusion: 0, certified on every call by the state-vector proof
    `adversary.collusion_failures`.
    """
    if d < 0:
        raise ValueError(f"decoy count must be >= 0, got {d}")
    if sampled < 0:
        raise ValueError(f"sampled pair count must be >= 0, got {sampled}")
    if attack == "intercept_resend":
        missed = (1 - _intercept_resend_decoy_error()) ** d
        missed *= (1 - _intercept_resend_pair_error()) ** sampled
        return float(1 - missed)
    if attack == "collusion":
        failures = adversary.collusion_failures()
        if failures:
            raise RuntimeError("collusion exactness proof failed: " + "; ".join(failures))
        return 0.0
    raise ValueError(f"unsupported attack kind: {attack!r}")


def _report_row(report: RunReport) -> list:
    data = report.to_dict()
    row = []
    for column in REPORT_COLUMNS:
        value = data[column]
        if column == "config":
            row.append(json.dumps(value, sort_keys=True, separators=(",", ":")))
        elif value is None:
            row.append("")
        else:
            row.append(repr(value) if isinstance(value, float) else str(value))
    return row


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    target = Path(path)
    scratch = target.with_name(target.name + ".partial")
    try:
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(scratch, target)
    except OSError as err:
        try:
            scratch.unlink()
        except OSError:
            pass
        raise ReportWriteError(f"cannot write report to {target}: {err}") from err


def csv_text(reports: Sequence[RunReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for report in reports:
        writer.writerow(_report_row(report))
    return buffer.getvalue()


def write_report(report: RunReport, path: str | os.PathLike, format: str = "json") -> None:
    """Serialize one report to `path` as JSON or a one-row CSV.

    Writing is atomic: on failure no partial file is retained.
    """
    if format == "json":
        _atomic_write(path, json.dumps(report.to_dict(), indent=2) + "\n")
    elif format == "csv":
        _atomic_write(path, csv_text([report]))
    else:
        raise ValueError(f"unsupported report format: {format!r}")


def read_report(path: str | os.PathLike, format: str = "json") -> RunReport:
    """Read back a single report written by `write_report`."""
    if format == "json":
        with open(path, "r", encoding="utf-8") as handle:
            return RunReport.from_dict(json.load(handle))
    if format == "csv":
        reports = read_csv(path)
        if len(reports) != 1:
            raise ValueError(f"expected one report row in {path}, found {len(reports)}")
        return reports[0]
    raise ValueError(f"unsupported report format: {format!r}")


def write_csv(reports: Sequence[RunReport], path: str | os.PathLike) -> None:
    """Serialize a sequence of reports as CSV, one row per scenario."""
    _atomic_write(path, csv_text(reports))


def read_csv(path: str | os.PathLike) -> list[RunReport]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        reports = []
        for row in reader:
            data = {column: None if cell == "" else cell for column, cell in row.items()}
            data["config"] = json.loads(row["config"])
            reports.append(RunReport.from_dict(data))
        return reports
