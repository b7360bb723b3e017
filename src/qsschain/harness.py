"""Monte Carlo harness: seeded trial batches, exact companions, reports.

Trial i of a report draws from the stream of `trial_generator(seed, i)`:
the counter-based Philox4x64-10 generator keyed by the master seed, its
counter starting at [0, i, 0, 0] (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC 2011). A stream is addressed by (seed, i) alone,
with nothing derived from the seed, and the trials of a batch run one after
another in the calling thread. `run_trials` takes the first
`protocol.words_per_run(config)` words of each trial's stream from
`philox_words`, Philox4x64-10 written out in numpy integer arithmetic over
a block of trials, so a run or a sweep never imports `numpy.random`;
`trial_generator` is the numpy Generator on the same stream.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
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
    "philox_words",
    "run_trials",
    "exact_detection",
    "write_report",
    "read_report",
    "write_csv",
    "read_csv",
]

_CI_Z = 1.96  # 95% two-sided normal quantile

_NULLABLE_COLUMNS = ("secret_recovery_rate",)

_BLOCK_WORDS = 2**16  # words per `philox_words` call at most, unless one trial needs more

# Philox4x64-10: the round multipliers and the Weyl key increments of its specification
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_WORD = 2**64 - 1
_HALF = 2**32 - 1


class ReportWriteError(OSError):
    """A report could not be written; no partial file is left behind."""


@dataclass(frozen=True)
class RunReport:
    """Aggregated statistics of one scenario's trial batch.

    Its fields, in order, are the report's columns (`REPORT_COLUMNS`).
    Every column after `config` and `trials` is a float. Only those in
    `_NULLABLE_COLUMNS` may be None: the recovery rate has no value without
    an undetected collusion trial.
    """

    config: ScenarioConfig
    trials: int
    detection_rate: float
    ci_low: float
    ci_high: float
    secret_recovery_rate: Optional[float]
    per_decoy_error_rate: float
    exact_detection: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunReport":
        """Report from `to_dict` output, or from a CSV row with its cells decoded.

        A None in a column that is not nullable raises TypeError.
        """
        values = {"config": config_from_dict(data["config"]), "trials": int(data["trials"])}
        for column in REPORT_COLUMNS[2:]:
            cell = data[column]
            values[column] = None if cell is None and column in _NULLABLE_COLUMNS else float(cell)
        return RunReport(**values)


REPORT_COLUMNS = tuple(field.name for field in dataclasses.fields(RunReport))


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent, scheduling-invariant RNG stream for one trial (see the module docstring)."""
    # a uint64 array, since a list would wrap trial 2**64 - 1 to counter 0
    counter = np.array([0, trial, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _mulhilo(multiplier: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products multiplier * values, from 32-bit halves."""
    high, low = multiplier >> 32, multiplier & _HALF
    values_high, values_low = values >> 32, values & _HALF
    cross_low, cross_high = low * values_high, high * values_low
    carry = (low * values_low >> 32) + (cross_low & _HALF) + (cross_high & _HALF)
    top = high * values_high + (cross_low >> 32) + (cross_high >> 32) + (carry >> 32)
    return top, multiplier * values


def philox_words(seed: int, first: int, trials: int, words: int) -> list[list[int]]:
    """The first `words` words of the streams of trials first, ..., first + trials - 1.

    Row k equals `trial_generator(seed, first + k).bit_generator.random_raw(words)`:
    numpy's Philox steps its counter before each block of four words, so
    block b of trial i is Philox4x64-10 of the counter [b + 1, i, 0, 0]
    under the key [seed mod 2**64, seed >> 64]. numpy wraps unsigned
    array arithmetic modulo 2**64, as the specification's words do; the
    keys stay Python ints, masked to 64 bits.
    """
    blocks = -(-words // 4)
    shape = (trials, blocks)
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    x1 = np.broadcast_to(np.arange(trials, dtype=np.uint64)[:, None] + first, shape)
    x2 = x3 = np.zeros(shape, dtype=np.uint64)
    key0, key1 = seed & _WORD, seed >> 64
    for _ in range(_PHILOX_ROUNDS):
        high0, low0 = _mulhilo(_PHILOX_MULTIPLIERS[0], x0)
        high1, low1 = _mulhilo(_PHILOX_MULTIPLIERS[1], x2)
        x0, x1, x2, x3 = high1 ^ x1 ^ key0, low1, high0 ^ x3 ^ key1, low0
        key0 = (key0 + _PHILOX_BUMPS[0]) & _WORD
        key1 = (key1 + _PHILOX_BUMPS[1]) & _WORD
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(trials, 4 * blocks)[:, :words].tolist()


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

    Trials run serially in the calling thread, trial i on the first
    `protocol.words_per_run(config)` words of the stream of
    `trial_generator(config.seed, i)`, computed by `philox_words` for a
    block of trials at a time. The exact companion counts
    `protocol.sampled_pairs`.
    """
    words = protocol.words_per_run(config)
    block = max(1, _BLOCK_WORDS // words)
    detected = undetected_collusion = recovered = 0
    attacked_errors = attacked_hops = all_errors = all_hops = 0
    transcripts = (
        protocol.run_distribution(config, protocol.Draws(trial_words))
        for first in range(0, config.trials, block)
        for trial_words in philox_words(
            config.seed, first, min(block, config.trials - first), words
        )
    )
    for transcript in transcripts:
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
    none: 0, since no check fires on an untouched noiseless channel.
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
    if attack == "none":
        return 0.0
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
    # a fresh name, created exclusively: no existing file is truncated or removed
    scratch = target.with_name(f"{target.name}.{os.urandom(8).hex()}.partial")
    try:
        with open(scratch, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(scratch, target)
    except OSError as err:
        if not isinstance(err, FileExistsError):  # else the name was not this call's
            with contextlib.suppress(OSError):
                scratch.unlink()
        raise ReportWriteError(f"cannot write report to {target}: {err}") from err


def write_report(report: RunReport, path: str | os.PathLike) -> None:
    """Serialize one report to `path` as JSON.

    Writing is atomic: on failure no partial file is retained.
    """
    _atomic_write(path, json.dumps(report.to_dict(), indent=2) + "\n")


def read_report(path: str | os.PathLike) -> RunReport:
    """Read back a report written by `write_report`."""
    with open(path, "r", encoding="utf-8") as handle:
        return RunReport.from_dict(json.load(handle))


def write_csv(reports: Sequence[RunReport], path: str | os.PathLike) -> None:
    """Serialize a sequence of reports as CSV, one row per scenario, atomically."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for report in reports:
        writer.writerow(_report_row(report))
    _atomic_write(path, buffer.getvalue())


def read_csv(path: str | os.PathLike) -> list[RunReport]:
    """Read back the reports written by `write_csv`, in row order."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        reports = []
        for row in reader:
            data = {column: None if cell == "" else cell for column, cell in row.items()}
            data["config"] = json.loads(row["config"])
            reports.append(RunReport.from_dict(data))
        return reports
