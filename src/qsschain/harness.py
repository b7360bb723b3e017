"""Monte Carlo harness: seeded trial batches, exact companions, reports.

Every trial draws its randomness from an independent generator derived by
mixing the master seed with the trial index through numpy's SeedSequence
spawn mechanism: `trial_generator(seed, index)`. The derivation depends
only on (seed, index), and the trials of a batch run one after another in
the calling thread. `run_trials` does not build a SeedSequence and a PCG64
per trial: it derives the PCG64 states `trial_generator` would build, for
blocks of trials at once, and reseeds one generator with each, so every
trial draws the bytes of `trial_generator(seed, index)`.
"""

from __future__ import annotations

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
from typing import Iterator, Optional, Sequence

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

_NULLABLE_COLUMNS = ("secret_recovery_rate",)


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
    """Independent, scheduling-invariant RNG stream for one trial."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(sequence))


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, multiplier: int, count: int) -> list[int]:
    """The hash constant before each of `count` successive hashmix steps, and after the last."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return constants


# hashmix steps 0..15 mix the seed into the pool; steps 16..23 mix in the
# spawn key's two 32-bit words, four steps each; generate_state takes 8 steps
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 24)
_OUTPUT_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)

_STREAM_BLOCK = 1024  # trials whose generator states are derived together


def _hashmix(values: np.ndarray, constants: list[int], step: int) -> np.ndarray:
    values = (values ^ np.uint32(constants[step])) * np.uint32(constants[step + 1])
    return values ^ values >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_LEFT) * x - np.uint32(_MIX_RIGHT) * y
    return result ^ result >> np.uint32(16)


def _trial_states(seed: int, trials: np.ndarray) -> list[dict]:
    """`trial_generator(seed, i).bit_generator.state` for each index i in `trials`.

    A seed below 2**128 has at most the pool's four 32-bit words, so
    `SeedSequence(seed).pool` is the spawned sequence's pool before its
    spawn key is mixed in (a validated seed is below 2**64). The key
    (i,) is one word below 2**32 and two from there on; each word is
    hashmixed into every pool word, then `generate_state(4, uint64)` and
    PCG64's seeding step give the state. Everything up to the 128-bit
    step runs on uint32 arrays, whose products wrap like the C code's.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    pool = [np.full(trials.shape, word, np.uint32) for word in np.random.SeedSequence(seed).pool]
    low = (trials & _MASK32).astype(np.uint32)
    high = (trials >> np.uint64(32)).astype(np.uint32)
    for i in range(4):
        pool[i] = _mix(pool[i], _hashmix(low, _MIX_CONSTANTS, 16 + i))
    for i in range(4):  # the key's second word, for indices from 2**32 on
        mixed = _mix(pool[i], _hashmix(high, _MIX_CONSTANTS, 20 + i))
        pool[i] = np.where(high != 0, mixed, pool[i])
    words = [_hashmix(pool[i % 4], _OUTPUT_CONSTANTS, i).astype(np.uint64) for i in range(8)]
    seeds = np.stack([words[2 * j] | words[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)
    states = []
    for state_high, state_low, sequence_high, sequence_low in seeds.tolist():
        # pcg_setseq_128_srandom_r: odd increment; from state 0, step, add the seed, step
        increment = ((sequence_high << 64 | sequence_low) << 1 | 1) & _MASK128
        state = increment + (state_high << 64 | state_low)
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": increment},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


def _trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One generator, set in turn to `trial_generator(seed, i)`'s state for each i < trials.

    Setting the state also clears the 32-bit half a trial left buffered.
    """
    rng = np.random.Generator(np.random.PCG64(0))  # its state is set before each trial
    for start in range(0, trials, _STREAM_BLOCK):
        block = np.arange(start, min(start + _STREAM_BLOCK, trials), dtype=np.uint64)
        for state in _trial_states(seed, block):
            rng.bit_generator.state = state
            yield rng


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

    Trials run serially in the calling thread, trial i on the stream of
    `trial_generator(config.seed, i)`; the exact companion counts
    `protocol.sampled_pairs`.
    """
    config.validate()
    detected = undetected_collusion = recovered = 0
    attacked_errors = attacked_hops = all_errors = all_hops = 0
    for rng in _trial_streams(config.seed, config.trials):
        transcript = protocol.run_distribution(config, rng)
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
