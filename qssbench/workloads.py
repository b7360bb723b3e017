"""The benchmark's workloads: which `qsschain` invocations make up one round.

A round is the unit of work the benchmark repeats; every round of a
workload runs the same invocations on fresh scenario seeds, so the share
of failed operations is the same in every run. The program sees only the
scenario file written for each invocation and the flags listed here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

DEFAULT_SEED = 1607

IR_D_VALUES = tuple(range(9))


@dataclass(frozen=True)
class Invocation:
    """One `qsschain` command: `run` writes a JSON report, `sweep` a CSV."""

    command: str
    scenario: dict
    flags: tuple = ()
    sweep_values: tuple = ()

    @property
    def suffix(self) -> str:
        return ".csv" if self.command == "sweep" else ".json"

    @property
    def reports(self) -> int:
        """Operations this invocation attempts: one per report or CSV row."""
        return len(self.sweep_values) if self.command == "sweep" else 1

    @property
    def trials(self) -> int:
        return self.scenario["trials"] * self.reports

    def expected_configs(self) -> list[dict]:
        if self.command != "sweep":
            return [dict(self.scenario)]
        return [dict(self.scenario, d=value) for value in self.sweep_values]

    def cli_args(self, scenario_path: str, out_path: str) -> list[str]:
        args = [self.command, "--scenario", scenario_path, "--out", out_path, *self.flags]
        if self.command == "sweep":
            args += ["--axis", "d", "--values", ",".join(str(v) for v in self.sweep_values)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    checks: tuple  # check variants run in each round, one invocation each
    command: str = "run"
    flags: tuple = ()

    def invocations(self, seed: int, trials: Optional[int] = None) -> list[Invocation]:
        """The round's invocations; `trials` scales a round down for tests."""
        result = []
        for check in self.checks:
            scenario = dict(self.base, check=check, seed=seed)
            if trials is not None:
                scenario["trials"] = trials
            values = IR_D_VALUES if self.command == "sweep" else ()
            result.append(Invocation(self.command, scenario, self.flags, values))
        return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "collusion-headline",
            dict(n=5, m=16, d=8, attack="collusion", check_fraction=0.5, trials=100),
            checks=("original", "improved"),
        ),
        Workload(
            "ir-curve",
            dict(n=3, m=8, d=0, attack="intercept_resend", check_fraction=0.5, trials=100),
            checks=("original", "improved"),
            command="sweep",
        ),
        Workload(
            "long-chain",
            dict(n=16, m=64, d=16, attack="none", check_fraction=0.5, trials=40),
            checks=("improved",),
            flags=("--threads", "1"),  # 2 threads: no faster, and twice the spread
        ),
    )
}


def round_seeds(workload: str, seed: int) -> Iterator[int]:
    """Scenario seeds of rounds 0, 1, ...: a pure function of (workload, seed)."""
    rng = random.Random(f"qssbench/{workload}/{seed}")
    while True:
        yield rng.getrandbits(63)
