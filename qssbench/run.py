#!/usr/bin/env python3
"""Benchmark of the `qsschain` command line, run from the repository root:

    python3 qssbench/run.py --workload NAME --seconds S [--seed N] [--trace 0|1]

With `--trace 0` it runs whole rounds of the workload's `qsschain`
invocations as separate processes for at least S seconds, checks every
report against `oracle`, and reports the end-to-end metrics. With
`--trace 1` it runs the same rounds in this process through `cli.main`
with `tracing.Tracer` installed and reports the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from oracle import Verdict, check_invocation, check_transcript  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, round_seeds  # noqa: E402

SETUP_SAMPLES = 5  # setup probes per run at least; one runs before every round
IMPORT_SAMPLES = 5
MIN_TRACED_TRIALS = 1000  # enough run_distribution samples for a p99
CLI = ("-m", "qsschain.cli")
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import qsschain.cli; "
    "print(time.perf_counter() - start)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Spawned:
    returncode: int
    wall_s: float
    rss_kib: int


def program_env() -> dict:
    """Environment of every `qsschain` process: the checkout's sources only."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # bytecode caching on, as after an install, and no seed from the environment
    for name in ("PYTHONDONTWRITEBYTECODE", "QSS_SEED"):
        env.pop(name, None)
    return env


def preflight(env: dict) -> None:
    """Fail unless `qsschain` imports from this checkout; also warms the bytecode cache."""
    source = ROOT / "src" / "qsschain" / "cli.py"
    if not source.is_file():
        raise BenchError(f"no qsschain sources at {source}")
    found = subprocess.run(
        [sys.executable, "-c", "import qsschain.cli; print(qsschain.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if found.returncode != 0 or Path(found.stdout.strip()).resolve() != source.resolve():
        raise BenchError(f"qsschain does not import from {source}: {found.stderr.strip()}")


def spawn(args: list[str], env: dict, cwd: Path, log: Path) -> Spawned:
    """Run one process to its end; wall time from spawn to exit, peak RSS from wait4."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=cwd, stdout=sink, stderr=sink)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, usage.ru_maxrss)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Round:
    verdict: Verdict
    trials: int
    outputs: list[Path]
    spawned: list[Spawned]
    wall_s: float


def _prepare(invocation, outdir: Path, tag: str) -> tuple[Path, Path]:
    scenario = outdir / f"{tag}.scenario.json"
    scenario.write_text(json.dumps(invocation.scenario), encoding="utf-8")
    return scenario, outdir / f"{tag}{invocation.suffix}"


def run_round(workload: Workload, seed: int, outdir: Path, tag: str, env: dict,
              trials: int | None = None) -> Round:
    """One round, each invocation a separate `qsschain` process."""
    result = Round(Verdict(), 0, [], [], 0.0)
    for i, invocation in enumerate(workload.invocations(seed, trials)):
        scenario, out = _prepare(invocation, outdir, f"{tag}-{i}")
        args = [*CLI, *invocation.cli_args(str(scenario), str(out))]
        done = spawn(args, env, ROOT, outdir / f"{tag}-{i}.log")
        result.verdict.add(check_invocation(invocation, out, done.returncode))
        result.trials += invocation.trials
        result.outputs.append(out)
        result.spawned.append(done)
        result.wall_s += done.wall_s
    return result


def run_round_in_process(workload: Workload, seed: int, outdir: Path, tag: str,
                         trials: int | None = None) -> Round:
    """One round through `qsschain.cli.main` in this process; stdout is discarded."""
    from qsschain import cli

    result = Round(Verdict(), 0, [], [], 0.0)
    for i, invocation in enumerate(workload.invocations(seed, trials)):
        scenario, out = _prepare(invocation, outdir, f"{tag}-{i}")
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(invocation.cli_args(str(scenario), str(out)))
            result.wall_s += time.perf_counter() - start
        result.verdict.add(check_invocation(invocation, out, code))
        result.trials += invocation.trials
        result.outputs.append(out)
    return result


def setup_probe(workload: Workload, outdir: Path, env: dict, tag: str) -> float:
    """Wall time of a cold `qsschain run` stopped by `--trials 0` right before a trial.

    The scenario file is read, flags merged and the result validated and
    rejected with exit code 2, so the time covers interpreter start,
    imports and config resolution, and no trial.
    """
    scenario, _ = _prepare(workload.invocations(0)[0], outdir, "setup")
    log = outdir / f"{tag}.log"
    done = spawn([*CLI, "run", "--scenario", str(scenario), "--trials", "0"], env, ROOT, log)
    if done.returncode != 2 or "trials" not in log.read_text(encoding="utf-8"):
        raise BenchError(f"setup probe did not stop at config validation: see {log}")
    return done.wall_s


def untraced(workload: Workload, seed: int, seconds: float, env: dict) -> tuple[Verdict, dict]:
    """Rounds of separate processes for `seconds`, each round after a setup probe.

    Probes are spread over the run like the rounds, so a slow spell of the
    machine weighs on both alike; every figure is a median over the run.
    """
    outdir = fresh_dir(OUT / workload.name)
    verdict = Verdict()
    setups: list[float] = []
    rounds: list[Round] = []
    seeds = round_seeds(workload.name, seed)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        setups.append(setup_probe(workload, outdir, env, f"setup-{len(setups)}"))
        done = run_round(workload, next(seeds), outdir, f"r{len(rounds)}", env)
        verdict.add(done.verdict)
        rounds.append(done)
        print(f"round {len(rounds) - 1}: {done.trials} trials in {done.wall_s:.3f} s, "
              f"setup probe {setups[-1]:.3f} s", file=sys.stderr)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(workload, outdir, env, f"setup-{len(setups)}"))
    setup_s = statistics.median(setups)
    rates = [r.trials / sum(s.wall_s - setup_s for s in r.spawned) for r in rounds]
    peak_kib = max(s.rss_kib for r in rounds for s in r.spawned)
    return verdict, {
        "trials_per_s": (statistics.median(rates), "trials/s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }


def traced(workload: Workload, seed: int, seconds: float, env: dict) -> tuple[Verdict, dict]:
    from tracing import Tracer, layer_metrics

    imports = []
    for _ in range(IMPORT_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        imports.append(float(probe.stdout))
    sys.path.insert(0, str(ROOT / "src"))
    import qsschain

    if Path(qsschain.__file__).resolve().parent != (ROOT / "src" / "qsschain").resolve():
        raise BenchError(f"qsschain imported from {qsschain.__file__}, not this checkout")
    outdir = fresh_dir(OUT / f"{workload.name}-trace")
    verdict = Verdict()
    seeds = round_seeds(workload.name, seed)
    tracer = Tracer()
    untraced_rates: list[float] = []
    traced_rates: list[float] = []
    trials = 0
    warmup = run_round_in_process(workload, next(seeds), outdir, "warmup")
    verdict.add(warmup.verdict)
    start = time.perf_counter()
    # each round seed runs untraced and traced, alternating which goes first,
    # so a slow spell of the machine weighs on both sides of the overhead alike
    while not traced_rates or time.perf_counter() - start < seconds or trials < MIN_TRACED_TRIALS:
        round_seed, k = next(seeds), len(traced_rates)
        done = {}
        for side in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
            with tracer if side == "traced" else contextlib.nullcontext():
                done[side] = run_round_in_process(workload, round_seed, outdir, f"r{k}-{side}")
            verdict.add(done[side].verdict)
        for a, b in zip(done["plain"].outputs, done["traced"].outputs):
            if a.read_bytes() != b.read_bytes():
                verdict.problems.append(f"tracing changed the report bytes of {b.name}")
        untraced_rates.append(done["plain"].trials / done["plain"].wall_s)
        traced_rates.append(done["traced"].trials / done["traced"].wall_s)
        trials += done["traced"].trials
    stats = tracer.merged()
    for transcript in stats.transcripts:
        verdict.problems += check_transcript(transcript)
    untraced_rate, traced_rate = statistics.median(untraced_rates), statistics.median(traced_rates)
    metrics = layer_metrics(stats)
    metrics.update({
        "cli.import_ms": (1e3 * statistics.median(imports), "ms"),
        "cli.import.samples": (len(imports), "count"),
        "trace.untraced_trials_per_s": (untraced_rate, "trials/s"),
        "trace.trials_per_s": (traced_rate, "trials/s"),
        "trace.overhead_pct": (100.0 * (untraced_rate / traced_rate - 1.0), "%"),
        "trace.transcripts_checked": (len(stats.transcripts), "count"),
    })
    spans = {
        span: {
            "calls": stats.calls[span],
            "total_ms": 1e3 * sum(stats.durations[span]),
            "self_ms": 1e3 * stats.self_s[span],
        }
        for span in sorted(stats.self_s, key=stats.self_s.get, reverse=True)
    }
    (outdir / "spans.json").write_text(json.dumps(spans, indent=1) + "\n", encoding="utf-8")
    return verdict, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # no default: the run length is BENCHMARK.json's run_seconds, passed by its caller
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = program_env()
    try:
        preflight(env)
        measure = traced if args.trace else untraced
        verdict, metrics = measure(workload, args.seed, args.seconds, env)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    for problem in verdict.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.6g} {unit}")
    correct = not verdict.problems
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
