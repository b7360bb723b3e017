#!/usr/bin/env python3
"""Compare two checkouts on one workload, in alternating pairs of benchmark runs:

    python3 qssbench/compare.py PARENT_DIR CHANGE_DIR --workload NAME [--pairs 10]

Both checkouts must hold the same benchmark files. Pair i runs both sides
with seed `--seed + i`, the parent first on even pairs and the change
first on odd ones. For each end-to-end metric it prints each side's
median and quartiles, how many pairs the change won, and a verdict: a
gain needs nine tenths of the pairs won and a median difference larger
than the parent's interquartile range; a regression is a median worse
than the parent's by more than the metric's bound in BENCHMARK.json,
whatever the spread. Where the parent's own spread exceeds the bound and
the change does not beat every parent run, a result that is neither reads
"unresolved" rather than "no regression".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_files(root: Path, paths: list[str]) -> dict[str, bytes]:
    """BENCHMARK.json and the files under its paths, minus run outputs and caches."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for directory in paths:
        for path in (root / directory).rglob("*"):
            rel = path.relative_to(root / directory)
            if path.is_file() and rel.parts[0] != "out" and "__pycache__" not in rel.parts:
                files[str(path.relative_to(root))] = path.read_bytes()
    return files


def run_once(root: Path, spec: dict, workload: str, seed: int) -> dict:
    args = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(args, cwd=root, capture_output=True, text=True, timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{root}: incorrect output at seed {seed}:\n{done.stderr}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=5000)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if bench_files(args.parent, spec["paths"]) != bench_files(args.change, spec["paths"]):
        sys.exit("the two checkouts hold different benchmark files")
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(
                run_once(sides[side], spec, args.workload, args.seed + i)
            )
    for side, runs in results.items():
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{side}: failed share {sorted(shares)}")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run["metrics"][name]["value"] for run in results["parent"]]
        change = [run["metrics"][name]["value"] for run in results["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_q, c_q = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        worse = (c_q[1] - p_q[1]) / p_q[1] * (1 if lower else -1)
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        if worse > metric["bound"]:
            verdict = "regression"
        elif wins >= 0.9 * len(parent) and abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0]:
            verdict = "gain"
        elif (p_q[2] - p_q[0]) / p_q[1] > metric["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "no regression"
        print(
            f"{name:<14} parent {p_q[1]:.6g} [{p_q[0]:.6g}, {p_q[2]:.6g}]  "
            f"change {c_q[1]:.6g} [{c_q[0]:.6g}, {c_q[2]:.6g}] {metric['unit']}  "
            f"change won {wins}/{len(parent)}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
