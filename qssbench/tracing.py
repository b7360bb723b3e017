"""Spans around calls into each `qsschain` layer, recorded from outside.

`Tracer` replaces every public function of the layer modules, and every
public method of their classes, with a wrapper that times the call. Each
thread keeps its own stack, so a span's self time is its duration minus
that of the spans it caused in the same thread. Spans are aggregated in
memory per name (count, durations, self time); the start and end of the
spans that overhead metrics need are kept whole. A call into `qcore`,
`protocol`, `adversary` or `config` made outside any trial (outside
`protocol.run_distribution`), such as the state-vector proof behind
`harness.exact_detection`, is recorded under `outside.<span>`, so the
per-trial figures count trial work only; its time stays inside the span
of the harness call that made it. Nothing inside the program changes:
leaving the `with` block restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import threading
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("qcore", "protocol", "adversary", "harness", "config", "cli")
QCORE_OPS = ("bell_state", "eigenstate", "apply_pauli", "measure_in_basis", "bell_measure")
HOOKS = ("begin_run", "tamper_channel", "outgoing_payload", "attacker_secret")
TIMED_OPS = ("qcore.apply_pauli", "qcore.measure_in_basis", "qcore.bell_measure")
KEEP_INTERVALS = ("harness.run_trials", "protocol.run_distribution")
RUN_DISTRIBUTION = "protocol.run_distribution"
TRIAL_LAYERS = ("qcore.", "protocol.", "adversary.", "config.")  # per-trial work
OUTSIDE = "outside."
STATE_COUNT = "qcore.PureState"
TRANSCRIPT_EVERY = 50  # keep one run_distribution result in this many


class _ThreadStats:
    def __init__(self) -> None:
        self.stack: list[float] = []  # child time accumulated by each open span
        self.trial_depth = 0  # open run_distribution spans
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_s: dict[str, float] = defaultdict(float)
        self.intervals: dict[str, list] = defaultdict(list)
        self.transcripts: list = []


class Tracer:
    """Context manager installing span wrappers on the `qsschain` layers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(stats)
        return stats

    def _timed(self, span: str, fn):
        keep = span in KEEP_INTERVALS
        trial = span == RUN_DISTRIBUTION
        per_trial = span.startswith(TRIAL_LAYERS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = self._stats()
            name = span if trial or stats.trial_depth or not per_trial else OUTSIDE + span
            stats.trial_depth += trial
            stats.stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stats.trial_depth -= trial
                children = stats.stack.pop()
                duration = end - start
                if stats.stack:
                    stats.stack[-1] += duration
                stats.calls[name] += 1
                stats.durations[name].append(duration)
                stats.self_s[name] += duration - children
                if keep:
                    stats.intervals[name].append((start, end))
            if trial and stats.calls[name] % TRANSCRIPT_EVERY == 1:
                stats.transcripts.append(result)
            return result

        return traced

    def _counted(self, span: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stats = self._stats()
            stats.calls[span if stats.trial_depth else OUTSIDE + span] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"qsschain.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("qsschain"))
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._timed(f"{layer}.{name}", obj)
                    # rebind every module-level reference, including `from x import f`
                    for holder in modules:
                        for alias, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, alias, wrapper)
                elif inspect.isclass(obj):
                    for attr, method in list(vars(obj).items()):
                        if inspect.isfunction(method) and not attr.startswith("_"):
                            self._patch(obj, attr, self._timed(f"{layer}.{name}.{attr}", method))
        state = modules[0].PureState
        self._patch(state, "__post_init__", self._counted(STATE_COUNT, state.__post_init__))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def merged(self) -> _ThreadStats:
        total = _ThreadStats()
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            for span, count in stats.calls.items():
                total.calls[span] += count
            for span, values in stats.durations.items():
                total.durations[span].extend(values)
            for span, value in stats.self_s.items():
                total.self_s[span] += value
            for span, spans in stats.intervals.items():
                total.intervals[span].extend(spans)
            total.transcripts += stats.transcripts
        return total


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def covered(outer: list, inner: list) -> float:
    """Total length of `outer` intervals covered by the union of `inner` ones."""
    union: list[list[float]] = []
    for start, end in sorted(inner):
        if union and start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    total = 0.0
    for lo, hi in outer:
        for start, end in union:
            total += max(0.0, min(hi, end) - max(lo, start))
    return total


def layer_metrics(stats: _ThreadStats) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit); per-trial figures use run_distribution calls."""
    trials = stats.calls[RUN_DISTRIBUTION]
    if trials == 0:
        raise ValueError("the traced run completed no trial")

    def per_trial(value: float) -> float:
        return value / trials

    def self_ms(prefix: str) -> float:
        return 1e3 * sum(v for span, v in stats.self_s.items() if span.startswith(prefix))

    def timing(span: str, scale: float, unit: str) -> dict:
        # p99 has at least ten samples beyond it only from 1000 samples on
        values = stats.durations.get(span, ())
        if values and len(values) < 1000:
            raise ValueError(f"{span}: {len(values)} samples are too few for a p99")
        return {
            f"{span}.samples": (len(values), "count"),
            f"{span}.{unit}_p50": (scale * statistics.median(values) if values else 0.0, unit),
            f"{span}.{unit}_p99": (scale * percentile(values, 0.99) if values else 0.0, unit),
        }

    hook_calls = sum(
        count
        for span, count in stats.calls.items()
        if span.startswith("adversary.") and span.rsplit(".", 1)[-1] in HOOKS
    )
    run_trials = stats.intervals["harness.run_trials"]
    overhead = sum(end - start for start, end in run_trials) - covered(
        run_trials, stats.intervals[RUN_DISTRIBUTION]
    )
    metrics = {
        "trace.trials": (trials, "count"),
        "qcore.ops_per_trial": (per_trial(sum(stats.calls[f"qcore.{op}"] for op in QCORE_OPS)), "count"),
        "qcore.states_per_trial": (per_trial(stats.calls[STATE_COUNT]), "count"),
        "qcore.self_ms_per_trial": (per_trial(self_ms("qcore.")), "ms"),
        "protocol.self_ms_per_trial": (per_trial(self_ms("protocol.")), "ms"),
        "protocol.insert_decoys.calls_per_trial": (
            per_trial(stats.calls["protocol.insert_decoys"]), "count"
        ),
        "protocol.verify_decoys.self_ms_per_trial": (
            per_trial(self_ms("protocol.verify_decoys")), "ms"
        ),
        "protocol.improved_check.self_ms_per_trial": (
            per_trial(self_ms("protocol.improved_check")), "ms"
        ),
        "adversary.hook_calls_per_trial": (per_trial(hook_calls), "count"),
        "adversary.self_ms_per_trial": (per_trial(self_ms("adversary.")), "ms"),
        "harness.overhead_ms_per_trial": (per_trial(1e3 * overhead), "ms"),
        "config.validate.calls_per_trial": (
            per_trial(stats.calls["config.ScenarioConfig.validate"]), "count"
        ),
    }
    for span in TIMED_OPS:
        metrics.update(timing(span, 1e6, "us"))
    metrics.update(timing(RUN_DISTRIBUTION, 1e3, "ms"))
    metrics.update(timing("harness.trial_generator", 1e6, "us"))
    # one exact companion per report: too few samples for a tail, median alone
    exact = stats.durations.get("harness.exact_detection", ())
    metrics["harness.exact_detection.samples"] = (len(exact), "count")
    metrics["harness.exact_detection.ms"] = (1e3 * statistics.median(exact) if exact else 0.0, "ms")
    # a sweep writes all its rows in one write_csv call: time per report written
    reports = stats.calls["harness.run_trials"]
    writing = sum(
        sum(stats.durations.get(span, ())) for span in ("harness.write_report", "harness.write_csv")
    )
    metrics["harness.write_report.samples"] = (reports, "count")
    metrics["harness.write_report.ms"] = (1e3 * writing / reports if reports else 0.0, "ms")
    return metrics
