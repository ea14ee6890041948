"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload online-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports rentlab from
``src/`` of that checkout and refuses to run without it.  Scratch files go
to ``.perfbench-work/`` in the checkout and are removed at exit.

``--trace 0`` sets up the workload several times (fresh import plus input
generation; ``setup_s`` is the median), then cycles over its items until
``--seconds`` have passed, and reports the end-to-end metrics over each
item's median run.  Those times are scaled to a fixed reference speed of the
host (``calibrate.py``), which a reference kernel run from a timer signal
measures throughout.  ``--trace 1`` sets up and runs every
item once untraced, then once more traced on identical inputs, and reports
per-layer self times, counters and the tracing overhead (traced minus
untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

# Standard-library modules rentlab imports are loaded up front, so the
# timed setup measures rentlab's own import, not the interpreter's.
import argparse
import dataclasses  # noqa: F401
import enum  # noqa: F401
import heapq  # noqa: F401
import importlib
import json
import math  # noqa: F401
import os
import platform
import random  # noqa: F401
import re  # noqa: F401
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from spans import LAYERS, Tracer, summarize  # noqa: E402
from calibrate import HostClock  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPEATS = 5


def import_rentlab():
    """Import rentlab afresh from this checkout's ``src``; returns its modules."""
    for name in [m for m in sys.modules if m == "rentlab" or m.startswith("rentlab.")]:
        del sys.modules[name]
    package = importlib.import_module("rentlab")
    if Path(package.__file__).resolve().parent != SRC / "rentlab":
        raise ImportError(f"rentlab imported from {package.__file__}, not {SRC}")
    modules = {layer: importlib.import_module(f"rentlab.{layer}") for layer in LAYERS}
    return types.SimpleNamespace(package=package, **modules)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload_cls, seed: int, seconds: float, base: Path):
    setup_spans = []
    outcome = Outcome()
    with HostClock() as clock:
        for r in range(SETUP_REPEATS):
            workdir = base / f"setup{r}"
            workdir.mkdir(parents=True)
            started = time.perf_counter()
            lab = import_rentlab()
            workload = workload_cls(lab, seed, workdir)
            workload.setup()
            setup_spans.append((started, time.perf_counter()))

        # Cycle over the items until --seconds have passed, after at least
        # one whole cycle.
        items = workload.items()
        began = time.perf_counter()
        runs = 0
        while runs < len(items) or time.perf_counter() - began < seconds:
            items[runs % len(items)](outcome)
            runs += 1

    # Each item counts with the median of its runs, at the reference speed.
    latencies: dict[str, list[float]] = {}
    work = {}
    for item, start, end, units in outcome.runs:
        latencies.setdefault(item, []).append(clock.scaled(start, end))
        work[item] = units
    lat_ms = [statistics.median(runs_s) * 1000 for runs_s in latencies.values()]
    setup_times = [clock.scaled(start, end) for start, end in setup_spans]
    p90 = percentile(lat_ms, 90)
    print(
        f"# {workload_cls.name}: {runs} item runs, {len(lat_ms)} items, item "
        f"medians sum to {sum(lat_ms) / 1000:.3f} s for {sum(work.values())} "
        f"{workload_cls.work_unit}; {sum(x > p90 for x in lat_ms)} items above "
        f"p90; failed_frac {outcome.failed_frac:g}; {len(clock.durations)} "
        f"reference ticks, median {statistics.median(clock.durations) * 1000:.3f} ms; "
        f"setup runs {', '.join(f'{t:.4f}' for t in setup_times)} s"
    )
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "work_per_s": (sum(work.values()) * 1000 / sum(lat_ms), "1/s"),
        "item_p50_ms": (statistics.median(lat_ms), "ms"),
        "item_p90_ms": (p90, "ms"),
    }
    return outcome, metrics


def _counters(tracer: Tracer) -> dict:
    """Attach observers that read operation counts off returned values."""
    counts = {}

    def add(key, amount):
        counts[key] = counts.get(key, 0) + amount

    def on_trace(span, args, kwargs, trace):
        add(f"{span.name}.jobs", len(trace.decisions))
        add(f"{span.name}.servers_scanned", sum(d.servers_scanned for d in trace.decisions))
        add(f"{span.name}.servers_opened", sum(d.opened_new_server for d in trace.decisions))

    def on_opt(span, args, kwargs, result):
        add("optimal.brute_force_opt.partitions_examined", result.partitions_examined)
        add("optimal.brute_force_opt.floor_hits",
            int(result.cost == max(result.util_bound, result.span_bound)))

    def on_sample(span, args, kwargs, result):
        seed = args[1] if len(args) > 1 else kwargs["seed"]
        add("analysis.find_uniform_two_arrival.attempts", result[2] - seed + 1)

    def on_generate(span, args, kwargs, result):
        instance = result[0] if isinstance(result, tuple) else result
        add("generators.jobs", len(instance.jobs))

    tracer.observe("algorithms.first_fit", on_trace)
    tracer.observe("algorithms.next_fit", on_trace)
    tracer.observe("optimal.brute_force_opt", on_opt)
    tracer.observe("analysis.find_uniform_two_arrival", on_sample)
    for name in ("ggu_extended", "long_uniform", "nf_nemesis",
                 "random_two_arrival", "random_equal_duration"):
        tracer.observe(f"generators.{name}", on_generate)
    return counts


def per_layer(workload_cls, seed: int, base: Path):
    lab = import_rentlab()
    outcome = Outcome()

    (base / "untraced").mkdir(parents=True)
    started = time.perf_counter()
    workload = workload_cls(lab, seed, base / "untraced")
    workload.setup()
    for item in workload.items():
        item(outcome)
    untraced = time.perf_counter() - started

    (base / "traced").mkdir(parents=True)
    modules = {layer: getattr(lab, layer) for layer in LAYERS}
    tracer = Tracer({**modules, "package": lab.package})
    counts = _counters(tracer)
    tracer.install()
    try:
        started = time.perf_counter()
        workload = workload_cls(lab, seed, base / "traced")
        workload.setup()
        for tracer.item, item in enumerate(workload.items()):
            item(outcome)
        traced = time.perf_counter() - started
    finally:
        tracer.uninstall()

    summary = summarize(tracer.spans, traced)
    fn_self, fn_calls = summary["fn_self_s"], summary["fn_calls"]
    metrics = {f"{layer}.self_s": (s, "s") for layer, s in summary["layer_self_s"].items()}
    metrics["harness.self_s"] = (summary["harness_self_s"], "s")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (summary["spans"], "count")

    def busy(name):
        metrics[f"{name}.busy_s"] = (fn_self.get(name, 0.0), "s")

    def calls(name):
        metrics[f"{name}.calls"] = (fn_calls.get(name, 0), "count")

    def count(key):
        metrics[key] = (counts.get(key, 0), "count")

    for name in ("algorithms.first_fit", "algorithms.next_fit"):
        busy(name)
        calls(name)
        for counter in ("jobs", "servers_scanned", "servers_opened"):
            count(f"{name}.{counter}")
    for name in ("model.active_count", "optimal.active_ceil_bound",
                 "optimal.brute_force_opt", "analysis.find_uniform_two_arrival"):
        busy(name)
        calls(name)
    for name in ("model.check_schedule", "model.parse_instance", "model.validate",
                 "analysis.verify_weights"):
        busy(name)
    metrics["model.digest.busy_s"] = (
        sum(fn_self.get(f"model.{n}", 0.0) for n in ("utilization", "span", "mu")), "s"
    )
    count("optimal.brute_force_opt.partitions_examined")
    count("optimal.brute_force_opt.floor_hits")
    count("analysis.find_uniform_two_arrival.attempts")
    sampled = fn_calls.get("analysis.find_uniform_two_arrival", 0)
    attempts = counts.get("analysis.find_uniform_two_arrival.attempts", 0)
    metrics["analysis.find_uniform_two_arrival.accept_ratio"] = (
        sampled / attempts if attempts else 0.0, "ratio"
    )
    metrics["generators.calls"] = (
        sum(n for name, n in fn_calls.items() if name.startswith("generators.")), "count"
    )
    count("generators.jobs")

    print(
        f"# {workload_cls.name}: traced {traced:.3f} s, untraced "
        f"{untraced:.3f} s, {summary['spans']} spans; layer self times + "
        f"harness = {sum(summary['layer_self_s'].values()) + summary['harness_self_s']:.3f} s"
    )
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    base = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    if not (SRC / "rentlab" / "__init__.py").is_file():
        print(f"error: no rentlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        workload_cls = WORKLOADS[args.workload]
        if args.trace:
            outcome, metrics = per_layer(workload_cls, args.seed, base)
        else:
            outcome, metrics = end_to_end(workload_cls, args.seed, args.seconds, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    for failure in outcome.failures[:20]:
        print(f"# FAILED {failure}")
    print(
        f"# python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"workload {args.workload}, seed {args.seed}"
    )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
