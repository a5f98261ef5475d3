#!/usr/bin/env python3
"""Benchmark for the ``sgc`` solvers: one workload per process.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 30 --trace 0

Set-up builds the workload's inputs from the seed, several times, and reports
the median.  With ``--trace 0`` the run then times whole passes over the
inputs, one item (one public entry-point call) at a time, until ``--seconds``
would be exceeded by another pass; it always makes at least one pass.  Times
are reported in reference seconds, measured seconds corrected for the host's
speed at that moment (see ``REFERENCE_S``).  With
``--trace 1`` it makes one untraced pass and one traced pass, writes the
traced spans to ``.perfbench/`` and reports per-layer metrics plus the
tracing overhead.  Every answer is checked; a wrong one aborts the run with
exit code 1 and no result line.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
from array import array
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S.
SETUP_REPEATS = 7
SETUP_MIN_S = 0.5
# No p99.9: on corpus-sweep it would lie among the dozen heaviest checks of a
# share.  Over the whole corpus, where 137 items lay beyond it, it moved by
# 28% between runs of the same code where p99 moved by 11%.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 80.0, 50.0)
# Host speed.  On the 2-core development host the speed of plain Python code
# swings by up to 1.7x, in phases that last from a second to over a minute,
# so a whole run can fall inside a slow phase and no repeat within it helps.
# Every timed stretch is therefore taken against a fixed reference loop that
# calls no sgc code, timed right before and after the stretch (at least every
# CALIBRATE_EVERY_S), and reported in reference seconds: measured seconds
# times REFERENCE_S over the loop's time then.  REFERENCE_S is the loop's
# time on that host in its fast phase, so reference seconds read as its
# seconds; the wall-clock figures are printed beside them.
REFERENCE_S = 0.00055
CALIBRATE_EVERY_S = 0.1
_REFERENCE_ADJ = tuple(tuple((7 * v + 13 * k) % 64 for k in range(6)) for v in range(64))


def _import_sgc() -> None:
    """Import ``sgc`` from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import sgc
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import sgc from {SRC}: {exc}")
    if Path(sgc.__file__).resolve().parent != SRC / "sgc":
        raise SystemExit(f"run.py: sgc resolved to {sgc.__file__}, not {SRC / 'sgc'}")


_import_sgc()

from sgc.errors import CertificateError  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, WrongAnswer  # noqa: E402


def _reference_work() -> int:
    """Breadth-first search from 16 vertices of a fixed 64-vertex graph, with
    the int bitmasks, lists and dicts the solvers use."""
    total = 0
    for source in range(0, 64, 4):
        seen = 1 << source
        frontier = [source]
        dist = {source: 0}
        while frontier:
            reached = []
            for u in frontier:
                for v in _REFERENCE_ADJ[u]:
                    if not seen >> v & 1:
                        seen |= 1 << v
                        dist[v] = dist[u] + 1
                        reached.append(v)
            frontier = reached
        total += sum(dist.values())
    return total


def host_speed() -> float:
    """Seconds the reference loop takes now: the best of three."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(3):
        start = clock()
        _reference_work()
        best = min(best, clock() - start)
    return best


def to_reference(seconds: float, before: float, after: float) -> float:
    """Measured seconds in reference seconds, given the reference loop's
    times before and after the measured stretch."""
    return seconds * 2 * REFERENCE_S / (before + after)


@dataclass
class PassResult:
    # Compact per-item columns: a run keeps every pass, and lists of floats
    # made peak_rss_mb grow by 1 MB a pass on corpus-sweep.
    latencies: array         # per item, in reference seconds
    wall: array              # per item, in measured seconds
    answered: bytes          # per item: 0 for an "unknown", else 1
    cache_entries: int

    @property
    def unknown(self) -> int:
        return self.answered.count(0)


def run_pass(workload, tracer: Tracer | None = None) -> PassResult:
    """Time every item of one fresh pass and check each answer.  Results are
    kept in the order the workload lists its items, whatever order they ran in."""
    items, finish, cache, order = workload.new_pass()
    if order is None:
        sequence = enumerate(items)
    else:
        items = list(items)
        sequence = ((index, items[index]) for index in order)
    timed = []
    speeds = [host_speed()]
    clock = time.perf_counter
    calibrated = clock()
    for index, item in sequence:
        if tracer is not None:
            tracer.item = index
        start = clock()
        result = item.call()
        end = clock()
        if tracer is not None:
            tracer.item = None
        # the item lies between speed samples len(speeds) - 1 and len(speeds)
        timed.append((index, end - start, item.check(result), len(speeds) - 1))
        if end - calibrated > CALIBRATE_EVERY_S:
            speeds.append(host_speed())
            calibrated = clock()
    speeds.append(host_speed())
    finish()
    timed.sort()
    return PassResult(array("d", (to_reference(t, speeds[c], speeds[c + 1]) for _, t, _, c in timed)),
                      array("d", (t for _, t, _, _ in timed)),
                      bytes(bool(a) for _, _, a, _ in timed), len(cache))


def tail_percentile(items_per_pass: int) -> float:
    """The highest percentile with at least ten items of one pass beyond it."""
    for q in TAIL_PERCENTILES:
        if items_per_pass - math.ceil(q / 100 * items_per_pass) >= 10:
            return q
    return TAIL_PERCENTILES[-1]


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of the order
    statistics with Beta((n+1)q, (n+1)(1-q)) weights (midpoint rule).  Unlike
    a single order statistic it does not jump when two items of different
    cost swap ranks between runs."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = [math.exp((a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
                        - (a - 1) * math.log(q) - (b - 1) * math.log(1 - q))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def measure(workload, seconds: float) -> list[PassResult]:
    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()     # every pass starts with the same garbage: none
        pass_start = time.perf_counter()
        passes.append(run_pass(workload))
        now = time.perf_counter()
        if now - started + (now - pass_start) > seconds:
            return passes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[PassResult], setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.  An item's latency is the
    median of its reference-second times over the run's passes."""
    latencies = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    wall = [statistics.median(times) for times in zip(*(p.wall for p in passes))]
    attempted = sum(len(p.latencies) for p in passes)
    unknown = sum(p.unknown for p in passes)
    q = tail_percentile(len(latencies))
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "items_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": _metric(quantile(latencies, 0.5) * 1e3, "ms"),
        "item_tail_ms": _metric(quantile(latencies, q / 100) * 1e3, "ms"),
        "answered_ratio": _metric(1.0 - unknown / attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"attempted": attempted, "failed": unknown, "tail_q": q, "items": len(latencies),
            "beyond": len(latencies) - math.ceil(q / 100 * len(latencies)),
            "fail_ratio": unknown / attempted, "passes": len(passes),
            "wall_items_per_s": len(wall) / sum(wall), "wall_p50_ms": quantile(wall, 0.5) * 1e3,
            "wall_tail_ms": quantile(wall, q / 100) * 1e3}
    return metrics, info


def print_end_to_end(metrics: dict, info: dict) -> None:
    print(f"{info['items']} items per pass, {info['passes']} pass(es)")
    for name, m in metrics.items():
        note = ""
        if name == "item_tail_ms":
            note = (f"  (p{info['tail_q']:g}: {info['beyond']} of the {info['items']} "
                    "items of a pass lie beyond it)")
        print(f"  {name:<15} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<15} {info['fail_ratio']:>14.6g} ratio"
          f"  ({info['failed']} of {info['attempted']} items unknown)")
    print(f"times are in reference seconds; measured on the wall clock: "
          f"{info['wall_items_per_s']:.6g} items/s, p50 {info['wall_p50_ms']:.6g} ms, "
          f"tail {info['wall_tail_ms']:.6g} ms")


def traced_run(workload) -> tuple[dict, dict]:
    untraced = run_pass(workload)
    gc.collect()
    tracer = Tracer()
    with tracer:
        traced = run_pass(workload, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    spans_meta, _ = tracer.write_spans(OUT_DIR / f"{workload.name}.spans")

    ips_untraced = len(untraced.latencies) / sum(untraced.latencies)
    ips_traced = len(traced.latencies) / sum(traced.latencies)
    metrics = layer_metrics(tracer, workload.graph_count, traced.cache_entries)
    metrics["trace.untraced_items_per_s"] = _metric(ips_untraced, "1/s")
    metrics["trace.traced_items_per_s"] = _metric(ips_traced, "1/s")
    metrics["trace.overhead_items_per_s"] = _metric(ips_untraced - ips_traced, "1/s")
    metrics["trace.spans"] = _metric(tracer.span_count(), "count")

    print(f"{'layer':<38} {'calls':>9} {'self_s':>9} {'self nodes':>12} {'yes':>6}")
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        if st.calls:
            yes = f"{st.yes / st.classified:.3f}" if st.classified else "-"
            print(f"{name:<38} {st.calls:>9} {st.self_s:>9.3f} {st.nodes:>12} {yes:>6}")
    print(f"tracing overhead: {ips_untraced:.6g} items/s untraced, "
          f"{ips_traced:.6g} traced, difference {ips_untraced - ips_traced:.6g} items/s")
    print(f"{tracer.span_count()} spans written to {spans_meta.relative_to(ROOT)} and .bin")
    attempted = len(untraced.latencies) + len(traced.latencies)
    return metrics, {"attempted": attempted, "failed": untraced.unknown + traced.unknown}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    setups = []
    started = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
        before = host_speed()
        start = time.perf_counter()
        workload = cls(args.seed)
        took = time.perf_counter() - start
        setups.append(to_reference(took, before, host_speed()))
    setup_s = statistics.median(setups)
    gc.collect()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            metrics, info = traced_run(workload)
            missing = set(PER_LAYER) - set(metrics)
            if missing:
                raise RuntimeError(f"per-layer metrics missing: {sorted(missing)}")
            metrics = {name: metrics[name] for name in PER_LAYER}
        else:
            passes = measure(workload, args.seconds)
            metrics, info = end_to_end(passes, setup_s)
            print_end_to_end(metrics, info)
    except (WrongAnswer, CertificateError) as exc:
        print(f"run.py: wrong answer on {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
