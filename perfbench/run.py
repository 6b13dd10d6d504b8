"""Benchmark of buchi4: one workload per run, single process, single thread.

Usage, from the root of a buchi4 checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Workloads (workloads.py): search, descent, family-values and curves.  The
run imports buchi4 from ./src, runs the workload's batch in a closed loop
for --seconds seconds, checks every output exactly, and prints a summary
line and, last, one JSON object {"correct", "attempted", "failed",
"metrics"}.

With --trace 0 the metrics are the end-to-end ones:

  wall_s        one batch's time with every request at its fastest over the
                run's batches.  A shared host's speed drifts by tens of
                percent within seconds; the fastest of many short requests
                is what repeats from run to run.
  point_p50_ms  median of those per-request fastest times.
  point_p99_ms  their 99th percentile (nearest rank).  family-values and
                curves issue the 1000 requests a batch that leave ten
                beyond it; on descent (24 requests) it is the slowest
                request, and on search (one request) both point metrics
                equal wall_s.  Every workload reports them, as every run
                reports every end-to-end metric.
  setup_s       fastest over fresh interpreters, started between batches
                across the run, of importing buchi4 and loading its
                assets.
  peak_rss_mb   peak resident memory of the run process.

fail_ratio, failed over attempted, is printed in the summary line only: it
is 0 on every correct run, so it is no metric to bound.

With --trace 1 the loop runs untraced and then traced, for half of
--seconds each, and the metrics are the per-layer ones: self time per layer
from the spans and counts, each the least over the traced batches plus the
workload's traced extras, the tracing overhead, and the kernel timings of
kernels.py.  Spans are written to perfbench/out/.  The seed drives the
family-values inputs and the kernel samples, nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from collections import defaultdict
from math import ceil
from pathlib import Path
from random import Random
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 20
# import plus the lazy asset loads, timed in a fresh interpreter
SETUP_CODE = """
import time
t0 = time.perf_counter()
import buchi4
from buchi4 import families, maps, search
maps.phi_map()
families.p_family()
families.r_family(1)
search.bundled_table()
print(time.perf_counter() - t0)
print(buchi4.__file__)
"""

FAMILY_KINDS = ("trivial", "xi", "p", "r")
# no workload input is trivial, so that verdict has no count metric
VERDICTS = ("xi", "p", "r", "lift", "sporadic")
SPAN_METRICS = {
    "search.enumerate_sequences": "search.enumerate_s",
    "search.two_squares": "search.two_squares_s",
    "search.compare_with_table": "search.compare_s",
    "families.extends_left": "families.extends_s",
    "families.extends_right": "families.extends_s",
    "curves.curve_rhs": "curves.curve_rhs_s",
    "curves.is_squarefree": "curves.is_squarefree_s",
    "curves.scan_integer_points": "curves.scan_s",
}
# span name -> count metric summing the span tags (len of the result)
TAG_COUNTS = {
    "search.enumerate_sequences": "search.rows",
    "curves.scan_integer_points": "curves.hits",
}
LAYER_UNITS = {
    **{m: "s" for m in SPAN_METRICS.values()},
    **{f"families.classify_{g}_s": "s" for g in ("family", "lift", "sporadic")},
    **{f"families.verdict.{k}": "count" for k in VERDICTS},
    "search.rows": "count",
    "curves.hits": "count",
    "trace.loop_s": "s",
    "trace.spans": "count",
}


def setup_once():
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    secs, where = done.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported buchi4 from {where}")
    return float(secs)


def p99(values):
    """The 99th percentile by nearest rank."""
    return sorted(values)[ceil(0.99 * len(values)) - 1]


def closed_loop(wl, rec, seconds, setup_times=None):
    """Run batches until seconds have passed (at least one); check each
    batch's outputs outside the timed region.  A batch whose outputs equal
    the first batch's gets the first batch's verdict, which keeps the
    checks short and the batches many; any other batch is checked in full.
    With a setup_times list, also time SETUP_REPEATS fresh-interpreter
    set-ups between batches, spread evenly over the run.  Returns (batch
    walls, checked, failed, first batch's outputs)."""
    walls, checked, failed, first = [], 0, 0, None
    start = perf_counter()
    deadline = start + seconds
    while True:
        t0 = perf_counter()
        out = rec.body(wl.body, rec)
        walls.append(perf_counter() - t0)
        if first is None:
            first, first_verdict = out, wl.check(out)
        c, f = first_verdict if out == first else wl.check(out)
        checked += c
        failed += f
        now = perf_counter()
        if setup_times is not None and (
            len(setup_times) < SETUP_REPEATS * (now - start) / seconds
            or now >= deadline and not setup_times
        ):
            setup_times.append(setup_once())
        if perf_counter() >= deadline:
            return walls, checked, failed, first


def layer_metrics(tracer):
    """Per-layer metrics from the spans: the least over traced batches of
    each layer's self time and counts, plus those of the spans outside any
    batch (the workload's traced extras, run once)."""
    per_body, outside = [], defaultdict(float)
    for trace, items in tracer.self_times().items():
        m = dict.fromkeys(LAYER_UNITS, 0)
        for name, tag, secs in items:
            if name == "families.classify":
                group = "family" if tag in FAMILY_KINDS else tag
                m[f"families.classify_{group}_s"] += secs
                if tag in VERDICTS:
                    m[f"families.verdict.{tag}"] += 1
            else:
                m[SPAN_METRICS.get(name, "trace.loop_s")] += secs
            if name in TAG_COUNTS:
                m[TAG_COUNTS[name]] += tag
            m["trace.spans"] += 1
        if tracer.spans[trace][0] == "body":
            per_body.append(m)
        else:
            for k, v in m.items():
                outside[k] += v
    out = {k: min(m[k] for m in per_body) + outside[k] for k in LAYER_UNITS}
    return {k: (v, LAYER_UNITS[k]) for k, v in out.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "buchi4" / "__init__.py").is_file():
        print(f"error: no buchi4 package under {SRC}", file=sys.stderr)
        return 2

    setup_once()  # warms the bytecode cache
    sys.path.insert(0, str(SRC))
    import buchi4
    from buchi4 import families, maps, search

    if not Path(buchi4.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported buchi4 from {buchi4.__file__}", file=sys.stderr)
        return 2
    maps.phi_map()
    families.p_family()
    families.r_family(1)
    search.bundled_table()

    import kernels
    from spans import Recorder, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)

    loop_s = args.seconds / 2 if args.trace else args.seconds
    rec = Recorder()
    setup_times = None if args.trace else []
    walls, checked, failed, first = closed_loop(wl, rec, loop_s, setup_times)
    best = rec.best_latencies()
    wall_s = sum(best)
    lat_ms = [s * 1e3 for s in best]
    summary = (
        f"workload={wl.name} seed={args.seed} batches={len(walls)} "
        f"wall_s={wall_s:.4f}"
    )
    if not args.trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (min(setup_times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
            "point_p50_ms": (median(lat_ms), "ms"),
            "point_p99_ms": (p99(lat_ms), "ms"),
        }
        summary += (
            f" setup_s={metrics['setup_s'][0]:.4f}"
            f" peak_rss_mb={metrics['peak_rss_mb'][0]:.1f}"
            f" point_p50_ms={metrics['point_p50_ms'][0]:.4f}"
            f" point_p99_ms={metrics['point_p99_ms'][0]:.4f}"
            f" ({len(lat_ms)} points)"
        )
    else:
        tracer = Tracer()
        twalls, c, f, tfirst = closed_loop(wl, tracer, loop_s)
        # the traced outputs must equal the untraced ones
        checked, failed = checked + c + 1, failed + f + (tfirst != first)
        if hasattr(wl, "traced_extras"):
            c, f = wl.traced_extras(tracer, tfirst)
            checked, failed = checked + c, failed + f
        metrics = layer_metrics(tracer)
        metrics["trace.wall_s"] = (min(twalls), "s")
        metrics["trace.overhead_s"] = (min(twalls) - min(walls), "s")
        metrics.update(kernels.kernel_metrics(Random(f"kernels-{args.seed}"), wl))
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json")
        summary += f" trace_wall_s={min(twalls):.4f} spans={len(tracer.spans)}"

    summary += f" fail_ratio={failed / checked:g} ({failed}/{checked})"
    print(summary)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checked,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
