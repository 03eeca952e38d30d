"""Single-workload driver: runs in its own subprocess (spawned by run.py).

Order of work, which is also what each number covers:

1. imports (``startup_s``: parent spawn -> here), then ``SETUP_REPEATS``
   set-ups (graph build + warm-up repetition / initial converge);
   ``setup_s`` = startup + median set-up;
2. timed repetitions, tracing off, gc parked, until ``--seconds`` of
   measured time have passed and the workload's minimum count is met,
   the reference kernel timed before and after each one;
3. ``ru_maxrss`` -- read *before* the oracle runs, which is an in-memory
   engine far hungrier than the system under test;
4. checks: first repetition vs the oracle, every later one bit-identical
   to the first;
5. with ``--trace``: one repetition under the span recorder, then
   repetitions under the program's own ``TraceRecorder``.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import layers
from refkernel import ReferenceKernel
from spans import SpanRecorder
from workloads import WORKLOADS, Rep

from repro.obs import TraceRecorder

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: repetitions under ``tracer=TraceRecorder()`` for obs.tracer_overhead_share
TRACER_REPS = 3


class HarnessError(RuntimeError):
    """The harness could not produce a number it is willing to report."""


def host_stat(values: List[float], need: int) -> Dict[str, float]:
    """Median, quartiles and n of a host metric; refuses a short sample."""
    if len(values) < max(2, need):
        raise HarnessError(f"host metric has n={len(values)}, below the stated count {need}")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def point_stat(value: float, n: int) -> Dict[str, float]:
    """A host metric that is one number per run, in ``host_stat``'s shape."""
    return {"median": value, "q1": value, "q3": value, "n": n}


def timed_rep(fn: Callable[[], Rep]) -> Rep:
    """One repetition with the collector parked (collected first)."""
    gc.collect()
    gc.disable()
    try:
        return fn()
    finally:
        gc.enable()


def run_workload(args) -> Dict[str, Any]:
    startup_s = time.time() - args.spawned_at
    w = WORKLOADS[args.workload](args.seed, args.quick)

    setup_samples: List[float] = []
    graph_build: List[float] = []

    def do_setup() -> None:
        t0 = time.perf_counter()
        w.setup()
        setup_samples.append(time.perf_counter() - t0)
        graph_build.append(w.graph_build_s)

    for _ in range(SETUP_REPEATS):
        do_setup()

    # The machine's speed, sampled right before and after every timed
    # segment (see refkernel.py); a stream pass is long, so its marks
    # take three samples each.
    kernel = ReferenceKernel()
    ref_samples: List[float] = []

    def machine_speed() -> float:
        mine = [kernel.run() for _ in range(3 if w.fresh_setup_per_rep else 1)]
        ref_samples.extend(mine)
        return statistics.median(mine)

    def measure() -> Tuple[Rep, float, float]:
        """One repetition; its wall and cpu time in reference-kernel units.

        Each segment is divided by the mean of the two marks around it.
        """
        marks = [machine_speed()]
        rep = timed_rep(lambda: w.repetition(between=lambda: marks.append(machine_speed())))
        marks.append(machine_speed())
        if len(marks) != len(rep.segments) + 1:
            raise HarnessError(f"{len(rep.segments)} segments but {len(marks)} reference marks")
        refs = [(a + b) / 2.0 for a, b in zip(marks, marks[1:])]
        wall_rel = sum(wall / r for (wall, _), r in zip(rep.segments, refs))
        cpu_rel = sum(cpu / r for (_, cpu), r in zip(rep.segments, refs))
        return rep, wall_rel, cpu_rel

    # -- timed repetitions (tracing off) ------------------------------------
    reps: List[Rep] = []
    wall_rel: List[float] = []
    cpu_rel: List[float] = []
    checks: List[Dict[str, Any]] = []
    measured = 0.0
    while len(reps) < w.min_reps or (not args.quick and measured < args.seconds):
        if reps and w.fresh_setup_per_rep:
            do_setup()
        rep, wr, cr = measure()
        wall_rel.append(wr)
        cpu_rel.append(cr)
        measured += rep.wall_s
        if reps:
            checks.append({
                "check": f"rep{len(reps)}_identical_to_first",
                "ok": rep.fingerprint == reps[0].fingerprint,
            })
            rep.results = []  # only the first repetition's results are read again
        reps.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = reps[0]
    mismatches = w.oracle_mismatches(first)
    checks.append({"check": "first_rep_vs_oracle", "ok": not mismatches, "detail": mismatches[:4]})

    # -- end-to-end metrics ---------------------------------------------------
    need = w.min_reps
    host = {
        "wall_s": host_stat([r.wall_s for r in reps], need),
        "cpu_s": host_stat([r.cpu_s for r in reps], need),
        "edges_per_s": host_stat([r.edges / r.engine_wall_s for r in reps], need),
        "ref_s": host_stat(ref_samples, need),
        "wall_rel": host_stat(wall_rel, need),
        "cpu_rel": host_stat(cpu_rel, need),
        "setup_s": host_stat([startup_s + s for s in setup_samples], SETUP_REPEATS),
        "peak_rss_mb": point_stat(peak_rss_mb, 1),
    }
    if first.batch_s:
        # Each batch position takes the median of its passes; percentiles
        # are over the positions, so p90 of 120 has 12 samples beyond it.
        per_position = np.median(np.array([r.batch_s for r in reps]), axis=0) * 1e3
        records = w.n_batches * w.batch_records
        host["updates_per_s"] = host_stat([records / sum(r.batch_s) for r in reps], need)
        for p in (50, 90):
            host[f"batch_ms_p{p}"] = point_stat(float(np.percentile(per_position, p)), len(reps))

    out: Dict[str, Any] = {
        "workload": w.name,
        "config": w.config_name,
        "config_dict": dataclasses.asdict(w.config),
        "seed": args.seed,
        "quick": args.quick,
        "repetitions": len(reps),
        "measured_s": measured,
        "startup_s": startup_s,
        "host": host,
        "simulated": first.sim,
        "checks": checks,
    }
    if args.trace:
        out["per_layer"] = traced_runs(
            w, Path(args.trace_dir), first, host["wall_rel"]["median"], measure, checks
        )
        out["per_layer"]["graph.build_s"] = statistics.median(graph_build)
        out["per_layer"]["graph.vertices"] = w.graph.n
        out["per_layer"]["graph.edges"] = w.graph.m
    out["attempted"] = len(checks)
    out["failed"] = sum(not c["ok"] for c in checks)
    return out


def traced_runs(
    w, trace_dir: Path, first: Rep, wall_rel: float, measure: Callable[[], Tuple[Rep, float, float]],
    checks: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Per-layer metrics: one span-recorded repetition, then tracer repetitions.

    Overhead shares compare one repetition with the untraced median, so
    both sides are taken relative to the reference kernel beside them.
    """
    per_layer = layers.counted(first.results, first.stream)

    if w.fresh_setup_per_rep:
        w.setup()
    rec = SpanRecorder()
    rec.rep = 1
    layers.install(rec)
    try:
        traced, traced_rel, _ = measure()
    finally:
        rec.restore()
    checks.append({"check": "span_traced_rep_identical_to_first",
                   "ok": traced.fingerprint == first.fingerprint})
    per_layer.update(layers.timed(rec))
    per_layer["bench.span_overhead_share"] = traced_rel / wall_rel - 1.0
    trace_dir.mkdir(parents=True, exist_ok=True)
    rec.write_jsonl(trace_dir / f"trace-{w.name}.jsonl")

    # The program's own tracer: what it costs, how much it emits, and the
    # per-device busy clocks only its device_stats event exposes.
    rels: List[float] = []
    n_reps = 1 if w.fresh_setup_per_rep else TRACER_REPS  # a stream pass is ~6 s
    for _ in range(n_reps):
        w.tracer = TraceRecorder()
        if w.fresh_setup_per_rep:
            w.setup()
        events_before = len(w.tracer.events)
        rep, rel, _ = measure()
        rels.append(rel)
        checks.append({"check": "tracer_rep_identical_to_first",
                       "ok": rep.fingerprint == first.fingerprint})
    events = w.tracer.events[events_before:]
    w.tracer = None
    per_layer["obs.tracer_overhead_share"] = statistics.median(rels) / wall_rel - 1.0
    per_layer["obs.events"] = len(events)
    busy = [ev.fields["busy_us"] for ev in events if ev.kind == "device_stats"]
    if busy and sum(busy[-1]):
        per_layer["array.skew"] = max(busy[-1]) / (sum(busy[-1]) / len(busy[-1]))
    return per_layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.time() at spawn")
    ap.add_argument("--trace-dir", required=True)
    args = ap.parse_args(argv)
    out = run_workload(args)
    out["host_info"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
