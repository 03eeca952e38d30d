#!/usr/bin/env python
"""Deterministic one-knob savings on the superstep hot path.

Runs PageRank, SSSP and CDLP (and, for ``--stream``, WCC/SSSP/BFS) on
the paper-scale synthetic graphs with one storage-stack feature on and
off, and reports the *simulated* saving: page cache, superstep I/O
planner, worker lanes, device array, incremental recompute.  Every
number is simulation output, so it is machine-independent and exactly
reproducible; host wall-clock is gated by ``benchmarks/e2e``
(``BENCHMARK.json``), not here.  Results land in ``BENCH_hotpath.json``
next to the repo root: top-level bench-scale numbers plus a ``smoke``
section holding the CI-sized references.

``--check`` is the CI gate: it re-measures every section present in the
committed smoke reference and fails when a saving drops below
``--threshold`` (default 0.75) of the committed one.  The smoke cache
rows run a cache smaller than the smoke working set, and the gate also
fails when one of them evicts nothing.

Usage:
    PYTHONPATH=src python tools/bench_hotpath.py --cache --io-plan --workers 4 \
        --devices 4 --stream                                        # full bench
    PYTHONPATH=src python tools/bench_hotpath.py --smoke --cache    # CI-sized
    PYTHONPATH=src python tools/bench_hotpath.py --smoke ... --out BENCH_hotpath.json
                                        # refresh the measured smoke sections
    PYTHONPATH=src python tools/bench_hotpath.py --check BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import DEFAULT_CONFIG  # noqa: E402
from repro.core import MultiLogVC  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.options import EngineOptions  # noqa: E402
from repro.graph.datasets import cf_like  # noqa: E402
from repro.algorithms import (  # noqa: E402
    BFSProgram,
    CommunityDetectionProgram,
    DeltaPageRankProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.stream import StreamSession, random_delta  # noqa: E402


def build_workloads(scale: str, steps_scale: float):
    graph = cf_like(scale=scale)
    graph_w = cf_like(scale=scale, weighted=True)
    s = lambda n: max(2, int(n * steps_scale))
    return [
        ("pagerank", graph, lambda: DeltaPageRankProgram(threshold=1e-3), s(10)),
        ("sssp", graph_w, lambda: SSSPProgram(source=0), s(15)),
        ("cdlp", graph, lambda: CommunityDetectionProgram(), s(5)),
    ]


#: The smoke rows' cache: 22 pages, one fewer than PageRank's 23-page
#: smoke working set, so every smoke program evicts and the ``--check``
#: gate sees the eviction policy.  Bench rows use the default budget.
SMOKE_CACHE_BYTES = 22 * DEFAULT_CONFIG.ssd.page_size


def measure_cache(scale: str, steps_scale: float, cache_bytes=None):
    """Simulated-I/O comparison: default config vs the same + page cache
    of ``cache_bytes`` (None: the default budget).

    Everything here is deterministic simulation output (no wall clock),
    so the numbers are machine-independent and exactly reproducible.
    Returns None if any workload's cache-on values differ from cache-off.
    """
    cfg = DEFAULT_CONFIG
    out = {}
    for name, graph, factory, steps in build_workloads(scale, steps_scale):
        off = MultiLogVC(graph, factory(), cfg).run(steps, seed=0)
        reg = MetricsRegistry()
        on = MultiLogVC(
            graph, factory(), cfg.with_cache(cache_bytes=cache_bytes), metrics=reg
        ).run(steps, seed=0)
        same = np.array_equal(
            np.nan_to_num(off.values, posinf=-1),
            np.nan_to_num(on.values, posinf=-1),
        )
        if not same:
            print(f"ERROR: {name}: cache-on values differ from cache-off", file=sys.stderr)
            return None
        io_off = off.stats.total_time_us
        io_on = on.stats.total_time_us
        reduction = (io_off - io_on) / io_off if io_off > 0 else 0.0
        snap = reg.snapshot()
        row = {
            "io_time_off_us": round(io_off, 1),
            "io_time_on_us": round(io_on, 1),
            "io_reduction": round(reduction, 4),
            "read_pages_off": int(off.stats.pages_read),
            "read_pages_on": int(on.stats.pages_read),
            "hit_rate": round(float(snap.get("cache.hit_rate", 0.0)), 4),
            "evictions": int(snap.get("cache.evictions", 0)),
            "values_identical": True,
        }
        out[name] = row
        print(
            f"{name:10s} io_off={io_off:10.0f}us  io_on={io_on:10.0f}us"
            f"  saved={100 * reduction:5.1f}%  hit_rate={row['hit_rate']:6.2%}"
            f"  reads {row['read_pages_off']}->{row['read_pages_on']}"
            f"  evictions={row['evictions']}"
        )
    return out


def measure_io_plan(scale: str, steps_scale: float):
    """Simulated-I/O comparison: per-path batches vs the superstep I/O planner.

    Runs each workload with ``min_intervals=8`` so supersteps carry
    fused multi-interval groups -- the shape where the seed engine pays
    one device batch per interval per storage class, which is exactly
    the demand the planner folds into extents and channel-balanced
    waves (DESIGN.md §13).  Planned runs read the same pages (checked)
    and produce bit-identical values (checked); only batching and
    simulated storage time change.  All numbers are deterministic
    simulation output, so they are machine-independent.
    Returns None on any value or page-count divergence.
    """
    cfg = DEFAULT_CONFIG
    cfg_on = cfg.with_io_plan("coalesce")
    opts = EngineOptions(min_intervals=8)
    out = {}
    for name, graph, factory, steps in build_workloads(scale, steps_scale):
        off = MultiLogVC(graph, factory(), cfg, options=opts).run(steps, seed=0)
        reg = MetricsRegistry()
        on = MultiLogVC(graph, factory(), cfg_on, options=opts, metrics=reg).run(
            steps, seed=0
        )
        same = np.array_equal(
            np.nan_to_num(off.values, posinf=-1),
            np.nan_to_num(on.values, posinf=-1),
        )
        if not same:
            print(f"ERROR: {name}: planned values differ from unplanned", file=sys.stderr)
            return None
        if int(on.stats.pages_read) != int(off.stats.pages_read):
            print(
                f"ERROR: {name}: planner changed charged read pages "
                f"({off.stats.pages_read} -> {on.stats.pages_read})",
                file=sys.stderr,
            )
            return None
        io_off = off.stats.total_time_us
        io_on = on.stats.total_time_us
        reduction = (io_off - io_on) / io_off if io_off > 0 else 0.0
        snap = reg.snapshot()
        row = {
            "io_time_off_us": round(io_off, 1),
            "io_time_on_us": round(io_on, 1),
            "io_reduction": round(reduction, 4),
            "read_time_off_us": round(off.stats.read_time_us, 1),
            "read_time_on_us": round(on.stats.read_time_us, 1),
            "read_pages": int(off.stats.pages_read),
            "batches_folded": int(snap.get("io.batches_folded", 0)),
            "waves": int(snap.get("io.waves", 0)),
            "extent_pages": int(snap.get("io.extent_pages", 0)),
            "saved_us": round(float(snap.get("io.saved_us", 0.0)), 1),
            "values_identical": True,
        }
        out[name] = row
        print(
            f"{name:10s} io_off={io_off:10.0f}us  io_on={io_on:10.0f}us"
            f"  saved={100 * reduction:5.1f}%"
            f"  batches {row['batches_folded']}->{row['waves']} waves"
        )
    return out


def measure_parallel(scale: str, steps_scale: float, workers: int):
    """Simulated-latency comparison: one lane vs ``workers`` simulated lanes.

    The committed accounting (I/O time, compute time, values) is
    bit-identical at any lane count by construction; what the lane
    model reports is *overlap* -- independent interval groups on
    separate lanes hide each other's latency, bounded by per-channel
    device contention (DESIGN.md §11).  Modelled latency is
    ``storage + compute - saved_us``.  All numbers are deterministic
    simulation output, so they are machine-independent.
    Returns None if any workload's parallel values differ from serial.
    """
    cfg = DEFAULT_CONFIG
    # Fusing would merge the small intervals back into one group per
    # superstep, leaving nothing to overlap; keep groups separate.
    opts = EngineOptions(min_intervals=16, enable_fusing=False)
    out = {}
    for name, graph, factory, steps in build_workloads(scale, steps_scale):
        serial = MultiLogVC(graph, factory(), cfg, options=opts).run(steps, seed=0)
        reg = MetricsRegistry()
        par = MultiLogVC(
            graph, factory(), cfg.with_workers(workers), options=opts, metrics=reg
        ).run(steps, seed=0)
        same = np.array_equal(
            np.nan_to_num(serial.values, posinf=-1),
            np.nan_to_num(par.values, posinf=-1),
        )
        if not same:
            print(f"ERROR: {name}: parallel values differ from serial", file=sys.stderr)
            return None
        snap = reg.snapshot()
        saved = float(snap.get("scheduler.saved_us", 0.0))
        serial_lat = serial.stats.total_time_us + serial.compute_time_us
        par_lat = serial_lat - saved
        reduction = saved / serial_lat if serial_lat > 0 else 0.0
        row = {
            "workers": int(workers),
            "serial_latency_us": round(serial_lat, 1),
            "parallel_latency_us": round(par_lat, 1),
            "saved_us": round(saved, 1),
            "latency_reduction": round(reduction, 4),
            "values_identical": True,
        }
        out[name] = row
        print(
            f"{name:10s} serial={serial_lat:10.0f}us  W={workers}:"
            f" {par_lat:10.0f}us  saved={100 * reduction:5.1f}%"
        )
    return out


def measure_devices(scale: str, steps_scale: float, devices: int):
    """Simulated-latency comparison: one SSD vs a striped device array.

    The committed accounting (values, charged pages, SSDStats) is
    bit-identical at any device count by construction; what the array
    buys is *device-level overlap* -- pages of a batch that land on
    different devices serve their channel queues concurrently, so the
    array-clock time for the batch is the max over per-device times
    rather than the single-device total (DESIGN.md §14).  Modelled
    storage latency on the array is ``serial_us - saved_us`` where both
    counters come from the array's overlay.  All numbers are
    deterministic simulation output, so they are machine-independent.
    Returns None if any workload's array values or charged page counts
    differ from the single-device run.
    """
    cfg = DEFAULT_CONFIG
    out = {}
    for name, graph, factory, steps in build_workloads(scale, steps_scale):
        one = MultiLogVC(graph, factory(), cfg.with_devices(1)).run(steps, seed=0)
        reg = MetricsRegistry()
        arr = MultiLogVC(
            graph, factory(), cfg.with_devices(devices, "stripe"), metrics=reg
        ).run(steps, seed=0)
        same = np.array_equal(
            np.nan_to_num(one.values, posinf=-1),
            np.nan_to_num(arr.values, posinf=-1),
        )
        if not same:
            print(f"ERROR: {name}: array values differ from single device", file=sys.stderr)
            return None
        if int(arr.stats.pages_read) != int(one.stats.pages_read) or int(
            arr.stats.pages_written
        ) != int(one.stats.pages_written):
            print(
                f"ERROR: {name}: array changed charged page counts "
                f"(read {one.stats.pages_read} -> {arr.stats.pages_read}, "
                f"write {one.stats.pages_written} -> {arr.stats.pages_written})",
                file=sys.stderr,
            )
            return None
        snap = reg.snapshot()
        serial_us = float(snap.get("device.serial_us", 0.0))
        saved = float(snap.get("device.saved_us", 0.0))
        array_us = float(snap.get("device.array_us", serial_us))
        reduction = saved / serial_us if serial_us > 0 else 0.0
        row = {
            "devices": int(devices),
            "serial_storage_us": round(serial_us, 1),
            "array_storage_us": round(array_us, 1),
            "saved_us": round(saved, 1),
            "storage_reduction": round(reduction, 4),
            "pages_read": int(one.stats.pages_read),
            "pages_written": int(one.stats.pages_written),
            "values_identical": True,
        }
        out[name] = row
        print(
            f"{name:10s} serial={serial_us:10.0f}us  D={devices}:"
            f" {array_us:10.0f}us  saved={100 * reduction:5.1f}%"
        )
    return out


def measure_stream(scale: str, delta_fraction: float = 0.005):
    """Simulated-I/O comparison: incremental vs full recompute (DESIGN.md §12).

    For each warm-start-capable workload: converge once, apply a small
    insertion batch (``delta_fraction`` of the edges), then bring the
    values up to date both ways on the same updated graph.  The
    incremental cost counts its warm-start seeding I/O.  Insert-only
    deltas reset nothing, so they isolate the seeding and convergence
    savings.  A deletion resets its tight cone (the vertices whose
    value actually came through a deleted edge, DESIGN.md §12) and
    pays an edge-storage sweep for in-edge discovery; that mixed-delta
    case is measured end to end by the ``stream_churn`` benchmark
    workload and checked by the conformance fuzzer.  All numbers are
    deterministic simulation output, so they are machine-independent.
    Returns None if either path's final values differ -- they are
    defined to be bit-identical.
    """
    cfg = DEFAULT_CONFIG
    graph = cf_like(scale=scale)
    graph_w = cf_like(scale=scale, weighted=True)
    workloads = [
        ("wcc", graph, lambda: WCCProgram()),
        ("sssp", graph_w, lambda: SSSPProgram(source=0)),
        ("bfs", graph, lambda: BFSProgram(source=0)),
    ]
    out = {}
    for i, (name, g, factory) in enumerate(workloads):
        n_ops = max(4, int(g.m * delta_fraction))
        rng = np.random.default_rng([20260809, i])
        src, dst = g.edge_array()
        delta = random_delta(
            rng, g.n, src, dst, n_ops, p_delete=0.0, weighted=g.weights is not None
        )
        inc = StreamSession(g, factory(), config=cfg)
        inc.recompute(max_supersteps=200)
        inc.ingest(delta)
        inc.apply_updates()
        r_inc = inc.recompute(max_supersteps=200, mode="incremental")
        full = StreamSession(g, factory(), config=cfg)
        full.ingest(delta)
        full.apply_updates()
        r_full = full.recompute(max_supersteps=200, mode="full")
        same = np.array_equal(
            np.nan_to_num(r_inc.result.values, posinf=-1),
            np.nan_to_num(r_full.result.values, posinf=-1),
        )
        if not same or r_inc.mode != "incremental":
            print(f"ERROR: {name}: incremental recompute diverged from full", file=sys.stderr)
            return None
        inc_io = r_inc.seed_io_us + r_inc.result.stats.total_time_us
        full_io = r_full.result.stats.total_time_us
        reduction = (full_io - inc_io) / full_io if full_io > 0 else 0.0
        row = {
            "graph_vertices": int(g.n),
            "graph_edges": int(g.m),
            "delta_records": int(delta.n),
            "delta_fraction": round(delta.n / max(1, g.m), 4),
            "seed_io_us": round(r_inc.seed_io_us, 1),
            "incremental_io_us": round(inc_io, 1),
            "full_io_us": round(full_io, 1),
            "io_reduction": round(reduction, 4),
            "incremental_supersteps": int(r_inc.result.n_supersteps),
            "full_supersteps": int(r_full.result.n_supersteps),
            "values_identical": True,
        }
        out[name] = row
        print(
            f"{name:10s} delta={row['delta_records']:4d} ({row['delta_fraction']:.2%})"
            f"  incr={inc_io:10.0f}us  full={full_io:10.0f}us"
            f"  saved={100 * reduction:5.1f}%"
            f"  steps {row['incremental_supersteps']}/{row['full_supersteps']}"
        )
    return out


def check_regression(baseline_path: str, threshold: float) -> int:
    """CI gate: fail when any smoke saving regresses past ``threshold``."""
    committed = json.loads(Path(baseline_path).read_text())
    if not committed.get("smoke"):
        print(
            f"ERROR: {baseline_path} has no smoke reference; regenerate with "
            f"'bench_hotpath.py --smoke ... --out {baseline_path}'",
            file=sys.stderr,
        )
        return 2
    failed = []
    cache_ref = committed.get("smoke", {}).get("cache")
    if cache_ref:
        cache_now = measure_cache("test", 0.4, SMOKE_CACHE_BYTES)
        if cache_now is None:
            return 1
        for name, ref in cache_ref.items():
            got = cache_now.get(name)
            if got is None:
                failed.append(f"{name}: kernel missing from cache benchmark")
                continue
            floor = threshold * ref["io_reduction"]
            ok = got["io_reduction"] >= floor and got["hit_rate"] > 0.0 and got["evictions"] > 0
            print(
                f"{name:10s} cache: committed saved={ref['io_reduction']:.1%}  "
                f"measured={got['io_reduction']:.1%}  floor={floor:.1%}  "
                f"{'ok' if ok else 'REGRESSED'}"
            )
            if got["io_reduction"] < floor:
                failed.append(
                    f"{name}: cache io reduction {got['io_reduction']:.1%} fell "
                    f"below {floor:.1%} ({threshold:.0%} of committed "
                    f"{ref['io_reduction']:.1%})"
                )
            if got["hit_rate"] <= 0.0:
                failed.append(f"{name}: cache hit rate is zero")
            if got["evictions"] <= 0:
                failed.append(f"{name}: the smoke cache evicted nothing")
    io_plan_ref = committed.get("smoke", {}).get("io_plan")
    if io_plan_ref:
        io_now = measure_io_plan("test", 0.4)
        if io_now is None:
            return 1
        for name, ref in io_plan_ref.items():
            got = io_now.get(name)
            if got is None:
                failed.append(f"{name}: kernel missing from io-plan benchmark")
                continue
            floor = threshold * ref["io_reduction"]
            ok = got["io_reduction"] >= floor and got["saved_us"] > 0.0
            print(
                f"{name:10s} io-plan: committed saved={ref['io_reduction']:.1%}  "
                f"measured={got['io_reduction']:.1%}  floor={floor:.1%}  "
                f"{'ok' if ok else 'REGRESSED'}"
            )
            if got["io_reduction"] < floor:
                failed.append(
                    f"{name}: io-plan reduction {got['io_reduction']:.1%} fell "
                    f"below {floor:.1%} ({threshold:.0%} of committed "
                    f"{ref['io_reduction']:.1%})"
                )
            if got["saved_us"] <= 0.0:
                failed.append(f"{name}: io planner saved no simulated time")
    parallel_ref = committed.get("smoke", {}).get("parallel")
    if parallel_ref:
        workers = max(r["workers"] for r in parallel_ref.values())
        par_now = measure_parallel("test", 0.4, workers)
        if par_now is None:
            return 1
        for name, ref in parallel_ref.items():
            got = par_now.get(name)
            if got is None:
                failed.append(f"{name}: kernel missing from parallel benchmark")
                continue
            floor = threshold * ref["latency_reduction"]
            ok = got["latency_reduction"] >= floor and got["saved_us"] > 0.0
            print(
                f"{name:10s} parallel: committed saved={ref['latency_reduction']:.1%}  "
                f"measured={got['latency_reduction']:.1%}  floor={floor:.1%}  "
                f"{'ok' if ok else 'REGRESSED'}"
            )
            if got["latency_reduction"] < floor:
                failed.append(
                    f"{name}: parallel latency reduction "
                    f"{got['latency_reduction']:.1%} fell below {floor:.1%} "
                    f"({threshold:.0%} of committed {ref['latency_reduction']:.1%})"
                )
            if got["saved_us"] <= 0.0:
                failed.append(f"{name}: worker lanes saved no simulated time")
    devices_ref = committed.get("smoke", {}).get("devices")
    if devices_ref:
        n_devices = max(r["devices"] for r in devices_ref.values())
        dev_now = measure_devices("test", 0.4, n_devices)
        if dev_now is None:
            return 1
        for name, ref in devices_ref.items():
            got = dev_now.get(name)
            if got is None:
                failed.append(f"{name}: kernel missing from device benchmark")
                continue
            floor = threshold * ref["storage_reduction"]
            ok = got["storage_reduction"] >= floor and got["saved_us"] > 0.0
            print(
                f"{name:10s} devices: committed saved={ref['storage_reduction']:.1%}  "
                f"measured={got['storage_reduction']:.1%}  floor={floor:.1%}  "
                f"{'ok' if ok else 'REGRESSED'}"
            )
            if got["storage_reduction"] < floor:
                failed.append(
                    f"{name}: device-array storage reduction "
                    f"{got['storage_reduction']:.1%} fell below {floor:.1%} "
                    f"({threshold:.0%} of committed {ref['storage_reduction']:.1%})"
                )
            if got["saved_us"] <= 0.0:
                failed.append(f"{name}: device array saved no simulated time")
    stream_ref = committed.get("smoke", {}).get("stream")
    if stream_ref:
        stream_now = measure_stream("test")
        if stream_now is None:
            return 1
        for name, ref in stream_ref.items():
            got = stream_now.get(name)
            if got is None:
                failed.append(f"{name}: kernel missing from stream benchmark")
                continue
            floor = threshold * ref["io_reduction"]
            beats = got["incremental_io_us"] < got["full_io_us"]
            ok = got["io_reduction"] >= floor and beats
            print(
                f"{name:10s} stream: committed saved={ref['io_reduction']:.1%}  "
                f"measured={got['io_reduction']:.1%}  floor={floor:.1%}  "
                f"{'ok' if ok else 'REGRESSED'}"
            )
            if got["io_reduction"] < floor:
                failed.append(
                    f"{name}: incremental io reduction {got['io_reduction']:.1%} "
                    f"fell below {floor:.1%} ({threshold:.0%} of committed "
                    f"{ref['io_reduction']:.1%})"
                )
            if not beats:
                failed.append(
                    f"{name}: incremental recompute no longer beats full "
                    f"({got['incremental_io_us']:.0f}us >= {got['full_io_us']:.0f}us)"
                )
    if failed:
        for msg in failed:
            print(f"ERROR: {msg}", file=sys.stderr)
        return 1
    n_cache = len(cache_ref) if cache_ref else 0
    n_io = len(io_plan_ref) if io_plan_ref else 0
    n_par = len(parallel_ref) if parallel_ref else 0
    n_dev = len(devices_ref) if devices_ref else 0
    n_stream = len(stream_ref) if stream_ref else 0
    print(
        f"benchmark gate OK ({n_cache} cache, {n_io} io-plan, {n_par} parallel, "
        f"{n_dev} device and {n_stream} stream reference(s) within "
        f"{threshold:.0%} of committed)"
    )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="tiny graphs (CI-sized)")
    ap.add_argument(
        "--out", default=None, metavar="PATH",
        help="write results as JSON (bench runs default to BENCH_hotpath.json; "
             "with --smoke, updates only the file's 'smoke' section)",
    )
    ap.add_argument(
        "--check", default=None, metavar="PATH",
        help="regression gate: compare smoke savings against the committed reference",
    )
    ap.add_argument(
        "--threshold", type=float, default=0.75,
        help="minimum fraction of the committed saving (default 0.75)",
    )
    ap.add_argument(
        "--cache", action="store_true",
        help="compare simulated I/O with the page cache on vs off "
             "(deterministic; lands in the report's 'cache' section)",
    )
    ap.add_argument(
        "--io-plan", action="store_true",
        help="compare simulated I/O with the superstep I/O planner on vs "
             "off over fused multi-interval groups (deterministic; lands in "
             "the report's 'io_plan' section)",
    )
    ap.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="compare simulated latency at one lane vs N simulated worker "
             "lanes (deterministic; lands in the report's 'parallel' section)",
    )
    ap.add_argument(
        "--devices", type=int, default=None, metavar="N",
        help="compare simulated storage latency on one SSD vs a striped "
             "N-device array (deterministic; lands in the report's 'devices' "
             "section)",
    )
    ap.add_argument(
        "--stream", action="store_true",
        help="compare simulated I/O of incremental vs full recompute "
             "after a small update batch (deterministic; lands in the "
             "report's 'stream' section)",
    )
    args = ap.parse_args()

    if args.check:
        return check_regression(args.check, args.threshold)
    if not (args.cache or args.io_plan or args.workers or args.devices or args.stream):
        ap.error("nothing to measure: pass --cache, --io-plan, --workers N, --devices N, --stream")

    scale = "test" if args.smoke else "bench"
    steps_scale = 0.4 if args.smoke else 1.0
    cfg = DEFAULT_CONFIG
    cache_cfg = cfg.with_cache(cache_bytes=SMOKE_CACHE_BYTES if args.smoke else None)
    cache = None
    if args.cache:
        print("-- page cache on vs off (simulated I/O) --")
        cache = measure_cache(scale, steps_scale, cache_cfg.cache_bytes)
        if cache is None:
            return 1
    io_plan = None
    if args.io_plan:
        print("-- superstep I/O planner on vs off (simulated I/O) --")
        io_plan = measure_io_plan(scale, steps_scale)
        if io_plan is None:
            return 1
    parallel = None
    if args.workers:
        print(f"-- simulated worker lanes, {args.workers} lanes (simulated latency) --")
        parallel = measure_parallel(scale, steps_scale, args.workers)
        if parallel is None:
            return 1
    devices = None
    if args.devices:
        print(f"-- device array, {args.devices} striped devices (simulated storage) --")
        devices = measure_devices(scale, steps_scale, args.devices)
        if devices is None:
            return 1
    stream = None
    if args.stream:
        print("-- incremental vs full recompute after a small delta (simulated I/O) --")
        stream = measure_stream(scale)
        if stream is None:
            return 1

    section = {
        "scale": scale,
        "engine_config": {
            "page_size": cfg.ssd.page_size,
            "channels": cfg.ssd.channels,
            "memory_total_bytes": cfg.memory.total_bytes,
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if cache is not None:
        section["cache"] = cache
        section["cache_config"] = {
            "cache_policy": "clock",
            "cache_bytes": cache_cfg.resolved_cache_bytes,
        }
    if io_plan is not None:
        section["io_plan"] = io_plan
        section["io_plan_config"] = {"io_plan": "coalesce", "min_intervals": 8}
    if parallel is not None:
        section["parallel"] = parallel
    if devices is not None:
        section["devices"] = devices
        section["devices_config"] = {"placement": "stripe"}
    if stream is not None:
        section["stream"] = stream
        section["stream_config"] = {
            "delta_fraction": 0.005,
            "compact_threshold": cfg.stream_compact_threshold,
            "max_delta_fraction": cfg.stream_max_delta_fraction,
        }

    if args.smoke:
        if not args.out:
            print("smoke run OK (no JSON written)")
            return 0
        path = Path(args.out)
        report = json.loads(path.read_text()) if path.exists() else {
            "benchmark": "superstep hot path: one-knob simulated savings",
        }
        # Only the measured sections are replaced.
        report["smoke"] = {**report.get("smoke", {}), **section}
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"updated smoke section of {path}")
        return 0

    out = args.out or "BENCH_hotpath.json"
    path = Path(out)
    report = json.loads(path.read_text()) if path.exists() else {}
    report.update(
        {
            "benchmark": "superstep hot path: one-knob simulated savings",
            **section,
        }
    )
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
