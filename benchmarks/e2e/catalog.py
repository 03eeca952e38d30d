"""What the benchmark declares beyond ``BENCHMARK.json``.

``BENCHMARK.json`` (repo root) is the one place metric names, units,
directions and bounds are written down, in the exact shape the external
driver reads; this module loads it and adds what that shape has no room
for: whether a number is host or simulated, the end-to-end metrics the
driver cannot gate (raw seconds, the ``stream_churn``-only batch
latencies), and -- recorded *before* measuring -- which end-to-end metric
each layer metric should move, on which workload.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

ENGINE_PR = ["pr_dense", "pr_parallel", "pr_cached"]


def load() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


#: End-to-end metrics the report, the table and ``compare.py`` carry
#: beyond the driver-gated ``end_to_end`` list of BENCHMARK.json, and the
#: ``per_layer`` name each is declared under there (all measured with
#: tracing off all the same).  Two reasons put a metric here:
#:
#: * raw seconds drift with the machine by more than any bound the driver
#:   accepts (see refkernel.py), so the driver gates their ``*_rel``
#:   forms and ``compare.py`` gates these, answering ``unresolved`` when
#:   the quartiles are wider than the bound;
#: * the driver wants every ``end_to_end`` metric on every workload, and
#:   the batch metrics exist on ``stream_churn`` only.
#:
#: ``ref_s`` is context (the machine, not the program): never gated.
REPORT_END_TO_END = {
    "wall_s": {"unit": "s", "better": "lower", "bound": 0.10, "declared_as": "raw.wall_s"},
    "cpu_s": {"unit": "s", "better": "lower", "bound": 0.10, "declared_as": "raw.cpu_s"},
    "edges_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10, "declared_as": "raw.edges_per_s"},
    "ref_s": {"unit": "s", "better": "lower", "bound": None, "declared_as": "raw.ref_s"},
    "updates_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10, "declared_as": "stream.updates_per_s"},
    "batch_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.10, "declared_as": "stream.batch_ms_p50"},
    "batch_ms_p90": {"unit": "ms", "better": "lower", "bound": 0.10, "declared_as": "stream.batch_ms_p90"},
}

_HOST_SUFFIXES = ("_s", "_calls", "_rel", "overhead_share")
_HOST_NAMES = {
    "peak_rss_mb", "pagebuffer.appends_per_ingest",
    "batch_ms_p50", "batch_ms_p90", "stream.batch_ms_p50", "stream.batch_ms_p90",
}


def kind(name: str) -> str:
    """``host`` (clock, spans, call tallies of this process) or ``simulated``
    (the program's deterministic accounting of the modelled machine)."""
    if name in _HOST_NAMES or name.endswith(_HOST_SUFFIXES):
        return "host"
    return "simulated"


#: Which layer metric should move which end-to-end metric, on which
#: workload.  With no other load, a faster layer saves at most its share
#: of the accounting thread's time.  ``metrics`` are fnmatch patterns over
#: the per-layer names.
PREDICTIONS: List[Dict] = [
    {
        "metrics": ["multilog.*_s", "multilog.ingest_calls", "pagebuffer.*", "sortgroup.load_group_self_s"],
        "moves": ["wall_s", "cpu_s", "edges_per_s"],
        "on": ENGINE_PR,
        "note": "under 20 % of that effect on bfs_tightcache; no simulated metric anywhere",
    },
    {
        "metrics": ["engine.run_self_s", "engine.init_s", "loader.load_active_self_s", "edgelog.host_s",
                    "sortgroup.plan_groups_s", "program.process_batch_*"],
        "moves": ["wall_s", "cpu_s", "edges_per_s"],
        "on": ["bfs_tightcache", "stream_churn"],
        "note": "stream_churn through recompute; small on pr_*",
    },
    {
        "metrics": ["pipeline.wait_s", "scheduler.groups", "scheduler.spec_us", "scheduler.makespan_us"],
        "moves": ["wall_s", "cpu_s"],
        "on": ["pr_parallel"],
        "note": "pipeline.wait_s on pr_dense is the prefetch-future block (~15 % in ROADMAP's profile)",
    },
    {
        "metrics": ["scheduler.saved_us", "array.*"],
        "moves": [],
        "on": [],
        "note": "no end-to-end metric today: the overlays are not composed into a makespan. "
                "Baseline for ROADMAP item 1; sim_makespan_ms joins when makespan_us exists",
    },
    {
        "metrics": ["pagecache.hit*", "pagecache.misses", "pagecache.evictions", "pagecache.insertions",
                    "pagecache.capacity_pages", "ioplan.saved_us", "ioplan.readahead_*", "ioplan.cache_hit_pages",
                    "ioplan.extent*", "ioplan.scattered_pages", "ioplan.waves", "ioplan.plans", "ioplan.demand_pages",
                    "ssd.pages_read.*", "ssd.time_ms.*", "ssd.read_ops", "ssd.write_ops",
                    "loader.*_pages", "loader.loads", "loader.edgelog_hits", "loader.inefficient_page_share",
                    "edgelog.considered", "edgelog.logged", "edgelog.pages_*", "edgelog.io_ms",
                    "multilog.pages_*", "multilog.io_ms", "multilog.records_appended"],
        "moves": ["sim_time_ms", "sim_storage_ms", "pages_read"],
        "on": ["pr_cached", "bfs_tightcache"],
        "note": "fits vs does not fit; cache/planner effects must not move these on pr_dense, pr_parallel or stream_churn",
    },
    {
        "metrics": ["pagecache.host_s", "ioplan.host_s", "ssd.host_s"],
        "moves": ["wall_s", "cpu_s"],
        "on": ["pr_cached", "bfs_tightcache"],
        "note": "what the cached stack pays in host time",
    },
    {
        "metrics": ["stream.apply_s", "stream.ingest_s", "stream.compact_s", "stream.write_amp", "stream.*_io_us",
                    "stream.*_pages_written", "stream.compactions", "stream.garbage_records",
                    "stream.records_ingested", "stream.inserts_applied", "stream.deletes_applied", "stream.noop_deletes",
                    "stream.updates_per_s", "stream.batch_ms_*"],
        "moves": ["batch_ms_p50", "batch_ms_p90", "updates_per_s", "pages_written", "wall_s"],
        "on": ["stream_churn"],
        "note": "",
    },
    {
        "metrics": ["stream.recompute_*", "stream.materialize_s", "stream.incremental_runs", "stream.full_runs"],
        "moves": ["wall_s", "edges_per_s"],
        "on": ["stream_churn"],
        "note": "",
    },
    {
        "metrics": ["graph.build_s", "engine.init_s"],
        "moves": ["setup_s"],
        "on": ENGINE_PR + ["bfs_tightcache", "stream_churn"],
        "note": "where work moved out of the timed region must show: setup_s rises when wall_s falls",
    },
    {
        "metrics": ["engine.supersteps", "engine.groups", "engine.sim_compute_ms", "sortgroup.records_sorted",
                    "sortgroup.groups_loaded"],
        "moves": ["sim_time_ms"],
        "on": ENGINE_PR + ["bfs_tightcache", "stream_churn"],
        "note": "compute half of the Fig. 5c split",
    },
    {
        "metrics": ["graph.vertices", "graph.edges", "obs.*", "bench.span_overhead_share", "raw.*"],
        "moves": [],
        "on": [],
        "note": "context: input size, what the two tracing mechanisms cost, and the raw seconds "
                "(with the reference kernel's) behind the *_rel end-to-end metrics",
    },
]


def predictions_for(name: str) -> List[Dict]:
    """Every prediction whose patterns match the per-layer metric ``name``."""
    return [p for p in PREDICTIONS if any(fnmatch.fnmatchcase(name, pat) for pat in p["metrics"])]
