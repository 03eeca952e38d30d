"""Layer boundaries: which methods the traced repetition wraps, and how
per-layer metrics are read out of spans, ``result.metrics``,
``result.stats`` and ``SuperstepRecord``s.

Layers are this repo's modules.  ``*_s`` metrics are host self time from
the benchmark's own spans; ``*_us``/``*_ms`` and count metrics come from
the program's own simulated accounting and repeat exactly.  A layer a
workload bypasses is left out, never zero-filled (``run.py`` zero-fills
only the last-line object the external driver reads, which must carry
every declared name).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Iterable, List, Optional

from repro.stream.delta import RECORD_BYTES

from spans import SpanRecorder, summarise

#: ``(module, class, method, span name, kind)``; kind is ``span``,
#: ``iter`` (time blocked in ``__next__``) or ``count`` (calls only).
WRAPS = [
    ("repro.core.engine", "MultiLogVC", "__init__", "engine.init", "span"),
    ("repro.core.engine", "MultiLogVC", "run", "engine.run", "span"),
    ("repro.core.pipeline", "GroupPipeline", "run", "pipeline.wait", "iter"),
    ("repro.core.scheduler", "ParallelGroupScheduler", "run", "pipeline.wait", "iter"),
    ("repro.algorithms.pagerank", "DeltaPageRankProgram", "process_batch", "program.process_batch", "span"),
    ("repro.algorithms.bfs", "BFSProgram", "process_batch", "program.process_batch", "span"),
    ("repro.algorithms.sssp", "SSSPProgram", "process_batch", "program.process_batch", "span"),
    ("repro.core.multilog", "MultiLogUnit", "ingest", "multilog.ingest", "span"),
    ("repro.core.multilog", "MultiLogUnit", "consume", "multilog.consume", "span"),
    ("repro.mem.pagebuffer", "RecordPageBuffer", "append_many", "pagebuffer.append_many", "span"),
    ("repro.mem.pagebuffer", "RecordPageBuffer", "pop_sealed", "pagebuffer.pop_sealed", "count"),
    ("repro.core.sortgroup", "SortGroupUnit", "load_group", "sortgroup.load_group", "span"),
    ("repro.core.sortgroup", "SortGroupUnit", "plan_groups", "sortgroup.plan_groups", "span"),
    ("repro.core.loader", "GraphLoaderUnit", "load_active", "loader.load_active", "span"),
    ("repro.core.edgelog", "EdgeLogOptimizer", "consider", "edgelog.consider", "span"),
    ("repro.core.edgelog", "EdgeLogOptimizer", "charge_read", "edgelog.charge_read", "span"),
    ("repro.core.edgelog", "EdgeLogOptimizer", "end_superstep", "edgelog.end_superstep", "span"),
    ("repro.mem.pagecache", "PageCache", "access", "pagecache.access", "span"),
    ("repro.mem.pagecache", "PageCache", "admit", "pagecache.admit", "span"),
    ("repro.mem.pagecache", "PageCache", "pin", "pagecache.pin", "span"),
    ("repro.mem.pagecache", "PageCache", "unpin", "pagecache.unpin", "span"),
    ("repro.io.plan", "IOPlan", "add", "ioplan.add", "span"),
    ("repro.io.plan", "IOPlan", "add_readahead", "ioplan.add_readahead", "span"),
    ("repro.io.plan", "IOPlan", "execute", "ioplan.execute", "span"),
    ("repro.io.planner", "SuperstepIOPlanner", "collect_readahead", "ioplan.collect_readahead", "span"),
    ("repro.io.planner", "SuperstepIOPlanner", "apply", "ioplan.apply", "span"),
    ("repro.ssd.device", "SimulatedSSD", "read_batch", "ssd.read_batch", "span"),
    ("repro.ssd.device", "SimulatedSSD", "write_batch", "ssd.write_batch", "span"),
    ("repro.ssd.device", "SimulatedSSD", "read_plan", "ssd.read_plan", "span"),
    ("repro.ssd.device", "SimulatedSSD", "read_extent", "ssd.read_extent", "span"),
    ("repro.ssd.device", "SimulatedSSD", "commit", "ssd.commit", "span"),
    ("repro.stream.store", "StreamStore", "ingest", "stream.ingest", "span"),
    ("repro.stream.store", "StreamStore", "apply_updates", "stream.apply", "span"),
    ("repro.stream.store", "StreamStore", "compact_if_needed", "stream.compact", "span"),
    ("repro.stream.store", "StreamStore", "materialize", "stream.materialize", "span"),
    ("repro.stream.session", "StreamSession", "recompute", "stream.recompute", "span"),
]

#: Storage classes reported per class under ``ssd.*``.
SSD_CLASSES = ("csr_row", "csr_col", "csr_val", "mlog", "edgelog", "readahead", "ulog", "stream_delta")


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary in :data:`WRAPS` on ``rec``."""
    for module, cls, attr, name, kind in WRAPS:
        owner = getattr(importlib.import_module(module), cls)
        if kind == "span":
            rec.wrap(owner, attr, name)
        elif kind == "iter":
            rec.wrap_iter(owner, attr, name)
        else:
            rec.count_calls(owner, attr, name)


# -- per-layer metrics --------------------------------------------------------


def _sum_gauge(results: Iterable[Any], key: str) -> Optional[float]:
    """Sum one gauge over engine runs; None when no run registered it."""
    vals = [r.metrics[key] for r in results if r.metrics and key in r.metrics]
    return sum(vals) if vals else None


def _put(out: Dict[str, float], name: str, value) -> None:
    if value is not None:
        out[name] = value


def counted(results: List[Any], stream: Optional[Dict[str, Any]] = None) -> Dict[str, float]:
    """Simulated per-layer metrics of one repetition (exactly repeatable).

    ``results`` are the repetition's engine ``RunResult``s (one for an
    engine workload, one per recompute for ``stream_churn``); ``stream``
    carries the session registry snapshot and the store device's stats
    delta for the pass.
    """
    out: Dict[str, float] = {}
    records = [rec for r in results for rec in r.supersteps]

    out["engine.supersteps"] = len(records)
    _put(out, "engine.groups", _sum_gauge(results, "sortgroup.groups_planned"))
    out["engine.sim_compute_ms"] = sum(r.compute_time_us for r in results) / 1e3

    for key in ("groups", "spec_us", "saved_us", "makespan_us"):
        _put(out, f"scheduler.{key}", _sum_gauge(results, f"scheduler.{key}"))

    out["multilog.records_appended"] = sum(rec.messages_sent for rec in records)
    io_us = [_sum_gauge(results, f"multilog.mlog.{u}.io_time_us") for u in ("a", "b")]
    out["multilog.io_ms"] = sum(t for t in io_us if t is not None) / 1e3

    for key in ("records_sorted", "groups_loaded"):
        _put(out, f"sortgroup.{key}", _sum_gauge(results, f"sortgroup.{key}"))

    for key in ("loads", "rowptr_pages", "colidx_pages", "val_pages", "edgelog_hits"):
        _put(out, f"loader.{key}", _sum_gauge(results, f"loader.{key}"))
    accessed = sum(rec.accessed_data_pages for rec in records)
    if accessed:
        out["loader.inefficient_page_share"] = (
            sum(rec.inefficient_pages for rec in records) / accessed
        )

    if _sum_gauge(results, "edgelog.considered") is not None:
        for key in ("considered", "logged", "pages_read"):
            out[f"edgelog.{key}"] = _sum_gauge(results, f"edgelog.{key}")
        out["edgelog.pages_avoided"] = sum(rec.edgelog_pages_avoided for rec in records)
        out["edgelog.io_ms"] = _sum_gauge(results, "edgelog.io_time_us") / 1e3

    if _sum_gauge(results, "cache.capacity_pages") is not None:
        for key in ("hits", "misses", "evictions", "insertions"):
            out[f"pagecache.{key}"] = _sum_gauge(results, f"cache.{key}")
        looked_up = out["pagecache.hits"] + out["pagecache.misses"]
        out["pagecache.hit_rate"] = out["pagecache.hits"] / looked_up if looked_up else 0.0
        out["pagecache.capacity_pages"] = results[0].metrics["cache.capacity_pages"]

    for key in ("plans", "demand_pages", "cache_hit_pages", "extents", "extent_pages",
                "scattered_pages", "waves", "saved_us", "readahead_pages", "readahead_time_us"):
        _put(out, f"ioplan.{key}", _sum_gauge(results, f"io.{key}"))

    for key in ("ops", "serial_us", "array_us", "saved_us"):
        _put(out, f"array.{key}", _sum_gauge(results, f"device.{key}"))
    busy = [r.metrics["device.busy_max_us"] for r in results if r.metrics and "device.busy_max_us" in r.metrics]
    if busy:
        out["array.busy_max_us"] = max(busy)

    # Device totals: engine runs plus, for a stream pass, the store's SSD.
    all_stats = [r.stats for r in results] + ([stream["stats"]] if stream else [])
    out["ssd.read_ops"] = sum(c.batches for s in all_stats for c in s.reads.values())
    out["ssd.write_ops"] = sum(c.batches for s in all_stats for c in s.writes.values())
    for klass in SSD_CLASSES:
        counters = [c for s in all_stats for c in (s.reads.get(klass), s.writes.get(klass)) if c]
        if counters:
            out[f"ssd.pages_read.{klass}"] = sum(
                s.reads[klass].pages for s in all_stats if klass in s.reads
            )
            out[f"ssd.time_ms.{klass}"] = sum(c.time_us for c in counters) / 1e3
    out["multilog.pages_written"] = sum(s.writes["mlog"].pages for s in all_stats if "mlog" in s.writes)
    out["multilog.pages_read"] = out.get("ssd.pages_read.mlog", 0)

    if stream:
        snap = stream["metrics"]
        for key in ("records_ingested", "inserts_applied", "deletes_applied", "noop_deletes",
                    "ulog_pages_written", "delta_pages_written", "compactions", "garbage_records",
                    "ingest_io_us", "apply_io_us", "compact_io_us"):
            out[f"stream.{key}"] = snap[f"stream.{key}"]
        # The initial converge (set-up) is the session's one full run.
        out["stream.incremental_runs"] = snap["stream.incremental_runs"]
        out["stream.full_runs"] = snap["stream.full_runs"]
        out["stream.write_amp"] = stream["stats"].bytes_written / (
            snap["stream.records_ingested"] * RECORD_BYTES
        )
    return out


def _layer_self(summary: Dict[str, Dict[str, float]], layer: str) -> Optional[float]:
    rows = [row for name, row in summary.items() if name.startswith(layer + ".")]
    return sum(row["self_s"] for row in rows) if rows else None


def timed(rec: SpanRecorder) -> Dict[str, float]:
    """Host per-layer metrics (self seconds, call counts) from the spans."""
    summary = summarise(rec.spans)
    out: Dict[str, float] = {}

    def self_s(span: str, metric: str) -> None:
        if span in summary:
            out[metric] = summary[span]["self_s"]

    self_s("engine.init", "engine.init_s")
    self_s("engine.run", "engine.run_self_s")
    self_s("pipeline.wait", "pipeline.wait_s")
    self_s("program.process_batch", "program.process_batch_self_s")
    self_s("multilog.ingest", "multilog.ingest_self_s")
    self_s("multilog.consume", "multilog.consume_self_s")
    self_s("pagebuffer.append_many", "pagebuffer.append_many_s")
    self_s("sortgroup.load_group", "sortgroup.load_group_self_s")
    self_s("sortgroup.plan_groups", "sortgroup.plan_groups_s")
    self_s("loader.load_active", "loader.load_active_self_s")
    self_s("stream.ingest", "stream.ingest_s")
    self_s("stream.apply", "stream.apply_s")
    self_s("stream.compact", "stream.compact_s")
    self_s("stream.materialize", "stream.materialize_s")
    self_s("stream.recompute", "stream.recompute_self_s")
    if "stream.recompute" in summary:
        out["stream.recompute_incl_s"] = summary["stream.recompute"]["incl_s"]
    if "program.process_batch" in summary:
        out["program.process_batch_calls"] = summary["program.process_batch"]["calls"]
    if "multilog.ingest" in summary:
        ingests = summary["multilog.ingest"]["calls"]
        out["multilog.ingest_incl_s"] = summary["multilog.ingest"]["incl_s"]
        out["multilog.ingest_calls"] = ingests
        appends = summary.get("pagebuffer.append_many", {}).get("calls", 0)
        out["pagebuffer.append_many_calls"] = appends
        out["pagebuffer.pop_sealed_calls"] = rec.calls["pagebuffer.pop_sealed"]
        out["pagebuffer.appends_per_ingest"] = appends / ingests
    for layer in ("edgelog", "pagecache", "ioplan", "ssd"):
        _put(out, f"{layer}.host_s", _layer_self(summary, layer))
    return out
