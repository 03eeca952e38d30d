"""GraFBoost baseline: single update log + external sort-reduce.

Models the system of Jun et al. (ISCA'18) as the paper compares against
it (§VI, §VIII):

* all outgoing updates of a superstep are appended to **one** log;
* at the superstep boundary the log is sorted by destination with an
  external merge sort (run generation + merge passes), because the log
  generally exceeds host memory;
* the *combine* function is applied during run generation and merging,
  shrinking the log -- which is why plain GraFBoost only supports
  associative+commutative algorithms (PageRank, BFS);
* graph data is **not** filtered by active vertices: every superstep
  streams the whole CSR ("GraFBoost currently does not support loading
  only active graph data").

``adapted=True`` reproduces the paper's §VIII "Adapting GraFBoost for
applications with non-mergeable updates" experiment: all updates are
preserved (no combine), so the external sort runs on the full log.

I/O cost model of the external sort of an ``L``-page log with a
``M``-page sort memory and combine-reduced size ``L_c``:

* run generation: read ``L``, write ``L_r`` (per-run combined size);
* ``ceil(log_F(ceil(L/M)))`` merge passes with fanout ``F`` -- the width
  of GraFBoost's hardware merge-sorter (16-way in the ISCA'18 design);
  every pass streams the run-generation size in and out, the final pass
  writes the fully combined size;
* next superstep streams the sorted (combined) log back: read ``L_c``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import EngineError, ProgramError
from ..graph.csr import CSRGraph
from ..graph.partition import static_partition, uniform_partition
from ..graph.storage import GraphOnSSD
from ..obs.context import current_tracer
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import Tracer
from ..options import EngineOptions, resolve_options
from ..ssd.filesystem import SimFS
from ..core.active import ActiveTracker
from ..core.api import VertexContext, VertexProgram
from ..core.combine import combine_sorted
from ..core.results import ComputeMeter, RunResult, SuperstepRecord
from ..core.update import DATA_DTYPE, SRC_DTYPE, UPDATE_DTYPES, UPDATE_FIELDS, UpdateBatch
from ..mem.pagebuffer import RecordPageBuffer

KLASS_GFLOG = "gflog"
KLASS_GFSORT = "gfsort"

_EMPTY_SRC = np.empty(0, dtype=SRC_DTYPE)
_EMPTY_DATA = np.empty(0, dtype=DATA_DTYPE)


class GraFBoost:
    """Single-log external-sort-reduce engine (the log-based baseline)."""

    name = "grafboost"

    def __init__(
        self,
        graph: CSRGraph,
        program: VertexProgram,
        config: SimConfig = DEFAULT_CONFIG,
        fs: Optional[SimFS] = None,
        *,
        options: Optional[EngineOptions] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[SuperstepRecord], None]] = None,
    ) -> None:
        options = resolve_options(self.name, options)
        if program.mutates_structure:
            raise EngineError("the GraFBoost baseline runs static graphs")
        if not options.adapted and program.combine is None:
            raise EngineError(
                "plain GraFBoost requires a combine operator; "
                "pass options=EngineOptions(adapted=True) to keep all updates "
                "(paper §VIII adaptation)"
            )
        self.graph = graph
        self.program = program
        self.config = config
        self.options = options
        self.adapted = options.adapted
        self.merge_fanout = options.merge_fanout
        self.fs = fs if fs is not None else SimFS(config)
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics_registry = metrics
        self.progress = progress
        # Rebound to the live registry's counters at run() time.
        self._c_sort_runs = NULL_METRICS.counter("grafboost.sort_runs")
        self._c_sort_passes = NULL_METRICS.counter("grafboost.sort_passes")
        # Named combines reduce over the shared tree (repro.core.combine)
        # at MultiLogVC's default partition, so the engines agree bit for
        # bit on float add; the log itself stays one interval.
        self._tree = static_partition(graph, config)
        need_vals = program.needs_weights or program.uses_edge_state
        self.storage = GraphOnSSD(
            graph,
            uniform_partition(graph.n, 1),
            self.fs,
            config,
            name="gfgraph",
            with_weights=need_vals,
        )
        if options.adapted:
            self.name = "grafboost-adapted"

    # -- external sort cost model ------------------------------------------

    def _pages(self, records: int) -> int:
        return self.config.pages_for_bytes(records * self.config.records.update_bytes)

    def _charge_external_sort(self, raw_records: int, batch: UpdateBatch) -> UpdateBatch:
        """Charge the sort-reduce I/O and return the (combined) batch."""
        cfg = self.config
        dev = self.fs.device
        raw_dest = batch.dest  # unsorted arrival order (run membership)
        batch = batch.sort_by_dest()
        uniq, offsets = batch.group()
        use_combine = (not self.adapted) and self.program.combine is not None

        sort_mem_pages = max(1, cfg.memory.sort_bytes // cfg.ssd.page_size)
        raw_pages = self._pages(raw_records)
        runs = max(1, math.ceil(raw_pages / sort_mem_pages))

        if use_combine and uniq.shape[0]:
            # Per-run combining during run generation: a run is a
            # memory-sized chunk of the log *in arrival order*, so each
            # run still contains most destinations and shrinks only by
            # its internal duplicates (at paper scale, barely at all).
            cap = cfg.sort_capacity_updates
            run_records = 0
            for start in range(0, raw_records, cap):
                stop = min(start + cap, raw_records)
                if stop > start:
                    run_records += int(np.unique(raw_dest[start:stop]).shape[0])
            combined_records = int(uniq.shape[0])
            batch, uniq, offsets = combine_sorted(
                batch, uniq, offsets, self.program.combine, self._tree
            )
        else:
            run_records = raw_records
            combined_records = raw_records

        run_pages = self._pages(run_records)
        combined_pages = self._pages(combined_records)

        # Run generation: stream the raw log in, write sorted runs out.
        dev.sequential_read_time(raw_pages, KLASS_GFSORT)
        dev.sequential_write_time(run_pages, KLASS_GFSORT)
        # Merge passes: F-way hardware merger; cross-run duplicates only
        # collapse on the final pass, so intermediate passes stream the
        # run-generation size.
        n_passes = 0
        if runs > 1:
            n_passes = max(1, math.ceil(math.log(runs, self.merge_fanout)))
            for p in range(n_passes):
                last = p == n_passes - 1
                dev.sequential_read_time(run_pages, KLASS_GFSORT)
                dev.sequential_write_time(combined_pages if last else run_pages, KLASS_GFSORT)
        self._c_sort_runs.inc(runs)
        self._c_sort_passes.inc(n_passes)
        if self.tracer.enabled:
            self.tracer.emit(
                "extsort",
                raw_pages=raw_pages,
                run_pages=run_pages,
                combined_pages=combined_pages,
                runs=runs,
                passes=n_passes,
            )
        self._sorted_pages = combined_pages
        return batch

    # ------------------------------------------------------------------

    def run(self, max_supersteps: int = 15, seed: int = 0) -> RunResult:
        cfg = self.config
        prog = self.program
        n = self.graph.n
        rng = np.random.default_rng(seed)
        meter = ComputeMeter(cfg.compute)
        tracer = self.tracer
        reg = self.metrics_registry if self.metrics_registry is not None else NULL_METRICS
        if self.fs.cache is not None:
            self.fs.cache.register_metrics(reg)
        self._c_sort_runs = reg.counter("grafboost.sort_runs")
        self._c_sort_passes = reg.counter("grafboost.sort_passes")
        c_flushed = reg.counter("grafboost.log_pages_flushed")
        trace_start = len(tracer.events)
        dev = self.fs.device
        if tracer.enabled:
            tracer.bind_clock(lambda: dev.now_us + meter.time_us)
            tracer.set_step(-1)
            tracer.emit(
                "run_begin",
                engine=self.name,
                program=prog.name,
                adapted=self.adapted,
                n_vertices=int(n),
            )
        tracker = ActiveTracker(n, cfg.edgelog_history_window)
        stats_start = self.fs.stats.snapshot()
        files = self.storage.interval_files(0)

        init = prog.initial(self.graph, rng)
        values = np.array(init.values, dtype=np.float64, copy=True)
        active0 = np.asarray(init.active, dtype=np.int64)
        pending = UpdateBatch.empty().sort_by_dest()
        if init.messages is not None and init.messages.n:
            pending = init.messages.sort_by_dest()
            if not self.adapted:
                # Seeds are reduced like any superstep's log.
                pending, _, _ = combine_sorted(
                    pending, *pending.group(), prog.combine, self._tree
                )
            active0 = np.union1d(active0, init.messages.dest.astype(np.int64))
        tracker.seed(active0)
        self._sorted_pages = self._pages(pending.n)

        records: List[SuperstepRecord] = []
        converged = False
        buffer_capacity_pages = max(1, cfg.memory.multilog_bytes // cfg.ssd.page_size)

        for step in range(max_supersteps):
            if tracker.n_current == 0 and pending.n == 0:
                converged = True
                break
            stats_before = self.fs.stats.snapshot()
            compute_before = meter.time_us
            if tracer.enabled:
                tracer.set_step(step)
                tracer.emit(
                    "superstep_begin",
                    active=int(tracker.n_current),
                    pending_messages=int(pending.n),
                )
                tracer.emit("log_stream", pages=int(self._sorted_pages))

            # Stream the sorted update log of the previous superstep.
            dev.sequential_read_time(self._sorted_pages, KLASS_GFLOG)
            # Stream the whole graph: no active-vertex filtering.
            files.rowptr.read_all()
            files.colidx.read_all()
            if files.values is not None:
                files.values.read_all()
            if tracer.enabled:
                tracer.emit(
                    "graph_stream",
                    rowptr_pages=int(files.rowptr.n_pages),
                    colidx_pages=int(files.colidx.n_pages),
                    val_pages=int(files.values.n_pages) if files.values is not None else 0,
                )

            uniq, offsets = pending.group()
            active_ids = np.union1d(uniq.astype(np.int64), tracker.current_ids)
            log_buffer = RecordPageBuffer(
                UPDATE_FIELDS, UPDATE_DTYPES, cfg.updates_per_page
            )
            log_buffer.register_metrics(reg, "gflog.buffer")
            raw_flushed_pages = [0]
            sent = [0]

            def flush_if_needed() -> None:
                if log_buffer.pages_used > buffer_capacity_pages:
                    k = log_buffer.sealed_pages
                    if k:
                        log_buffer.pop_sealed(k)  # records kept separately below
                        raw_flushed_pages[0] += k
                        c_flushed.inc(k)
                        dev.sequential_write_time(k, KLASS_GFLOG)
                        if tracer.enabled:
                            tracer.emit("log_flush", pages=int(k), tail=False)

            out_dest: List[np.ndarray] = []
            out_src: List[np.ndarray] = []
            out_data: List[np.ndarray] = []

            def send_one(dest: int, src: int, data: float) -> None:
                if not 0 <= dest < n:
                    raise ProgramError(f"send target {dest} outside graph")
                out_dest.append(np.array([dest], dtype=np.int32))
                out_src.append(np.array([src], dtype=np.int32))
                out_data.append(np.array([data]))
                log_buffer.append(dest, src, data)
                sent[0] += 1
                tracker.note_message(dest)
                flush_if_needed()

            def send_many(dests: np.ndarray, src: int, datas: np.ndarray) -> None:
                d = np.asarray(dests, dtype=np.int64)
                if d.size == 0:
                    return
                if d.min() < 0 or d.max() >= n:
                    raise ProgramError("send target outside graph")
                out_dest.append(d.astype(np.int32))
                out_src.append(np.full(d.shape[0], src, dtype=np.int32))
                out_data.append(np.asarray(datas, dtype=np.float64))
                log_buffer.append_many(d, np.full(d.shape[0], src), np.asarray(datas))
                sent[0] += int(d.shape[0])
                tracker.note_messages(d)
                flush_if_needed()

            processed = 0
            updates_processed = 0
            edges_scanned = 0
            dirty: List[int] = []
            k_updates = uniq.shape[0]
            upos = np.searchsorted(uniq, active_ids)
            for idx in range(active_ids.shape[0]):
                v = int(active_ids[idx])
                p = int(upos[idx])
                if p < k_updates and uniq[p] == v:
                    s0, e0 = int(offsets[p]), int(offsets[p + 1])
                    usrc, udata = pending.src[s0:e0], pending.data[s0:e0]
                else:
                    usrc, udata = _EMPTY_SRC, _EMPTY_DATA
                nb = self.graph.neighbors(v)
                s_e = (int(self.graph.rowptr[v]), int(self.graph.rowptr[v + 1]))
                wslice = (
                    self.storage.graph.weights[s_e[0] : s_e[1]]
                    if (prog.needs_weights or prog.uses_edge_state)
                    else None
                )
                ctx = VertexContext(
                    vid=v,
                    superstep=step,
                    values=values,
                    updates_src=usrc,
                    updates_data=udata,
                    out_neighbors=nb,
                    out_weights=wslice if prog.needs_weights else None,
                    edge_state=wslice if prog.uses_edge_state else None,
                    send=send_one,
                    send_many=send_many,
                    rng=rng,
                    mutate=None,
                )
                prog.process(ctx)
                if not ctx.deactivated:
                    tracker.note_self_active(v)
                if ctx.edge_state_dirty:
                    dirty.append(v)
                processed += 1
                updates_processed += usrc.shape[0]
                edges_scanned += nb.shape[0]
            meter.charge_vertices(processed)
            meter.charge_updates(int(pending.n))
            meter.charge_edges(edges_scanned)
            if dirty and files.values is not None:
                d = np.sort(np.asarray(dirty))
                starts = self.graph.rowptr[d]
                stops = self.graph.rowptr[d + 1]
                files.values.write_ranges(starts, stops)

            # Flush the tail of the log and run the external sort-reduce.
            log_buffer.force_seal()
            tail = log_buffer.pop_sealed()
            if tail:
                raw_flushed_pages[0] += len(tail)
                c_flushed.inc(len(tail))
                dev.sequential_write_time(len(tail), KLASS_GFLOG)
                if tracer.enabled:
                    tracer.emit("log_flush", pages=len(tail), tail=True)
            raw = UpdateBatch.concat(
                [
                    UpdateBatch.of(d, s, x)
                    for d, s, x in zip(out_dest, out_src, out_data)
                ]
            )
            meter.charge_sort(raw.n)
            pending = self._charge_external_sort(raw.n, raw) if raw.n else UpdateBatch.empty()
            if raw.n == 0:
                self._sorted_pages = 0

            prog.on_superstep_end(step, values, rng)
            delta = self.fs.stats.snapshot() - stats_before
            rec = SuperstepRecord(
                index=step,
                active_vertices=processed,
                updates_processed=updates_processed,
                messages_sent=sent[0],
                edges_scanned=edges_scanned,
                storage_time_us=delta.total_time_us,
                compute_time_us=meter.time_us - compute_before,
                pages_read=delta.pages_read,
                pages_written=delta.pages_written,
                pages_read_by_class={k: c.pages for k, c in delta.reads.items()},
            )
            records.append(rec)
            if tracer.enabled:
                tracer.emit("superstep_end", **rec.to_dict())
            if self.progress is not None:
                self.progress(rec)
            tracker.advance()
            if prog.is_converged(values):
                converged = True
                break

        stats = self.fs.stats.snapshot() - stats_start
        if tracer.enabled:
            tracer.emit("run_end", engine=self.name, converged=converged, supersteps=len(records))
        return RunResult(
            engine=self.name,
            program=prog.name,
            values=values,
            supersteps=records,
            converged=converged,
            stats=stats,
            compute_time_us=meter.time_us,
            trace=tracer.events[trace_start:] if tracer.enabled else None,
            metrics=reg.snapshot() if self.metrics_registry is not None else None,
        )
