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

import numpy as np

from ..errors import EngineError
from ..graph.partition import static_partition, uniform_partition
from ..graph.storage import GraphOnSSD
from ..core.combine import combine_sorted, precombine
from ..core.superstep import SuperstepEngine
from ..core.update import UPDATE_DTYPES, UPDATE_FIELDS, UpdateBatch, natural_runs
from ..mem.pagebuffer import RecordPageBuffer

KLASS_GFLOG = "gflog"
KLASS_GFSORT = "gfsort"


class GraFBoost(SuperstepEngine):
    """Single-log external-sort-reduce engine (the log-based baseline)."""

    name = "grafboost"
    COUNTERS = ("sort_runs", "sort_passes")

    def __init__(self, graph, program, *args, **kwargs) -> None:
        if program.mutates_structure:
            raise EngineError("the GraFBoost baseline runs static graphs")
        super().__init__(graph, program, *args, **kwargs)
        config, options = self.config, self.options
        if not options.adapted and program.combine is None:
            raise EngineError(
                "plain GraFBoost requires a combine operator; "
                "pass options=EngineOptions(adapted=True) to keep all updates "
                "(paper §VIII adaptation)"
            )
        self.adapted = options.adapted
        self.merge_fanout = options.merge_fanout
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

    def _charge_external_sort(self, batch: UpdateBatch) -> UpdateBatch:
        """Charge the sort-reduce and return the (combined) batch.

        ``batch`` is the superstep's non-empty log in arrival order.  A
        named combine's compute is charged like MultiLogVC's send-side
        reduce (``ComputeMeter.charge_sort_reduce``: the one stable sort
        ``precombine`` runs), anything else as one natural merge.
        """
        cfg = self.config
        raw_records = batch.n
        dev = self.fs.device
        raw_dest = batch.dest  # unsorted arrival order (run membership)
        spec = self.program.combine
        use_combine = (not self.adapted) and spec is not None
        natural = natural_runs(raw_dest)
        reduce_fields = {}
        if use_combine and isinstance(spec, str):
            # Level 1 first: the tree over its partials is the tree over
            # the raw log, bit for bit (repro.core.combine).
            span = int(raw_dest.max()) - int(raw_dest.min()) + 1
            batch = precombine(batch, spec, self._tree)
            levels, counted = self.meter.charge_sort_reduce(raw_records, natural, span, "sort_log")
            reduce_fields = {
                "span": span,
                "survivors": batch.n,
                "counted": counted,
                "item_levels": levels,
            }
        else:
            self.meter.charge_sort(raw_records, natural, "sort_log")
            batch = batch.sort_by_dest()
        uniq, offsets = batch.group()

        sort_mem_pages = max(1, cfg.memory.sort_bytes // cfg.ssd.page_size)
        raw_pages = self._pages(raw_records)
        runs = max(1, math.ceil(raw_pages / sort_mem_pages))

        if use_combine:
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
            batch, uniq, offsets = combine_sorted(batch, uniq, offsets, spec, self._tree)
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
        self.counters["sort_runs"].inc(runs)
        self.counters["sort_passes"].inc(n_passes)
        if self.tracer.enabled:
            self.tracer.emit(
                "extsort",
                raw_pages=raw_pages,
                run_pages=run_pages,
                combined_pages=combined_pages,
                runs=runs,
                passes=n_passes,
                records=raw_records,
                natural_runs=natural,
                **reduce_fields,
            )
        self._sorted_pages = combined_pages
        return batch

    # ------------------------------------------------------------------

    def _begin_fields(self):
        return {"adapted": self.adapted, "n_vertices": int(self.graph.n)}

    def _edge_values(self):
        prog = self.program
        return self.storage.graph.weights if prog.needs_weights or prog.uses_edge_state else None

    def _seed(self, messages: UpdateBatch) -> UpdateBatch:
        pending = messages.sort_by_dest()
        if messages.n and not self.adapted:
            # Seeds are reduced like any superstep's log.
            pending, _, _ = combine_sorted(
                pending, *pending.group(), self.program.combine, self._tree
            )
        self._sorted_pages = self._pages(pending.n)
        return pending

    def _superstep(self, step: int) -> None:
        cfg = self.config
        tracer = self.tracer
        dev = self.fs.device
        files = self.storage.interval_files(0)
        if tracer.enabled:
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

        # Sends are staged in the log's page buffer as they are made, a
        # page of records at a time, so the buffer holds at most one
        # page beyond its budget (as the multi-log's chunked appends);
        # sealed pages beyond the budget go to flash at once, in whole
        # stripes as the multi-log's evictions (DESIGN.md §5).
        rpp = cfg.updates_per_page
        log_buffer = RecordPageBuffer(UPDATE_FIELDS, UPDATE_DTYPES, rpp)
        log_buffer.register_metrics(self.reg, "gflog.buffer")
        buffer_capacity_pages = max(1, cfg.memory.multilog_bytes // cfg.ssd.page_size)
        stripe = cfg.ssd.channels

        def stage(dests, src, datas) -> None:
            srcs = np.full(dests.shape[0], src)
            for pos in range(0, dests.shape[0], rpp):
                end = pos + rpp
                log_buffer.append_many(dests[pos:end], srcs[pos:end], datas[pos:end])
                if log_buffer.pages_used > buffer_capacity_pages:
                    k = log_buffer.sealed_pages
                    if k >= stripe:
                        k -= k % stripe
                    if k:
                        log_buffer.pop_sealed(k)  # the outbox keeps the records
                        dev.sequential_write_time(k, KLASS_GFLOG)
                        if tracer.enabled:
                            tracer.emit("log_flush", pages=int(k), tail=False)

        self.outbox.on_send = stage
        dirty = self._sweep(step, self.pending)
        if dirty and files.values is not None:
            d = np.sort(np.asarray(dirty))
            files.values.write_ranges(self.graph.rowptr[d], self.graph.rowptr[d + 1])

        # Flush the tail of the log and run the external sort-reduce.
        log_buffer.force_seal()
        tail = log_buffer.pop_sealed()
        if tail:
            dev.sequential_write_time(len(tail), KLASS_GFLOG)
            if tracer.enabled:
                tracer.emit("log_flush", pages=len(tail), tail=True)
        raw = self.outbox.batch()
        if raw.n:
            self.pending = self._charge_external_sort(raw)
        else:
            self.pending, self._sorted_pages = UpdateBatch.empty(), 0
