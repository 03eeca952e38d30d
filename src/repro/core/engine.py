"""The MultiLogVC engine: the steps of paper Algorithm 1.

The superstep loop itself is :meth:`SuperstepEngine._run
<repro.core.superstep.SuperstepEngine._run>`; this module supplies its
steps (DESIGN.md §3).  One superstep:

1. plan interval groups -- fuse contiguous intervals whose estimated
   logs fit the sort budget (§V-A2);
2. per group: ``LoadLog`` (read the group's multi-logs from flash plus
   buffered pages), in-memory sort by destination, ``ExtractActiveVert``;
3. graph-loader reads only the pages of active vertices' row pointers
   and adjacency, consulting the edge log first (§V-B2, §V-C) -- the
   adjacency of only those vertices the program's ``loads_edges`` hook
   selects, when it declares one;
4. run ``ProcessVertex`` for every active vertex; ``SendUpdate`` routes
   outgoing messages into the *next-generation* multi-log -- reduced
   first to one record per (destination, source interval) when the
   program's combine is a named operator (DESIGN.md §15);
5. the edge-log optimizer decides, per processed vertex, whether to
   re-log its out-edges for next superstep;
6. at superstep end: flush/rotate logs, merge ready structural updates,
   advance the active tracker, swap multi-log generations.

Synchronous mode delivers updates in the next superstep; asynchronous
mode (§V-F) also consumes same-superstep updates already logged for the
group being processed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import EngineError, ProgramError, RecoveryError
from ..graph.csr import CSRGraph
from ..io.planner import SuperstepIOPlanner
from ..graph.partition import static_partition
from ..graph.storage import GraphOnSSD
from ..mem.budget import MemoryBudget
from ..obs.overlay import Overlay
from ..recovery.checkpoint import CheckpointData, CheckpointManager, _record_from_state
from .api import InitialState, VertexProgram
from .batch import BatchContext, GroupView, flatten_ranges
from .combine import precombine
from .edgelog import EdgeLogOptimizer
from .loader import GraphLoaderUnit
from .multilog import MultiLogUnit
from .mutation import MutationBuffer
from .pipeline import GroupPipeline, PreparedGroup, charge_rollup
from .scheduler import ParallelGroupScheduler
from .results import RunResult, SuperstepRecord
from .sortgroup import SortGroupUnit
from .superstep import SuperstepEngine
from .update import UpdateBatch, natural_runs


class MultiLogVC(SuperstepEngine):
    """Out-of-core vertex-centric engine with multi-log update handling.

    Parameters
    ----------
    graph:
        The input graph (host-side CSR; it is laid out on the simulated
        SSD partitioned by vertex interval).
    program:
        The vertex program to execute.
    config:
        Simulation configuration (defaults to the paper-scaled setup).
    fs:
        Optional existing simulated file system (a fresh one otherwise).
    options:
        Consolidated :class:`~repro.options.EngineOptions` (mode,
        enable_edgelog, enable_fusing, enable_precombine, min_intervals,
        intervals, checkpoint_every).
    tracer:
        Observability event sink; defaults to the ambient tracer (the
        null tracer unless :func:`repro.obs.use_tracer` is active).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` the engine units
        register their counters/gauges into.
    progress:
        Called with each completed :class:`SuperstepRecord`.
    """

    name = "multilogvc"

    def __init__(self, graph: CSRGraph, program: VertexProgram, *args, **kwargs) -> None:
        super().__init__(graph, program, *args, **kwargs)
        if program.uses_edge_state and program.mutates_structure:
            raise ProgramError("edge state plus structural mutation is not supported")
        if program.mutates_structure and self.options.checkpoint_every > 0:
            raise EngineError("checkpointing does not support structure-mutating programs")
        options = self.options
        self.mode = options.mode
        self.enable_edgelog = options.enable_edgelog
        self.enable_fusing = options.enable_fusing
        #: Reduce sends before the log?  Needs a *named* combine: the
        #: tree is defined for those only, a callable stays post-read.
        self.precombine = options.enable_precombine and isinstance(program.combine, str)
        config = self.config
        intervals = static_partition(graph, config, options)
        self.intervals = intervals
        need_vals = program.needs_weights or program.uses_edge_state
        self.storage = GraphOnSSD(
            graph, intervals, self.fs, config, name="graph", with_weights=need_vals
        )
        self.budget = MemoryBudget.resolve(config, intervals.n_intervals)

    def _begin_fields(self):
        return {"mode": self.mode, **super()._begin_fields()}

    # ------------------------------------------------------------------

    def run(
        self,
        max_supersteps: int = 15,
        seed: int = 0,
        *,
        resume_from: Optional[CheckpointData] = None,
        initial_state: Optional[InitialState] = None,
    ) -> RunResult:
        """Execute up to ``max_supersteps`` supersteps; returns the result.

        ``converged`` in the result is True when the run stopped because
        no vertex was active and no updates were pending (or the program
        reported convergence), False when the superstep cap was hit.

        With ``resume_from`` (a :class:`~repro.recovery.CheckpointData`),
        the run restores the checkpointed superstep cut -- vertex values,
        active sets, multi-log contents, edge-log metadata, RNG state,
        device stats (clock rewind) -- and continues from the following
        superstep.  The result is then equivalent to an uninterrupted
        run: same final values, same full superstep-record list, same
        stats, bit-identical post-cut trace (see DESIGN.md §8).

        With ``initial_state``, the run starts from the supplied values,
        active set and seed messages instead of the program's
        :meth:`~repro.core.api.VertexProgram.initial` -- the stream
        subsystem's warm-start path (DESIGN.md §12).  Mutually exclusive
        with ``resume_from``.
        """
        if initial_state is not None and resume_from is not None:
            raise EngineError("initial_state and resume_from are mutually exclusive")
        return self._run(max_supersteps, seed, initial_state, resume_from)

    def _start(self) -> int:
        """Run start: the I/O planner, the group iterator, overlays and units."""
        cfg = self.config
        prog = self.program
        # Superstep I/O planner (DESIGN.md §13): groups collect their
        # page demand on a per-group plan and charge it as coalesced
        # extent reads plus channel-balanced waves.  Values and records
        # are bit-identical with the planner on or off; only batching
        # and simulated storage time change.  Read-ahead needs a cache
        # to prefetch into.
        self.planner = None
        if cfg.io_plan != "off":
            self.planner = SuperstepIOPlanner(self.fs.device, self.fs.cache, cfg.io_plan)
        # Simulated worker lanes (DESIGN.md §11): groups always run in
        # one synchronous in-order loop; with lanes > 1 the iterator also
        # keeps the lane/channel overlap overlay.  The overlay models
        # independent groups, so it is off where groups depend on each
        # other (async injection, structural mutation).
        lanes = cfg.num_workers if self.mode == "sync" and not prog.mutates_structure else 1
        self.pipeline = (
            ParallelGroupScheduler(self.fs.device, lanes, self.meter)
            if lanes > 1
            else GroupPipeline(self.fs.device)
        )
        # The run's overlays (DESIGN.md §7), in trace order: their gauges
        # are registered here, their snapshots emitted at every superstep
        # end, their counters checkpointed and restored on resume.
        self.overlays = [
            o for o in (self.fs.cache, self.pipeline, self.planner, self.fs.device)
            if isinstance(o, Overlay)
        ]
        trace_start = super()._start(self.overlays)
        reg, tracer, n = self.reg, self.tracer, self.graph.n
        # Fault events (injected errors, retries, degradation) are
        # emitted by the device itself; give it this run's tracer.
        self.fs.device.tracer = tracer
        self.mlog_cur = MultiLogUnit(
            self.fs, self.intervals, cfg, self.budget, "mlog.a",
            tracker=None, tracer=tracer, metrics=reg,
        )
        self.mlog_next = MultiLogUnit(
            self.fs, self.intervals, cfg, self.budget, "mlog.b",
            tracker=self.tracker, tracer=tracer, metrics=reg,
        )
        self.sortgroup = SortGroupUnit(cfg, self.budget, self.meter, metrics=reg)
        self.loader = GraphLoaderUnit(self.storage, cfg, metrics=reg)
        self.edgelog = (
            EdgeLogOptimizer(self.fs, n, cfg, self.budget, metrics=reg, tracer=tracer)
            if self.enable_edgelog
            else None
        )
        self.mutations = MutationBuffer(self.storage, cfg) if prog.mutates_structure else None
        self.ckpt_mgr = CheckpointManager(self.fs)
        return trace_start

    def _seed(self, messages: UpdateBatch) -> None:
        # Initial messages go through the producer sink like any send.
        if messages.n:
            self._log(self.mlog_cur, [messages])

    def _pending_messages(self) -> int:
        return self.mlog_cur.total_messages

    def _resume(self, ckpt: CheckpointData) -> int:
        """Restore a checkpointed superstep cut onto this run's units;
        returns the superstep to continue at.

        The device clock is rewound to the cut (the checkpoint's stats
        snapshot already includes the checkpoint's own write cost), the
        channel-offset allocator is restored, and log files are adopted
        at their recorded offsets -- so every post-resume charge lands
        at the same simulated time, on the same channels, as in an
        uninterrupted run.  Every overlay the checkpoint carries
        continues from its counters at the cut.  Recovery's own read I/O
        was charged to the *crashed* device at load time and is only
        reported here in the ``run_resume`` event.
        """
        ckpt.validate_against(self)
        units = {u.name: u for u in (self.mlog_cur, self.mlog_next)}
        if set(units) != set(ckpt.mlogs) or ckpt.mlog_current not in units:
            raise RecoveryError(
                f"checkpoint multi-log units {sorted(ckpt.mlogs)} do not match "
                f"engine units {sorted(units)}"
            )
        for name, unit in units.items():
            unit.restore_state(ckpt.mlogs[name])
        self.mlog_cur = units.pop(ckpt.mlog_current)
        (self.mlog_next,) = units.values()
        self.mlog_cur.tracker = None
        self.mlog_next.tracker = self.tracker
        self.tracker.restore_state(ckpt.tracker)
        if self.edgelog is not None:
            self.edgelog.restore_state(ckpt.edgelog)
        if ckpt.edge_state is not None:
            for i, arr in enumerate(ckpt.edge_state):
                files = self.storage.interval_files(i)
                if files.values is None or files.values.array.shape != arr.shape:
                    raise RecoveryError(f"edge-state shape mismatch in interval {i}")
                files.values.array[:] = arr
        self.values = np.asarray(ckpt.values, dtype=np.float64).copy()
        self.fs.next_channel_offset = ckpt.fs_next_offset
        self.fs.device.stats = ckpt.stats.snapshot()
        # Absolute restores: this engine's constructor already wrote the
        # graph image through the cache and the array.
        for ov in self.overlays:
            if ov.trace_kind in ckpt.overlays:
                ov.restore_overlay(ckpt.overlays[ov.trace_kind])
        self.meter.restore(float(ckpt.meter_time_us))
        self.rng.bit_generator.state = ckpt.rng_state
        # Fresh program instances never saw initial(); let stateful
        # programs rebuild their round state for the resume superstep.
        self.program.prepare_resume(self.graph, ckpt.step + 1, self.rng)
        self.records.extend(_record_from_state(d) for d in ckpt.records)
        self.ckpt_mgr.resume_at(ckpt)
        # A resumed run starts from a cold cache; uninterrupted runs
        # clear theirs at each checkpoint cut too, so post-cut charging
        # is bit-identical either way (DESIGN.md §10).
        if self.fs.cache is not None:
            self.fs.cache.clear()
        if self.tracer.enabled:
            self.tracer.emit(
                "run_resume",
                checkpoint_id=int(ckpt.ckpt_id),
                checkpoint_step=int(ckpt.step),
                start_step=int(ckpt.step) + 1,
                recovery_read_pages=int(ckpt.recovery_read_pages),
                recovery_read_time_us=float(ckpt.recovery_read_time_us),
            )
        return ckpt.step + 1

    def _step(self, step: int) -> dict:
        """Plan the interval groups and run the group loop (Algorithm 1)."""
        prog, cfg, meter, tracker = self.program, self.config, self.meter, self.tracker
        tracer, planner, edgelog, loader = self.tracer, self.planner, self.edgelog, self.loader
        mlog_cur, mlog_next, mutations = self.mlog_cur, self.mlog_next, self.mutations
        # Trace field only: does the program bring its own group kernel?
        batched = getattr(prog.process_batch, "__func__", None) is not VertexProgram.process_batch
        logged_before = mlog_next.appended

        active_ids = tracker.current_ids
        must = np.zeros(self.intervals.n_intervals, dtype=bool)
        if active_ids.size:
            must[np.unique(self.intervals.interval_of(active_ids))] = True
        groups = self.sortgroup.plan_groups(
            mlog_cur,
            must_include=must,
            max_group_intervals=None if self.enable_fusing else 1,
        )
        if tracer.enabled:
            tracer.emit(
                "group_plan",
                n_groups=len(groups),
                group_sizes=[len(g) for g in groups],
            )

        # Read-ahead prediction needs the *next* group's vertex span
        # at prepare time; precompute it from the group plan.
        next_span = {}
        if planner is not None and planner.readahead_enabled:
            for gi in range(len(groups) - 1):
                ng = groups[gi + 1]
                next_span[tuple(groups[gi])] = (
                    self.intervals.span(ng[0])[0],
                    self.intervals.span(ng[-1])[1],
                )

        def prepare(group):
            plan = planner.new_plan() if planner is not None else None
            extra: Optional[UpdateBatch] = None
            if self.mode == "async":
                # Same-superstep updates earlier groups already sent.
                extra = mlog_next.consume(group)
            sg = self.sortgroup.load_group(
                mlog_cur, group, combine=prog.combine, extra=extra,
                charge_sort=False, plan=plan,
            )
            in_span = (active_ids >= sg.vertex_lo) & (active_ids < sg.vertex_hi)
            self_act = active_ids[in_span]
            verts = np.union1d(sg.unique_dests.astype(np.int64), self_act)
            report = ranges = view = edges = None
            if verts.size:
                ranges = self.storage.group_ranges(verts)
                view = GroupView(
                    verts, step, self.values,
                    np.searchsorted(sg.batch.dest, verts, side="left"),
                    np.searchsorted(sg.batch.dest, verts, side="right"),
                    sg.batch.src, sg.batch.data, ranges.stops - ranges.starts,
                )
                if prog.loads_edges is not None:
                    # Only the vertices that will scatter read their edges.
                    edges = np.asarray(prog.loads_edges(view), dtype=bool)
                    if edges.shape != verts.shape:
                        raise ProgramError("loads_edges must return one flag per group vertex")
                report = loader.load_active(
                    verts, prog.needs_weights, prog.uses_edge_state, edgelog,
                    plan=plan, ranges=ranges, edges=edges,
                )
            outcome = None
            if plan is not None:
                span = next_span.get(tuple(group))
                if span is not None:
                    planner.collect_readahead(
                        plan, self.storage, edgelog, active_ids, span[0], span[1],
                        prog.needs_weights or prog.uses_edge_state,
                    )
                outcome = plan.execute()
            return PreparedGroup(
                list(group), sg, verts, report, io_plan=outcome, ranges=ranges,
                view=view, edges=edges,
            )

        outbox: List[UpdateBatch] = []

        def send_batch(dests, srcs, datas):
            # Columns as the kernel built them: the sink range-checks
            # the destinations before it narrows anything.
            outbox.append(UpdateBatch(np.asarray(dests), np.asarray(srcs), np.asarray(datas)))

        sent = 0
        processed = 0
        updates_processed = 0
        edges_scanned = 0
        ineff_pages = 0
        accessed_pages = 0
        avoided_ineff = 0
        avoided_pages = 0
        for g_index, (prepared, charges) in enumerate(self.pipeline.run(groups, prepare)):
            # Record the group's deferred I/O charges, then the sort
            # charge.  group_load is stamped after the commit, so it
            # carries the group's storage time.
            self.fs.device.commit(charges)
            if planner is not None:
                planner.apply(prepared.io_plan)
            sg = prepared.sg
            meter.charge_sort(sg.sort_items, sg.sort_runs, "sort_group")
            verts = prepared.verts
            report = prepared.report
            if tracer.enabled:
                io = charge_rollup(charges)
                tracer.emit(
                    "group_load",
                    group=g_index,
                    intervals=len(prepared.interval_ids),
                    records=int(sg.sort_items),
                    pages_by_class=io["read_pages_by_class"],
                    io_time_us=io["io_time_us"],
                )
                tracer.emit(
                    "group_sort",
                    group=g_index,
                    records=int(sg.sort_items),
                    natural_runs=int(sg.sort_runs),
                    unique_dests=int(sg.unique_dests.shape[0]),
                )
            if verts.size == 0:
                continue
            useful = report.colidx_useful
            frac = useful / cfg.ssd.page_size
            ineff_pages += int(((useful > 0) & (frac < cfg.page_efficiency_threshold)).sum())
            accessed_pages += report.data_pages
            avoided_ineff += report.avoided_inefficient
            # Pages the edge log saved: the hypothetical no-edge-log
            # colidx page set minus the adjacency pages actually read.
            avoided_pages += max(0, report.hypo_pages - report.data_pages)
            elog_before = edgelog.vertices_logged if edgelog is not None else 0

            # The one dispatch point: the program handles the whole
            # group (its own kernel, or the default per-vertex loop
            # over views of the batch -- see repro.core.batch).
            bctx, es_plan = self._build_batch(prepared, send_batch)
            prog.process_batch(bctx)
            sent += self._log(mlog_next, outbox)
            outbox.clear()
            stay = verts[bctx._stay_mask]
            if stay.size:
                tracker.next_self[stay] = True
            degs = bctx.degrees
            g_processed = verts.shape[0]
            g_updates = bctx.total_updates
            g_edges = int(degs.sum())
            meter.charge_vertices(g_processed)
            meter.charge_updates(int(sg.batch.n))
            meter.charge_edges(g_edges)
            if edgelog is not None:
                # Only a vertex whose edges were read has them in memory
                # to re-log (its inefficient-page flag is False otherwise).
                predicted = tracker.predict_active_next_many(verts)
                cand = predicted & report.vertex_page_inefficient & (degs > 0)
                edgelog.consider(verts[cand], degs[cand])
            if es_plan is not None:
                # Scatter the (possibly mutated) edge-state copy back
                # and charge dirty val-page writes.
                off = 0
                for files, idx in es_plan:
                    files.values.array[idx] = bctx.es_flat[off : off + idx.shape[0]]
                    off += idx.shape[0]
                dirty_verts = verts[bctx._es_dirty]
                if dirty_verts.size:
                    loader.writeback_edge_state(dirty_verts)

            processed += g_processed
            updates_processed += g_updates
            edges_scanned += g_edges
            if tracer.enabled:
                gated = {}
                if prog.loads_edges is not None:
                    gated["edge_vertices"] = int(np.count_nonzero(prepared.edges))
                tracer.emit(
                    "group_process",
                    group=g_index,
                    vertices=int(g_processed),
                    updates=int(g_updates),
                    edges=int(g_edges),
                    batched=batched,
                    **gated,
                )
                if edgelog is not None:
                    tracer.emit(
                        "edgelog_decisions",
                        group=g_index,
                        logged=int(edgelog.vertices_logged - elog_before),
                    )

        if mutations is not None:
            mutations.merge_ready()
        elog_logged = edgelog.vertices_logged if edgelog is not None else 0
        if edgelog is not None:
            edgelog.end_superstep()
        return dict(
            active_vertices=processed,
            updates_processed=updates_processed,
            messages_sent=sent,
            records_logged=mlog_next.appended - logged_before,
            edges_scanned=edges_scanned,
            inefficient_pages=ineff_pages,
            accessed_data_pages=accessed_pages,
            edgelog_vertices_logged=elog_logged,
            edgelog_pages_avoided=avoided_pages,
            inefficient_pages_predicted=avoided_ineff,
        )

    def _end_superstep(self, step: int, rec: SuperstepRecord) -> None:
        """Fold the lane overlay and emit the overlay snapshots; after the
        progress hook and the active-set advance, rotate the multi-log
        generations and write the checkpoint when one is due."""
        tracer = self.tracer
        # Fold this superstep into the lane overlay whether or not
        # tracing is on -- the scheduler.* gauges read it either way.
        self.pipeline.end_superstep(rec.storage_time_us, rec.compute_time_us)
        if tracer.enabled:
            for ov in self.overlays:
                tracer.emit(ov.trace_kind, **ov.snapshot())
        super()._end_superstep(step, rec)
        self.mlog_cur, self.mlog_next = self.mlog_next, self.mlog_cur
        self.mlog_cur.tracker = None
        self.mlog_next.tracker = self.tracker
        if tracer.enabled:
            tracer.emit(
                "mlog_rotate",
                current=self.mlog_cur.name,
                pending_messages=int(self.mlog_cur.total_messages),
            )
        # Checkpoint at the superstep cut: tracker advanced, logs
        # rotated, records appended -- everything a resumed run
        # needs is settled.  Its write cost lands between this
        # superstep's stats window and the next, so per-superstep
        # records are checkpoint-invariant.
        every = self.options.checkpoint_every
        if every > 0 and (step + 1) % every == 0:
            cache = self.fs.cache
            if cache is not None:
                # Write every dirty log batch back first, so the logs
                # the checkpoint carries are on flash and its stats
                # snapshot includes their cost (DESIGN.md §10).
                cache.flush()
                if cache.dirty_pages or cache.pinned_pages:
                    raise EngineError(
                        f"cache not clean at the superstep-{step} cut: "
                        f"{cache.dirty_pages} dirty, {cache.pinned_pages} pinned pages"
                    )
            info = self.ckpt_mgr.write(
                engine=self, step=step, values=self.values, tracker=self.tracker,
                mlog_cur=self.mlog_cur, mlog_next=self.mlog_next, edgelog=self.edgelog,
                rng=self.rng, records=self.records, meter=self.meter, overlays=self.overlays,
            )
            if tracer.enabled:
                tracer.emit(
                    "checkpoint_write",
                    ckpt_id=info.ckpt_id,
                    payload_pages=info.payload_pages,
                    time_us=info.time_us,
                )
            # Drop cache contents at the cut so a crash-and-resume
            # from this checkpoint charges I/O exactly like this
            # uninterrupted run does (counters survive the clear).
            if cache is not None:
                cache.clear()

    def _result(self, *args) -> RunResult:
        # Buffered structural updates land before the run reports.
        if self.mutations is not None:
            self.mutations.merge_all()
        return super()._result(*args)

    # ------------------------------------------------------------------

    def _log(self, mlog: MultiLogUnit, batches: List[UpdateBatch]) -> int:
        """The one producer sink: seed messages and every group's sends.

        Ingests ``batches`` (send order) and returns how many updates the
        program sent.  With :attr:`precombine` they first become one
        batch reduced to a record per (destination, source interval) --
        level 1 of the combine tree -- after the range check has seen
        every destination as produced.  The reduce is charged as the one
        stable sort by destination it runs over the whole batch
        (DESIGN.md §15): a merge of its natural runs (each sender's
        follow its ascending adjacency list) or a counting sort over its
        destination range, whichever is cheaper.
        """
        sent = sum(b.n for b in batches)
        if self.precombine and sent:
            batch = mlog.narrowed(UpdateBatch.concat(batches))
            runs = natural_runs(batch.dest)
            span = int(batch.dest.max()) - int(batch.dest.min()) + 1
            reduced = precombine(batch, self.program.combine, self.intervals)
            levels, counted = self.meter.charge_sort_reduce(sent, runs, span, "sort_send")
            if self.tracer.enabled:
                self.tracer.emit(
                    "send_reduce",
                    records=sent,
                    natural_runs=runs,
                    span=span,
                    survivors=reduced.n,
                    counted=counted,
                    item_levels=levels,
                )
            batches = [reduced]
        for batch in batches:
            mlog.ingest(batch)
        return sent

    def _build_batch(self, prepared: PreparedGroup, send_batch):
        """Assemble the columnar :class:`~repro.core.batch.BatchContext`.

        It extends the group's :class:`~repro.core.batch.GroupView`
        (built at prepare time, where ``loads_edges`` saw it) with the
        adjacency of the vertices whose edges were loaded, gathered with
        one vectorised fancy-index per interval over the group's
        :meth:`~repro.graph.storage.GraphOnSSD.group_ranges`.  A vertex
        left out keeps its true degree and gets an empty segment.  For
        edge-state programs the value vectors are gathered as a mutable
        copy and a scatter plan ``[(files, idx), ...]`` is returned so
        the engine can write mutations back (per-vertex ranges are
        disjoint, so gather/mutate/scatter is equivalent to in-place
        writes).

        ``send_batch`` is the outgoing-update sink (an outbox the engine
        hands to :meth:`_log` when the kernel returns).  With a
        mutation buffer, each vertex's own
        buffered edits are overlaid on its stored adjacency here: a
        vertex runs once per superstep and only ever edits its own
        edges, so nothing the kernel buffers can change this view.
        """
        view, ranges, edges = prepared.view, prepared.ranges, prepared.edges
        verts = view.vids
        need_w = self.program.needs_weights
        need_es = self.program.uses_edge_state
        mutations = self.mutations
        degrees = view.degrees
        starts, stops = ranges.starts, ranges.stops
        if edges is not None:
            stops = np.where(edges, stops, starts)
        nb_parts, w_parts = [], []
        es_plan = [] if need_es else None
        for i, s, e in ranges.spans():
            files = self.storage.interval_files(i)
            idx = flatten_ranges(starts[s:e], stops[s:e])
            nb_parts.append(files.colidx.array[idx].astype(np.int64))
            if (need_w or need_es) and files.values is not None:
                w_parts.append(files.values.array[idx])
                if need_es:
                    es_plan.append((files, idx))
        nb_flat = np.concatenate(nb_parts) if nb_parts else np.empty(0, np.int64)
        vals_flat = np.concatenate(w_parts) if w_parts else np.empty(0, np.float64)
        w_flat = vals_flat if need_w else None
        es_flat = vals_flat if need_es else None
        if mutations is not None:
            degrees, nb_flat, w_flat = mutations.overlay_batch(verts, degrees, nb_flat, w_flat)
        seg = degrees if edges is None else stops - starts
        nb_offsets = np.concatenate([[0], np.cumsum(seg)]).astype(np.int64)

        bctx = BatchContext(
            vids=verts,
            superstep=view.superstep,
            values=self.values,
            u_lo=view.u_lo,
            u_hi=view.u_hi,
            usrc=view.usrc,
            udata=view.udata,
            degrees=degrees,
            nb_offsets=nb_offsets,
            nb_flat=nb_flat,
            w_flat=w_flat,
            send_batch=send_batch,
            rng=self.rng,
            es_flat=es_flat,
            mutate=mutations.record if mutations is not None else None,
            loaded=edges,
        )
        return bctx, es_plan
