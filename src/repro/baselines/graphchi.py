"""GraphChi baseline: shard-based parallel-sliding-windows engine.

Implements the access pattern the paper compares against (§II-A, §VI):

* the graph lives in shards (all in-edges of a vertex interval, sorted
  by source); messages travel by writing values on edges;
* processing interval ``i`` in a superstep loads **shard i entirely**
  plus the sliding window (the ``src in interval i`` row range) of every
  other shard, then writes all of it back;
* an interval is skipped only when *no* vertex in it is active -- a
  single active vertex forces the whole shard load, which is the read
  amplification MultiLogVC removes.

Program semantics (API, activation rules, combine, determinism) match
the MultiLogVC engine exactly, so the same :class:`VertexProgram` runs
on both and produces identical values; only the storage traffic
differs.  One constraint inherited from edge-value messaging: at most
one message per edge per superstep (all bundled applications satisfy
it; a second send on the same edge overwrites the first, as in real
GraphChi).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import EngineError, ProgramError
from ..graph.csr import CSRGraph
from ..graph.partition import static_partition
from ..graph.shards import ShardedGraph
from ..obs.context import current_tracer
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import Tracer
from ..options import EngineOptions, resolve_options
from ..ssd.filesystem import SimFS
from ..core.active import ActiveTracker
from ..core.api import VertexContext, VertexProgram
from ..core.combine import combine_sorted
from ..core.results import ComputeMeter, RunResult, SuperstepRecord
from ..core.update import DATA_DTYPE, SRC_DTYPE, UpdateBatch

_EMPTY_SRC = np.empty(0, dtype=SRC_DTYPE)
_EMPTY_DATA = np.empty(0, dtype=DATA_DTYPE)


class GraphChi:
    """Shard-based out-of-core vertex-centric engine (the baseline)."""

    name = "graphchi"

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
        # GraphChi has no tuning knobs; validation rejects stray options.
        self.options = resolve_options(self.name, options)
        if program.mutates_structure:
            raise EngineError(
                "structural updates are implemented on the MultiLogVC engine; "
                "the GraphChi baseline runs static graphs"
            )
        if program.uses_edge_state and program.needs_weights:
            raise ProgramError("uses_edge_state and needs_weights are mutually exclusive")
        self.graph = graph
        self.program = program
        self.config = config
        self.fs = fs if fs is not None else SimFS(config)
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics_registry = metrics
        self.progress = progress
        self.shards = ShardedGraph(graph, self.fs, config)

    # ------------------------------------------------------------------

    def run(self, max_supersteps: int = 15, seed: int = 0) -> RunResult:
        cfg = self.config
        prog = self.program
        n = self.graph.n
        shards = self.shards
        intervals = shards.intervals
        rng = np.random.default_rng(seed)
        meter = ComputeMeter(cfg.compute)
        tracer = self.tracer
        reg = self.metrics_registry if self.metrics_registry is not None else NULL_METRICS
        if self.fs.cache is not None:
            self.fs.cache.register_metrics(reg)
        shard_loads = reg.counter("graphchi.shard_loads")
        window_reads = reg.counter("graphchi.window_reads")
        trace_start = len(tracer.events)
        if tracer.enabled:
            dev = self.fs.device
            tracer.bind_clock(lambda: dev.now_us + meter.time_us)
            tracer.set_step(-1)
            tracer.emit(
                "run_begin",
                engine=self.name,
                program=prog.name,
                n_vertices=int(n),
                n_intervals=int(self.shards.intervals.n_intervals),
            )
        tracker = ActiveTracker(n, cfg.edgelog_history_window)
        stats_start = self.fs.stats.snapshot()
        # Named combines reduce over the shared tree (repro.core.combine)
        # at MultiLogVC's default partition, so the engines agree bit
        # for bit; it has nothing to do with the shard intervals.
        tree = static_partition(self.graph, cfg)

        init = prog.initial(self.graph, rng)
        values = np.array(init.values, dtype=np.float64, copy=True)
        # Initial (out-of-band) messages: delivered at superstep 0 without
        # requiring an edge (e.g. the BFS seed targets the source itself).
        initial_msgs: Dict[int, Tuple[List[int], List[float]]] = {}
        active0 = np.asarray(init.active, dtype=np.int64)
        if init.messages is not None and init.messages.n:
            for d, s, x in zip(init.messages.dest, init.messages.src, init.messages.data):
                srcs, datas = initial_msgs.setdefault(int(d), ([], []))
                srcs.append(int(s))
                datas.append(float(x))
            active0 = np.union1d(active0, init.messages.dest.astype(np.int64))
        tracker.seed(active0)

        records: List[SuperstepRecord] = []
        converged = False
        sent_counter = [0]

        def deliver(dest: int, src: int, data: float, stamp: int) -> None:
            if not 0 <= dest < n:
                raise ProgramError(f"send target {dest} outside graph")
            if not shards.deliver(src, dest, data, stamp):
                raise ProgramError(
                    f"GraphChi messaging requires edge {src}->{dest} to exist"
                )
            sent_counter[0] += 1
            tracker.note_message(dest)

        for step in range(max_supersteps):
            if tracker.n_current == 0:
                converged = True
                break
            stats_before = self.fs.stats.snapshot()
            compute_before = meter.time_us
            sent_before = sent_counter[0]
            active_ids = tracker.current_ids
            if tracer.enabled:
                tracer.set_step(step)
                tracer.emit("superstep_begin", active=int(tracker.n_current))
            processed = 0
            updates_processed = 0
            edges_scanned = 0

            def send_one(dest: int, src: int, data: float, _step=step) -> None:
                deliver(dest, src, data, _step + 1)

            def send_many(dests: np.ndarray, src: int, datas: np.ndarray, _step=step) -> None:
                for d, x in zip(np.asarray(dests).tolist(), np.asarray(datas).tolist()):
                    deliver(int(d), src, float(x), _step + 1)

            bounds = intervals.boundaries
            cut = np.searchsorted(active_ids, bounds)
            for i in range(intervals.n_intervals):
                s_i, e_i = cut[i], cut[i + 1]
                if s_i == e_i:
                    continue  # the only case GraphChi may skip a shard
                verts = active_ids[s_i:e_i]
                # --- load memory shard + sliding windows -----------------
                io_shard = shards.shards[i].file.read_all()
                _ = io_shard
                shard_loads.inc()
                n_windows = 0
                for j, other in enumerate(shards.shards):
                    if j == i:
                        continue
                    lo_r, hi_r = other.window(i)
                    if hi_r > lo_r:
                        other.file.read_ranges(
                            np.array([lo_r], dtype=np.int64), np.array([hi_r], dtype=np.int64)
                        )
                        n_windows += 1
                window_reads.inc(n_windows)
                if tracer.enabled:
                    tracer.emit(
                        "shard_load",
                        interval=int(i),
                        shard_pages=int(shards.shards[i].file.n_pages),
                        windows=n_windows,
                        active=int(verts.shape[0]),
                    )
                # --- process active vertices ------------------------------
                iv_updates = 0
                iv_edges = 0
                for v in verts.tolist():
                    usrc, udata = shards.fresh_in_edges(v, step)
                    if v in initial_msgs and step == 0:
                        s0, d0 = initial_msgs[v]
                        usrc = np.concatenate([usrc, np.asarray(s0, dtype=usrc.dtype)])
                        udata = np.concatenate([udata, np.asarray(d0)])
                    usrc = usrc.astype(SRC_DTYPE, copy=False)
                    udata = udata.astype(DATA_DTYPE, copy=False)
                    if prog.combine is not None and usrc.shape[0] > 1:
                        batch = UpdateBatch.of(
                            np.full(usrc.shape[0], v, dtype=np.int32), usrc, udata
                        )
                        uniq, offsets = batch.group()
                        batch, _, _ = combine_sorted(
                            batch, uniq, offsets, prog.combine, tree
                        )
                        usrc, udata = batch.src, batch.data
                    nb = self.graph.neighbors(v)
                    wt = self.graph.weights
                    out_w = (
                        wt[self.graph.rowptr[v] : self.graph.rowptr[v + 1]]
                        if (prog.needs_weights and wt is not None)
                        else (np.ones(nb.shape[0]) if prog.needs_weights else None)
                    )
                    edge_state = None
                    state_rows = None
                    if prog.uses_edge_state:
                        shard_v = shards.shard_of(v)
                        state_rows = shard_v.in_edge_rows(v)
                        edge_state = shard_v.value[state_rows].copy()
                    ctx = VertexContext(
                        vid=v,
                        superstep=step,
                        values=values,
                        updates_src=usrc,
                        updates_data=udata,
                        out_neighbors=nb,
                        out_weights=out_w,
                        edge_state=edge_state,
                        send=send_one,
                        send_many=send_many,
                        rng=rng,
                        mutate=None,
                    )
                    prog.process(ctx)
                    if not ctx.deactivated:
                        tracker.note_self_active(v)
                    if ctx.edge_state_dirty and state_rows is not None:
                        shard_v = shards.shard_of(v)
                        shard_v.value[state_rows] = edge_state
                    processed += 1
                    iv_updates += usrc.shape[0]
                    iv_edges += nb.shape[0]
                updates_processed += iv_updates
                edges_scanned += iv_edges
                meter.charge_vertices(verts.shape[0])
                meter.charge_updates(iv_updates)
                meter.charge_edges(iv_edges)
                # --- write back -------------------------------------------
                # PSW writes each edge once per superstep: the out-edge
                # windows (including the memory shard's own in-interval
                # window) carry the freshly written messages.  The memory
                # shard's remaining in-edges were only *read* (consumed),
                # so the full shard is re-written only when the program
                # stores per-edge state there (e.g. CDLP labels).
                if prog.uses_edge_state:
                    shards.shards[i].file.write_all()
                for j, other in enumerate(shards.shards):
                    if j == i and prog.uses_edge_state:
                        continue  # already rewritten above
                    lo_r, hi_r = other.window(i)
                    if hi_r > lo_r:
                        other.file.write_ranges(
                            np.array([lo_r], dtype=np.int64), np.array([hi_r], dtype=np.int64)
                        )

            prog.on_superstep_end(step, values, rng)
            delta = self.fs.stats.snapshot() - stats_before
            rec = SuperstepRecord(
                index=step,
                active_vertices=processed,
                updates_processed=updates_processed,
                messages_sent=sent_counter[0] - sent_before,
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
