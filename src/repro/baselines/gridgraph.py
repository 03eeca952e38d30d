"""GridGraph baseline: edge-centric 2-level grid streaming (paper §IX).

The paper's related work positions X-Stream/GridGraph as edge-centric
out-of-core systems that stream edge data sequentially but suffer when
"applications require random and sparse accesses to graph data such as
BFS ... or random-walk".  This engine reproduces GridGraph's access
pattern so that claim can be measured:

* edges are partitioned into a ``P x P`` grid of blocks -- block
  ``(i, j)`` holds the edges from vertex interval ``i`` to interval
  ``j`` -- laid out contiguously (one pass of preprocessing);
* per iteration, GridGraph streams every block whose *source* interval
  contains at least one active vertex (2-level selective scheduling:
  skipping is block-granular, so one active vertex still drags in a
  whole row of blocks);
* vertex states live in on-flash vertex chunks streamed through memory
  (the second level of the 2-level partitioning: at the paper's scale,
  1.4 B vertices x 8 B does not fit the 1 GB budget): each pass reads
  the source chunks of streamed rows and reads+writes every destination
  chunk that accumulates updates.  There is no update log and no edge
  writes, but **only associative+commutative (combine) algorithms** are
  expressible, like GraFBoost;
* edge records are 8 bytes (src, dst -- GridGraph stores no per-edge
  values; weighted algorithms stream a parallel weight file).

Strengths and weaknesses both emerge from the model: on all-active
PageRank GridGraph reads half of what shard-based GraphChi moves and
writes nothing; on frontier workloads it re-streams entire block rows
for a handful of active vertices, which is where MultiLogVC's
active-page loading wins (the §IX claim).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import EngineError, ProgramError
from ..graph.csr import CSRGraph
from ..graph.partition import VertexIntervals, partition_by_edge_volume, uniform_partition
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

KLASS_GRID = "grid"
KLASS_GRIDW = "grid_w"

_EMPTY_SRC = np.empty(0, dtype=SRC_DTYPE)
_EMPTY_DATA = np.empty(0, dtype=DATA_DTYPE)


class GridGraph:
    """2-level grid-partitioned edge-streaming engine (combine apps only)."""

    name = "gridgraph"

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
        if program.combine is None:
            raise EngineError(
                "GridGraph's streaming accumulation requires a combine operator "
                "(the same restriction as GraFBoost)"
            )
        if program.uses_edge_state or program.mutates_structure:
            raise EngineError("GridGraph streams immutable 8-byte edges; no edge state/mutation")
        self.graph = graph
        self.program = program
        self.config = config
        self.options = options
        self.fs = fs if fs is not None else SimFS(config)
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics_registry = metrics
        self.progress = progress
        intervals = options.intervals
        if intervals is None and options.grid_p is not None:
            intervals = uniform_partition(graph.n, options.grid_p)
        if intervals is None:
            intervals = partition_by_edge_volume(
                graph, config.memory.sort_bytes, 2 * config.records.vid_bytes
            )
        self.intervals = intervals
        p = intervals.n_intervals
        src_all, dst_all = graph.edge_array()
        w_all = graph.weights
        # Grid order: primary by src interval, secondary by dst interval.
        bi = intervals.interval_of(src_all)
        bj = intervals.interval_of(dst_all)
        order = np.lexsort((dst_all, src_all, bj, bi))
        self._src = src_all[order]
        self._dst = dst_all[order]
        self._w = w_all[order] if w_all is not None else None
        # Block boundaries: offsets of each (i, j) block in the edge stream.
        keys = bi[order] * np.int64(p) + bj[order]
        self._block_offsets = np.searchsorted(
            keys, np.arange(p * p + 1, dtype=np.int64)
        )
        self._p = p
        self._edge_file = self.fs.create_array_file(
            "grid.edges", KLASS_GRID, np.empty(self._src.shape[0]), 2 * config.records.vid_bytes
        )
        self._vertex_file = self.fs.create_array_file(
            "grid.vertices", "grid_v", np.empty(graph.n), config.records.weight_bytes
        )
        self._weight_file = None
        if program.needs_weights:
            w = self._w if self._w is not None else np.ones(self._src.shape[0])
            self._w = w
            self._weight_file = self.fs.create_array_file(
                "grid.weights", KLASS_GRIDW, w, config.records.weight_bytes
            )

    # -- geometry -------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self._p * self._p

    def block_range(self, i: int, j: int) -> Tuple[int, int]:
        k = i * self._p + j
        return int(self._block_offsets[k]), int(self._block_offsets[k + 1])

    def total_pages(self) -> int:
        return self._edge_file.n_pages

    def _streamed_rows(self, active_ids: np.ndarray) -> np.ndarray:
        """Block rows streamed this iteration (2-level selective scheduling)."""
        if active_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.intervals.interval_of(active_ids))

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
        c_rows = reg.counter(f"{self.name}.rows_streamed")
        c_edge_pages = reg.counter(f"{self.name}.edge_pages_streamed")
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
                n_intervals=int(self.intervals.n_intervals),
            )
        tracker = ActiveTracker(n, cfg.edgelog_history_window)
        stats_start = self.fs.stats.snapshot()

        init = prog.initial(self.graph, rng)
        values = np.array(init.values, dtype=np.float64, copy=True)
        pending = UpdateBatch.empty()
        active0 = np.asarray(init.active, dtype=np.int64)
        if init.messages is not None and init.messages.n:
            pending = init.messages.sort_by_dest()
            active0 = np.union1d(active0, init.messages.dest.astype(np.int64))
        tracker.seed(active0)

        records: List[SuperstepRecord] = []
        converged = False
        for step in range(max_supersteps):
            if tracker.n_current == 0 and pending.n == 0:
                converged = True
                break
            stats_before = self.fs.stats.snapshot()
            compute_before = meter.time_us
            active_ids = tracker.current_ids
            if tracer.enabled:
                tracer.set_step(step)
                tracer.emit(
                    "superstep_begin",
                    active=int(tracker.n_current),
                    pending_messages=int(pending.n),
                )

            # --- stream: read every block row with an active source ------
            act_intervals = self._streamed_rows(active_ids)
            starts, stops = [], []
            for i in act_intervals:
                lo, hi = self.block_range(int(i), 0)[0], self.block_range(int(i), self._p - 1)[1]
                if hi > lo:
                    starts.append(lo)
                    stops.append(hi)
            edge_pages = 0
            if starts:
                s_arr = np.asarray(starts, dtype=np.int64)
                e_arr = np.asarray(stops, dtype=np.int64)
                _, pages, _ = self._edge_file.read_ranges(s_arr, e_arr)
                edge_pages = int(pages.shape[0])
                if self._weight_file is not None:
                    self._weight_file.read_ranges(s_arr, e_arr)
            c_rows.inc(len(act_intervals))
            c_edge_pages.inc(edge_pages)
            if tracer.enabled:
                tracer.emit(
                    "block_stream",
                    rows=int(len(act_intervals)),
                    edge_pages=edge_pages,
                )
            # Vertex chunks (2nd partitioning level): read the source
            # chunks of every streamed row; destination chunks that
            # accumulate updates are read and written back.
            src_chunks = 0
            dst_chunks = 0
            if len(act_intervals):
                v_lo = self.intervals.boundaries[np.asarray(act_intervals)]
                v_hi = self.intervals.boundaries[np.asarray(act_intervals) + 1]
                self._vertex_file.read_ranges(v_lo, v_hi)
                src_chunks = int(len(act_intervals))
            if pending.n:
                dst_iv = np.unique(self.intervals.interval_of(pending.dest.astype(np.int64)))
                d_lo = self.intervals.boundaries[dst_iv]
                d_hi = self.intervals.boundaries[dst_iv + 1]
                self._vertex_file.read_ranges(d_lo, d_hi)
                self._vertex_file.write_ranges(d_lo, d_hi)
                dst_chunks = int(dst_iv.shape[0])
            if tracer.enabled:
                tracer.emit(
                    "vertex_chunks",
                    src_chunks=src_chunks,
                    dst_chunks=dst_chunks,
                )

            # --- process active vertices with accumulated updates --------
            pending = pending.sort_by_dest()
            uniq, offsets = pending.group()
            if prog.combine is not None and uniq.shape[0]:
                pending, uniq, offsets = combine_sorted(pending, uniq, offsets, prog.combine)
            verts = np.union1d(uniq.astype(np.int64), active_ids)
            acc_dest: List[np.ndarray] = []
            acc_src: List[np.ndarray] = []
            acc_data: List[np.ndarray] = []
            sent = [0]

            def send_one(dest: int, src: int, data: float) -> None:
                if not 0 <= dest < n:
                    raise ProgramError(f"send target {dest} outside graph")
                acc_dest.append(np.array([dest], dtype=np.int32))
                acc_src.append(np.array([src], dtype=np.int32))
                acc_data.append(np.array([data]))
                sent[0] += 1
                tracker.note_message(dest)

            def send_many(dests: np.ndarray, src: int, datas: np.ndarray) -> None:
                d = np.asarray(dests, dtype=np.int64)
                if d.size == 0:
                    return
                if d.min() < 0 or d.max() >= n:
                    raise ProgramError("send target outside graph")
                acc_dest.append(d.astype(np.int32))
                acc_src.append(np.full(d.shape[0], src, dtype=np.int32))
                acc_data.append(np.asarray(datas, dtype=np.float64))
                sent[0] += int(d.shape[0])
                tracker.note_messages(d)

            processed = 0
            updates_processed = 0
            edges_scanned = 0
            k_up = uniq.shape[0]
            upos = np.searchsorted(uniq, verts)
            for idx in range(verts.shape[0]):
                v = int(verts[idx])
                pth = int(upos[idx])
                if pth < k_up and uniq[pth] == v:
                    s0, e0 = int(offsets[pth]), int(offsets[pth + 1])
                    usrc, udata = pending.src[s0:e0], pending.data[s0:e0]
                else:
                    usrc, udata = _EMPTY_SRC, _EMPTY_DATA
                nb = self.graph.neighbors(v)
                s_e = self.graph.edge_range(v)
                out_w = (
                    self.graph.weights[s_e[0] : s_e[1]]
                    if (prog.needs_weights and self.graph.weights is not None)
                    else (np.ones(nb.shape[0]) if prog.needs_weights else None)
                )
                ctx = VertexContext(
                    vid=v,
                    superstep=step,
                    values=values,
                    updates_src=usrc,
                    updates_data=udata,
                    out_neighbors=nb,
                    out_weights=out_w,
                    edge_state=None,
                    send=send_one,
                    send_many=send_many,
                    rng=rng,
                    mutate=None,
                )
                prog.process(ctx)
                if not ctx.deactivated:
                    tracker.note_self_active(v)
                processed += 1
                updates_processed += usrc.shape[0]
                edges_scanned += nb.shape[0]
            meter.charge_vertices(processed)
            meter.charge_updates(int(pending.n))
            meter.charge_edges(edges_scanned)
            pending = UpdateBatch.concat(
                [UpdateBatch.of(d, s, x) for d, s, x in zip(acc_dest, acc_src, acc_data)]
            )

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


class XStream(GridGraph):
    """X-Stream baseline: edge streaming *without* selective scheduling.

    Identical to :class:`GridGraph` except that every iteration streams
    the **entire** edge list (and all vertex chunks on the read side):
    X-Stream's streaming-partition design has no grid-level skipping, so
    sparse supersteps pay the full sequential sweep -- the paper's §IX
    characterisation of edge-centric systems at their weakest.
    """

    name = "xstream"

    def _streamed_rows(self, active_ids: np.ndarray) -> np.ndarray:
        if active_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.arange(self.intervals.n_intervals, dtype=np.int64)
