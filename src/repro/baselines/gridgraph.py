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

from typing import Tuple

import numpy as np

from ..errors import EngineError
from ..graph.partition import partition_by_edge_volume, uniform_partition
from ..core.superstep import SuperstepEngine

KLASS_GRID = "grid"
KLASS_GRIDW = "grid_w"


class GridGraph(SuperstepEngine):
    """2-level grid-partitioned edge-streaming engine (combine apps only)."""

    name = "gridgraph"
    COUNTERS = ("rows_streamed", "edge_pages_streamed")

    def __init__(self, graph, program, *args, **kwargs) -> None:
        if program.combine is None:
            raise EngineError(
                "GridGraph's streaming accumulation requires a combine operator "
                "(the same restriction as GraFBoost)"
            )
        if program.uses_edge_state or program.mutates_structure:
            raise EngineError("GridGraph streams immutable 8-byte edges; no edge state/mutation")
        super().__init__(graph, program, *args, **kwargs)
        config, options = self.config, self.options
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

    def _superstep(self, step: int) -> None:
        pending = self.pending
        tracer = self.tracer
        active_ids = self.tracker.current_ids
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
        self.counters["rows_streamed"].inc(len(act_intervals))
        self.counters["edge_pages_streamed"].inc(edge_pages)
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

        # --- process active vertices with accumulated updates ------------
        self._sweep(step, pending.sort_by_dest(), combine=True)
        self.pending = self.outbox.batch()


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
