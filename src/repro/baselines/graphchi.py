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

from typing import Dict, List, Tuple

import numpy as np

from ..errors import EngineError, ProgramError
from ..graph.partition import static_partition
from ..graph.shards import ShardedGraph
from ..core.combine import combine_sorted
from ..core.superstep import SuperstepEngine
from ..core.update import DATA_DTYPE, SRC_DTYPE, UpdateBatch


class GraphChi(SuperstepEngine):
    """Shard-based out-of-core vertex-centric engine (the baseline)."""

    name = "graphchi"
    COUNTERS = ("shard_loads", "window_reads")

    def __init__(self, graph, program, *args, **kwargs) -> None:
        # GraphChi has no tuning knobs; validation rejects stray options.
        if program.mutates_structure:
            raise EngineError(
                "structural updates are implemented on the MultiLogVC engine; "
                "the GraphChi baseline runs static graphs"
            )
        super().__init__(graph, program, *args, **kwargs)
        self.shards = ShardedGraph(graph, self.fs, self.config)
        self.intervals = self.shards.intervals
        # Named combines reduce over the shared tree (repro.core.combine)
        # at MultiLogVC's default partition, so the engines agree bit
        # for bit; it has nothing to do with the shard intervals.
        self._tree = static_partition(graph, self.config)

    def _seed(self, messages: UpdateBatch) -> None:
        # Initial (out-of-band) messages: delivered at superstep 0 without
        # requiring an edge (e.g. the BFS seed targets the source itself).
        self._initial: Dict[int, Tuple[List[int], List[float]]] = {}
        for d, s, x in zip(messages.dest.tolist(), messages.src.tolist(), messages.data.tolist()):
            srcs, datas = self._initial.setdefault(d, ([], []))
            srcs.append(s)
            datas.append(x)
        return None

    def _superstep(self, step: int) -> None:
        prog = self.program
        graph = self.graph
        shards = self.shards
        tracer = self.tracer
        active_ids = self.tracker.current_ids
        cut = np.searchsorted(active_ids, self.intervals.boundaries)
        for i in range(self.intervals.n_intervals):
            s_i, e_i = cut[i], cut[i + 1]
            if s_i == e_i:
                continue  # the only case GraphChi may skip a shard
            verts = active_ids[s_i:e_i]
            # --- load memory shard + sliding windows ---------------------
            shards.shards[i].file.read_all()
            self.counters["shard_loads"].inc()
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
            self.counters["window_reads"].inc(n_windows)
            if tracer.enabled:
                tracer.emit(
                    "shard_load",
                    interval=int(i),
                    shard_pages=int(shards.shards[i].file.n_pages),
                    windows=n_windows,
                    active=int(verts.shape[0]),
                )
            # --- process active vertices: messages come off the in-edges --
            mark = list(self.tally)
            ev = self._edge_vals
            for v in verts.tolist():
                usrc, udata = shards.fresh_in_edges(v, step)
                if v in self._initial and step == 0:
                    s0, d0 = self._initial[v]
                    usrc = np.concatenate([usrc, np.asarray(s0, dtype=usrc.dtype)])
                    udata = np.concatenate([udata, np.asarray(d0)])
                usrc = usrc.astype(SRC_DTYPE, copy=False)
                udata = udata.astype(DATA_DTYPE, copy=False)
                if prog.combine is not None and usrc.shape[0] > 1:
                    batch = UpdateBatch.of(np.full(usrc.shape[0], v, dtype=np.int32), usrc, udata)
                    uniq, offsets = batch.group()
                    batch, _, _ = combine_sorted(batch, uniq, offsets, prog.combine, self._tree)
                    usrc, udata = batch.src, batch.data
                lo, hi = int(graph.rowptr[v]), int(graph.rowptr[v + 1])
                edge_state = state_rows = None
                if prog.uses_edge_state:
                    shard_v = shards.shard_of(v)
                    state_rows = shard_v.in_edge_rows(v)
                    edge_state = shard_v.value[state_rows].copy()
                ctx = self._vertex(
                    step, v, usrc, udata, graph.colidx[lo:hi],
                    ev[lo:hi] if ev is not None else None, edge_state,
                )
                if ctx.edge_state_dirty and state_rows is not None:
                    shards.shard_of(v).value[state_rows] = edge_state
            self._charge(mark)
            # --- write back -------------------------------------------------
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
        # Messages travel on edges: the next superstep reads them back.
        out = self.outbox
        k = shards.deliver_many(out.src, out.dest, out.data, step + 1)
        if k >= 0:
            raise ProgramError(
                f"GraphChi messaging requires edge {out.src[k]}->{out.dest[k]} to exist"
            )
