"""Breadth-first search (paper §VII, Fig. 5).

Distance-propagation BFS: the source is seeded with distance 0 via an
initial message; a vertex adopting a shorter distance broadcasts
``distance + 1`` to its out-neighbors.  Updates are mergeable
(``combine="min"``), which makes BFS one of the two GraFBoost-compatible
workloads.

``stop_fraction`` reproduces the Fig. 5 sweep: the run stops once the
given fraction of vertices has been reached, modelling a source/target
pair whose shortest path requires traversing that share of the graph.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..core.update import UpdateBatch
from ..graph.csr import CSRGraph


class BFSProgram(VertexProgram):
    """Frontier BFS from ``source`` with optional traversal-fraction stop."""

    name = "bfs"
    combine = "min"

    def __init__(self, source: int = 0, stop_fraction: Optional[float] = None) -> None:
        self.source = source
        self.stop_fraction = stop_fraction

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        values = np.full(graph.n, np.inf)
        seed = UpdateBatch.of([self.source], [self.source], [0.0])
        return InitialState(values=values, active=np.empty(0, np.int64), messages=seed)

    def process(self, ctx: VertexContext) -> None:
        if ctx.n_updates:
            d = float(ctx.updates_data.min())
            if d < ctx.value:
                ctx.value = d
                ctx.send_all(d + 1.0)
        ctx.deactivate()

    def process_batch(self, b) -> None:
        """Vectorised group kernel; identical semantics to :meth:`process`."""
        d = b.combined_update(default=np.inf)
        better = d < b.values[b.vids]
        if better.any():
            b.values[b.vids[better]] = d[better]
            b.send_along_edges(better & (b.degrees > 0), d + 1.0)

    def is_converged(self, values: np.ndarray) -> bool:
        if self.stop_fraction is None:
            return False
        return float(np.isfinite(values).mean()) >= self.stop_fraction

    @staticmethod
    def relax(x, w):
        """Distance offered along an edge: one hop more."""
        return x + 1.0

    def warm_start(self, graph, values, reset, inserted_src, inserted_dst, inserted_w, rng):
        """Monotone min-propagation warm start (bit-exact; DESIGN.md §12).

        Not offered under ``stop_fraction``: the early stop makes the
        result schedule-dependent, so only a full run is reproducible.
        """
        if self.stop_fraction is not None:
            return None
        from ..stream.incremental import minprop_warm_start

        return minprop_warm_start(
            graph, values, reset, inserted_src, inserted_dst, inserted_w,
            relax=self.relax,
            reset_values=np.full(len(reset), np.inf),
            seed_vertex=self.source,
        )


def bfs_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Array-based reference BFS distances (vectorised frontier sweep)."""
    dist = np.full(graph.n, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    d = 0.0
    while frontier.size:
        # Gather all neighbors of the frontier.
        starts = graph.rowptr[frontier]
        stops = graph.rowptr[frontier + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            break
        cum = np.cumsum(counts)
        idx = np.arange(total) - np.repeat(cum - counts, counts)
        nbrs = graph.colidx[np.repeat(starts, counts) + idx].astype(np.int64)
        nbrs = np.unique(nbrs)
        new = nbrs[~np.isfinite(dist[nbrs])]
        d += 1.0
        dist[new] = d
        frontier = new
    return dist
