"""Single-source shortest paths (extension workload).

Bellman-Ford-style relaxation: a vertex adopting a shorter tentative
distance relaxes all its out-edges with their static weights.  Needs
``needs_weights`` (reads the value vector) and is mergeable
(``combine="min"``) -- together with WCC it widens the coverage of the
combine fast path beyond the paper's two mergeable workloads.
"""

from __future__ import annotations

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..core.update import UpdateBatch
from ..graph.csr import CSRGraph


class SSSPProgram(VertexProgram):
    """Frontier Bellman-Ford with weighted relaxation."""

    name = "sssp"
    combine = "min"
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        values = np.full(graph.n, np.inf)
        seed = UpdateBatch.of([self.source], [self.source], [0.0])
        return InitialState(values=values, active=np.empty(0, np.int64), messages=seed)

    def process(self, ctx: VertexContext) -> None:
        if ctx.n_updates:
            d = float(ctx.updates_data.min())
            if d < ctx.value:
                ctx.value = d
                if ctx.degree:
                    ctx.send_many(ctx.out_neighbors, d + ctx.out_weights)
        ctx.deactivate()

    def process_batch(self, b) -> None:
        """Vectorised group kernel; identical semantics to :meth:`process`."""
        d = b.combined_update(default=np.inf)
        improved = d < b.values[b.vids]
        b.values[b.vids[improved]] = d[improved]
        relax = improved & (b.degrees > 0)
        if relax.any():
            edge_data = np.repeat(d[relax], b.degrees[relax]) + b.out_weights_of(relax)
            b.send_edge_values(relax, edge_data)

    @staticmethod
    def relax(x, w):
        """Distance offered along an edge (unit weight when unweighted)."""
        return x + (1.0 if w is None else w)

    def warm_start(self, graph, values, reset, inserted_src, inserted_dst, inserted_w, rng):
        """Monotone min-propagation warm start (bit-exact; DESIGN.md §12)."""
        from ..stream.incremental import minprop_warm_start

        return minprop_warm_start(
            graph, values, reset, inserted_src, inserted_dst, inserted_w,
            relax=self.relax,
            reset_values=np.full(len(reset), np.inf),
            seed_vertex=self.source,
        )


def sssp_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Dijkstra via scipy sparse graph machinery."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    weights = graph.weights if graph.weights is not None else np.ones(graph.m)
    mat = csr_matrix(
        (weights, graph.colidx.astype(np.int64), graph.rowptr), shape=(graph.n, graph.n)
    )
    return dijkstra(mat, directed=True, indices=source)
