"""Weakly connected components (extension workload).

HashMin label propagation: every vertex repeatedly adopts the smallest
component id seen among its neighbors.  Mergeable (``combine="min"``),
so it also exercises the GraFBoost-compatible path; used by the test
suite for cross-engine equivalence because it is fully deterministic.
"""

from __future__ import annotations

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..graph.csr import CSRGraph


class WCCProgram(VertexProgram):
    """Minimum-label propagation for connected components."""

    name = "wcc"
    combine = "min"

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        values = np.arange(graph.n, dtype=np.float64)
        return InitialState(values=values, active=np.arange(graph.n, dtype=np.int64))

    def process(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0 and ctx.n_updates == 0:
            ctx.send_all(ctx.value)
        elif ctx.n_updates:
            m = float(ctx.updates_data.min())
            if m < ctx.value:
                ctx.value = m
                ctx.send_all(m)
        ctx.deactivate()

    def process_batch(self, b) -> None:
        """Vectorised group kernel; identical semantics to :meth:`process`."""
        counts = b.update_counts
        m = b.combined_update(default=np.inf)
        send = (counts > 0) & (m < b.values[b.vids])
        b.values[b.vids[send]] = m[send]
        if b.superstep == 0:
            # Kick-off: vertices without updates announce their own id.
            send |= counts == 0
        b.send_along_edges(send & (b.degrees > 0), b.values[b.vids])

    @staticmethod
    def relax(x, w):
        """Label offered along an edge: the sender's own."""
        return x

    def warm_start(self, graph, values, reset, inserted_src, inserted_dst, inserted_w, rng):
        """Monotone min-propagation warm start (bit-exact; DESIGN.md §12).

        WCC is self-seeded (every vertex's base value is its own id), so
        cone vertices additionally "kick" their reset id along their
        out-edges -- the superstep-0 broadcast a fresh run would do, which
        a warm-started vertex receiving boundary messages would skip.
        """
        from ..stream.incremental import minprop_warm_start

        return minprop_warm_start(
            graph, values, reset, inserted_src, inserted_dst, inserted_w,
            relax=self.relax,
            reset_values=np.asarray(reset, dtype=np.float64),
            kick_reset=True,
        )


def wcc_reference(graph: CSRGraph) -> np.ndarray:
    """Reference labels via networkx weakly connected components."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    src, dst = graph.edge_array()
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    labels = np.empty(graph.n)
    for comp in nx.connected_components(g):
        root = min(comp)
        for v in comp:
            labels[v] = root
    return labels
