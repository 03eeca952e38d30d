"""Delta PageRank (paper §VII, Fig. 6a/7a/8).

The streaming/delta formulation used by GraphChi's example app: every
vertex starts at rank ``1 - alpha`` and pushes ``alpha * delta /
out_degree`` to its neighbors whenever it absorbs a rank delta larger
than the activation threshold (the paper uses 0.4 on billion-edge
graphs; the default here is scaled to the synthetic datasets).  Updates
are mergeable (``combine="add"``), making PageRank the paper's second
GraFBoost-compatible workload.

Converges (for threshold -> 0) to the unnormalised damped PageRank
fixed point ``r = (1 - alpha) + alpha * A^T (r / outdeg)``.
"""

from __future__ import annotations

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..graph.csr import CSRGraph


class DeltaPageRankProgram(VertexProgram):
    """Push-style delta PageRank with threshold activation."""

    name = "pagerank"
    combine = "add"

    def __init__(self, alpha: float = 0.85, threshold: float = 0.01) -> None:
        self.alpha = alpha
        self.threshold = threshold

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        values = np.full(graph.n, 1.0 - self.alpha)
        return InitialState(values=values, active=np.arange(graph.n, dtype=np.int64))

    def process(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0 and ctx.n_updates == 0:
            # Kick-off: push the initial rank mass.
            if ctx.degree:
                ctx.send_all(self.alpha * ctx.value / ctx.degree)
        elif ctx.n_updates:
            delta = float(ctx.updates_data.sum())
            ctx.value = ctx.value + delta
            if delta > self.threshold and ctx.degree:
                ctx.send_all(self.alpha * delta / ctx.degree)
        ctx.deactivate()

    def process_batch(self, b) -> None:
        """Vectorised group kernel; identical semantics to :meth:`process`."""
        has = b.update_counts > 0
        delta = b.combined_update()
        b.values[b.vids] += np.where(has, delta, 0.0)
        push = has & (delta > self.threshold)
        mass = delta
        if b.superstep == 0:
            # Kick-off: vertices without updates push their initial rank.
            push |= ~has
            mass = np.where(has, delta, b.values[b.vids])
        deg = np.maximum(b.degrees, 1)
        b.send_along_edges(push & (b.degrees > 0), self.alpha * mass / deg)


def pagerank_reference(
    graph: CSRGraph, alpha: float = 0.85, iterations: int = 100, tol: float = 1e-12
) -> np.ndarray:
    """Power iteration for the same unnormalised delta-PageRank fixed point."""
    n = graph.n
    deg = graph.out_degrees.astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    src, dst = graph.edge_array()
    r = np.full(n, 1.0 - alpha)
    for _ in range(iterations):
        contrib = r * inv_deg
        nxt = np.full(n, 1.0 - alpha)
        np.add.at(nxt, dst, alpha * contrib[src])
        if np.abs(nxt - r).max() < tol:
            r = nxt
            break
        r = nxt
    return r
