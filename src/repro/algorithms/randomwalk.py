"""Random walk (paper §VII, Fig. 6e) in the DrunkardMob style.

Walkers start at sampled source vertices (the paper samples every
1000th vertex) and take a fixed number of steps; a vertex receiving
walkers forwards each to a uniformly random neighbor and accumulates a
visit count in its value.  Each walker batch is a distinct message
(per-source counts must not be merged), so this is a non-mergeable
workload with a sparse, shifting active set -- the access pattern that
benefits most from active-vertex loading after BFS.

Per-(vertex, superstep) RNG streams are derived from ``(seed, step,
vertex)``, so all engines move the same walkers the same way.
"""

from __future__ import annotations

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..core.update import UpdateBatch
from ..graph.csr import CSRGraph


class RandomWalkProgram(VertexProgram):
    """Fixed-length uniform random walks from sampled sources."""

    name = "randomwalk"

    def __init__(
        self,
        source_stride: int = 1000,
        walkers_per_source: int = 4,
        max_steps: int = 10,
        seed: int = 0,
    ) -> None:
        if source_stride < 1 or walkers_per_source < 1 or max_steps < 1:
            raise ValueError("stride, walkers and steps must be positive")
        self.source_stride = source_stride
        self.walkers_per_source = walkers_per_source
        self.max_steps = max_steps
        self.seed = seed

    def sources(self, n: int) -> np.ndarray:
        stride = max(1, min(self.source_stride, n))
        return np.arange(0, n, stride, dtype=np.int64)

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        values = np.zeros(graph.n)  # visit counts
        src = self.sources(graph.n)
        seed_msgs = UpdateBatch.of(
            src, src, np.full(src.shape[0], float(self.walkers_per_source))
        )
        return InitialState(values=values, active=np.empty(0, np.int64), messages=seed_msgs)

    def process(self, ctx: VertexContext) -> None:
        ctx.deactivate()
        if ctx.n_updates == 0:
            return
        walkers = int(ctx.updates_data.sum())
        ctx.value = ctx.value + walkers
        if ctx.superstep >= self.max_steps or ctx.degree == 0 or walkers == 0:
            return
        rng = np.random.default_rng([self.seed, ctx.superstep, ctx.vid])
        counts = rng.multinomial(walkers, np.full(ctx.degree, 1.0 / ctx.degree))
        nz = counts > 0
        if nz.any():
            ctx.send_many(ctx.out_neighbors[nz], counts[nz].astype(np.float64))
