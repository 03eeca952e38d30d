"""Greedy distributed graph coloring (paper §VII, Fig. 6c).

Pregel-style conflict-resolution coloring in the spirit of
PowerGraph's vertex programs: every vertex starts with color 0 and
broadcasts it; on receiving neighbor colors, a vertex that conflicts
with a *higher-priority* neighbor (smaller vertex id wins) picks a new
color absent from its neighbor-color table and re-broadcasts.  Neighbor
colors live in persistent per-edge state, so updates must be delivered
individually -- a non-mergeable workload.

Symmetry breaking: if every conflicting vertex deterministically picked
the *smallest* free color, all vertices sharing an identical
neighborhood view would collide again and convergence would crawl
(synchronous BSP has no scheduler to serialise them, unlike
PowerGraph's async engine).  Instead a vertex picks uniformly among its
``conflicts + 1`` smallest free colors, seeded by ``(seed, superstep,
vertex)`` -- deterministic across engines, convergent in expectation
(each round a constant fraction of conflicts resolves).

Terminates with a proper coloring (no two adjacent vertices share a
color) once no conflicts remain.
"""

from __future__ import annotations

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..graph.csr import CSRGraph


def smallest_free_color(used: np.ndarray) -> float:
    """Smallest non-negative integer not present in ``used``."""
    present = np.unique(used[used >= 0]).astype(np.int64)
    for c, p in enumerate(present):
        if p != c:
            return float(c)
    return float(present.shape[0])


def free_colors(used: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` smallest non-negative integers not present in ``used``."""
    present = set(np.unique(used[used >= 0]).astype(np.int64).tolist())
    out = []
    c = 0
    while len(out) < k:
        if c not in present:
            out.append(c)
        c += 1
    return np.asarray(out, dtype=np.int64)


class GraphColoringProgram(VertexProgram):
    """Conflict-driven greedy coloring with randomised symmetry breaking."""

    name = "coloring"
    uses_edge_state = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        values = np.zeros(graph.n)  # everyone starts with color 0
        return InitialState(values=values, active=np.arange(graph.n, dtype=np.int64))

    def process(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0:
            ctx.send_all(ctx.value)
            ctx.deactivate()
            return
        if ctx.degree == 0:
            ctx.deactivate()
            return
        if ctx.n_updates:
            idx = np.searchsorted(ctx.out_neighbors, ctx.updates_src)
            ctx.edge_state[idx] = ctx.updates_data
            ctx.edge_state_dirty = True
        # Conflict: same color as a smaller-id (higher-priority) neighbor.
        colors = ctx.edge_state
        n_conflicts = int(np.count_nonzero((colors == ctx.value) & (ctx.out_neighbors < ctx.vid)))
        if n_conflicts:
            candidates = free_colors(colors, n_conflicts + 1)
            pick = np.random.default_rng([self.seed, ctx.superstep, ctx.vid]).integers(
                0, candidates.shape[0]
            )
            new_color = float(candidates[pick])
            ctx.value = new_color
            ctx.send_all(new_color)
        ctx.deactivate()

    def process_batch(self, b) -> None:
        """Vectorised group kernel; identical semantics to :meth:`process`.

        Conflict detection and re-broadcast are fully vectorised; only
        conflicted vertices take a small Python loop, because each must
        draw from its own ``(seed, superstep, vid)`` RNG stream to stay
        bit-identical with :meth:`process` across engines.
        """
        from ..core.batch import segment_sum

        if b.superstep == 0:
            b.send_along_edges(b.degrees > 0, b.values[b.vids])
            return
        b.apply_updates_to_edge_state()
        own = np.repeat(b.values[b.vids], b.degrees)
        higher = b.nb_flat < np.repeat(b.vids, b.degrees)
        conflict_edges = (b.es_flat == own) & higher
        n_conflicts = segment_sum(conflict_edges, b.nb_offsets).astype(np.int64)
        conflicted = np.flatnonzero(n_conflicts)
        if conflicted.shape[0]:
            new_colors = b.values[b.vids].copy()
            for i in conflicted:
                candidates = free_colors(b.edge_state_of(int(i)), int(n_conflicts[i]) + 1)
                pick = np.random.default_rng(
                    [self.seed, b.superstep, int(b.vids[i])]
                ).integers(0, candidates.shape[0])
                new_colors[i] = float(candidates[pick])
            mask = n_conflicts > 0
            b.values[b.vids[mask]] = new_colors[mask]
            b.send_along_edges(mask, new_colors)


def coloring_is_proper(graph: CSRGraph, colors: np.ndarray) -> bool:
    """Check that no edge connects two same-colored vertices."""
    src, dst = graph.edge_array()
    keep = src != dst
    return bool(np.all(colors[src[keep]] != colors[dst[keep]]))


def conflict_count(graph: CSRGraph, colors: np.ndarray) -> int:
    """Number of monochromatic edges (0 for a proper coloring)."""
    src, dst = graph.edge_array()
    keep = src != dst
    return int(np.count_nonzero(colors[src[keep]] == colors[dst[keep]])) // 2
