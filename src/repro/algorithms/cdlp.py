"""Community detection by label propagation (paper §VII, Algorithm 2).

The Raghavan-Albert-Kumara near-linear-time community detection scheme:
every vertex repeatedly adopts the most frequent label among its
neighbors.  Each vertex stores its neighbors' last-known labels in
persistent per-edge state (``uses_edge_state``, paper Algorithm 2's
``V_inf.edge(m.source_id).set_label(m.data)``) and broadcasts its own
label only when it changes.

Updates must be preserved individually (which neighbor said what), so
this is one of the paper's non-mergeable workloads -- it cannot run on
plain GraFBoost.
"""

from __future__ import annotations

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..graph.csr import CSRGraph


def frequent_label(labels: np.ndarray) -> float:
    """Most frequent value; ties broken toward the smallest label."""
    uniq, counts = np.unique(labels, return_counts=True)
    return float(uniq[np.argmax(counts)])


class CommunityDetectionProgram(VertexProgram):
    """Synchronous label propagation with per-edge label caching."""

    name = "cdlp"
    uses_edge_state = True

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        values = np.arange(graph.n, dtype=np.float64)  # label = own id
        return InitialState(values=values, active=np.arange(graph.n, dtype=np.int64))

    def process(self, ctx: VertexContext) -> None:
        if ctx.superstep == 0:
            # Round 0: announce the initial label to every neighbor so that
            # each vertex's edge-state table is fully populated in round 1.
            ctx.send_all(ctx.value)
            ctx.deactivate()
            return
        if ctx.n_updates and ctx.degree:
            # Record each sender's new label in the per-edge state.
            idx = np.searchsorted(ctx.out_neighbors, ctx.updates_src)
            ctx.edge_state[idx] = ctx.updates_data
            ctx.edge_state_dirty = True
        if ctx.degree:
            new_label = frequent_label(ctx.edge_state)
            if new_label != ctx.value:
                ctx.value = new_label
                ctx.send_all(new_label)
        ctx.deactivate()

    def process_batch(self, b) -> None:
        """Vectorised group kernel; identical semantics to :meth:`process`."""
        if b.superstep == 0:
            b.send_along_edges(b.degrees > 0, b.values[b.vids])
            return
        b.apply_updates_to_edge_state()
        # Segmented mode = each vertex's frequent_label over its table.
        new_label = b.edge_state_mode()
        changed = (b.degrees > 0) & (new_label != b.values[b.vids])
        b.values[b.vids[changed]] = new_label[changed]
        b.send_along_edges(changed, new_label)


def cdlp_reference(graph: CSRGraph, supersteps: int) -> np.ndarray:
    """Synchronous reference with identical tie-breaking and scheduling.

    Mirrors the engine semantics exactly: labels known to each vertex
    are the neighbors' labels as of their last broadcast.
    """
    n = graph.n
    labels = np.arange(n, dtype=np.float64)
    # known[j] = last broadcast label of colidx[j], from the view of the
    # edge's source vertex.
    known = labels[graph.colidx].astype(np.float64)
    changed = np.ones(n, dtype=bool)  # who broadcast last round (round 0: all)
    for _step in range(1, supersteps):
        new_known = known.copy()
        # Apply broadcasts: for every edge u -> v with v having changed,
        # u's view of v updates.  Our 'known' is indexed by out-edges of
        # each vertex; entry j belongs to vertex src(j) about colidx[j].
        dst = graph.colidx
        mask = changed[dst]
        new_known[mask] = labels[dst[mask]]
        known = new_known
        new_labels = labels.copy()
        for v in range(n):
            s, e = graph.rowptr[v], graph.rowptr[v + 1]
            if e > s:
                new_labels[v] = frequent_label(known[s:e])
        changed = new_labels != labels
        labels = new_labels
        if not changed.any():
            break
    return labels
