"""Incremental recomputation: warm-start seeding for monotone programs.

The correctness argument (DESIGN.md §12)
----------------------------------------
A *monotone min-propagation* program (BFS, SSSP, WCC) computes the
unique fixed point

    L(v) = min( base(v),  min over edges u->v of relax(L(u), u->v) )

where ``base`` is the self-seeded value (0 at the BFS/SSSP source,
``id(v)`` for WCC, +inf otherwise) and ``relax`` is monotone in its
first argument (``x+1``, ``x+w``, ``x``).  Because the fixed point is
unique and min-combining can never undershoot it when every message is
``>=`` the fixed point at its destination, *any* start state with

1. values pointwise ``>=`` the new fixed point, and
2. seed messages covering every entry point of an improving path

converges to bit-exactly the same values as a from-scratch run.

After an update batch, condition 1 is established by resetting the
**deletion cone** back to ``base``.  A converged value can only have
come through a **tight** old edge, one with ``relax(L(u), w) == L(v)``
and ``L(v)`` finite (the value-dependence trimming of KickStarter, Vora
et al., ASPLOS 2017).  So the cone's roots are the heads of deleted
``(src, dst)`` pairs with a tight old instance, and the cone is every
vertex reachable from them over tight old edges.  A vertex outside it
has a predecessor chain from a base value made only of tight surviving
edges (a deleted tight edge on the chain would have made the chain's
tail a cone vertex), so its old value remains a valid over-estimate.
Condition 2 is established by seeding

* the source vertex (BFS/SSSP),
* every surviving in-edge ``x -> r`` crossing into the cone with
  ``relax(values[x])``,
* every inserted edge ``u -> w`` from outside the cone with
  ``relax(values[u])``, and
* for self-seeded programs (WCC), each reset vertex's own ``base``
  relaxed along its out-edges (the "kick" a fresh run performs in
  superstep 0 -- warm-started vertices that receive boundary messages
  would otherwise never broadcast their own id).

Schedule-dependent programs (PageRank, CDLP, ...) make no such promise
and take the full-recompute path; their ``warm_start`` returns None.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..core.api import InitialState
from ..core.batch import flatten_ranges
from ..core.update import UpdateBatch
from ..graph.csr import CSRGraph


#: ``relax(x, w) -> message`` along an edge (``VertexProgram.relax``).
Relax = Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]


def _expand_rows(graph: CSRGraph, vertices: np.ndarray):
    """Gather the CSR rows of ``vertices``: (srcs, dsts, weights|None)."""
    starts, stops = graph.rowptr[vertices], graph.rowptr[vertices + 1]
    pos = flatten_ranges(starts, stops)
    srcs = np.repeat(vertices, stops - starts)
    dsts = graph.colidx[pos].astype(np.int64)
    w = graph.weights[pos] if graph.weights is not None else None
    return srcs, dsts, w


def descendants(
    graph: CSRGraph,
    values: np.ndarray,
    relax: Relax,
    del_src: np.ndarray,
    del_dst: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The tight deletion cone on the *pre-update* graph: ``(roots, cone)``.

    ``values`` are the converged values on ``graph`` and ``del_src`` /
    ``del_dst`` the deleted ``(src, dst)`` pairs.  The roots are the
    heads of deleted pairs with a tight instance in ``graph``; the cone
    (sorted, roots included) is every vertex a vectorised frontier BFS
    reaches from them over tight edges.  Tightness is tested on the rows
    each step gathers anyway, so the walk reads the deleted tails' rows
    and the cone's rows and nothing else.
    """
    del_src = np.asarray(del_src, dtype=np.int64)
    del_dst = np.asarray(del_dst, dtype=np.int64)
    if del_src.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    def tight_rows(rows: np.ndarray):
        srcs, dsts, w = _expand_rows(graph, rows)
        head = values[dsts]
        return srcs, dsts, np.isfinite(head) & (relax(values[srcs], w) == head)

    srcs, dsts, tight = tight_rows(np.unique(del_src))
    deleted = np.isin(srcs * graph.n + dsts, del_src * graph.n + del_dst)
    roots = np.unique(dsts[tight & deleted])
    seen = np.zeros(graph.n, dtype=bool)
    seen[roots] = True
    frontier = roots
    while frontier.size:
        _, dsts, tight = tight_rows(frontier)
        nbrs = np.unique(dsts[tight])
        frontier = nbrs[~seen[nbrs]]
        seen[frontier] = True
    return roots, np.flatnonzero(seen).astype(np.int64)


def minprop_warm_start(
    graph: CSRGraph,
    values: np.ndarray,
    reset: np.ndarray,
    inserted_src: np.ndarray,
    inserted_dst: np.ndarray,
    inserted_w: Optional[np.ndarray],
    *,
    relax: Relax,
    reset_values: np.ndarray,
    seed_vertex: Optional[int] = None,
    kick_reset: bool = False,
) -> InitialState:
    """Build the warm :class:`InitialState` for a min-propagation program.

    Parameters
    ----------
    graph:
        The *updated* graph.
    values:
        Converged values on the pre-update graph.
    reset:
        The deletion cone (:func:`descendants`), ascending.
    inserted_src, inserted_dst, inserted_w:
        The batch's inserted edges (``inserted_w`` None when unweighted).
    relax:
        ``relax(x, w) -> message data`` along an edge; monotone in ``x``.
    reset_values:
        Base value per cone vertex, aligned with ``reset``.
    seed_vertex:
        BFS/SSSP source to re-seed with 0 (always safe: a no-op when the
        source already holds 0).
    kick_reset:
        Self-seeded programs (WCC): relax each cone vertex's base value
        along its out-edges.
    """
    warm = np.array(values, dtype=np.float64, copy=True)
    reset = np.asarray(reset, dtype=np.int64)
    warm[reset] = np.asarray(reset_values, dtype=np.float64)
    in_reset = np.zeros(graph.n, dtype=bool)
    in_reset[reset] = True

    seeds = []
    if seed_vertex is not None:
        seeds.append(UpdateBatch.of([seed_vertex], [seed_vertex], [0.0]))

    # Surviving in-edges crossing into the cone, x -> r with x outside:
    # one mask over the edge list, then one stable sort by head gives
    # (r, x, edge position), the order of a transpose's rows over the
    # cone, so the seed batch (and the sort charge over its runs) is
    # that of a transpose-based gather.
    if reset.size:
        pos = np.flatnonzero(in_reset[graph.colidx])
        x_src = np.searchsorted(graph.rowptr, pos, side="right") - 1
        keep = ~in_reset[x_src] & np.isfinite(warm[x_src])
        pos, x_src = pos[keep], x_src[keep]
        if pos.size:
            r_dst = graph.colidx[pos].astype(np.int64)
            order = np.argsort(r_dst, kind="stable")
            pos, x_src = pos[order], x_src[order]
            data = relax(warm[x_src], None if graph.weights is None else graph.weights[pos])
            seeds.append(UpdateBatch.of(r_dst[order], x_src, data))

    # Inserted edges whose tail keeps a (finite) surviving value.
    ins_src = np.asarray(inserted_src, dtype=np.int64)
    ins_dst = np.asarray(inserted_dst, dtype=np.int64)
    if ins_src.size:
        keep = ~in_reset[ins_src] & np.isfinite(warm[ins_src])
        if keep.any():
            w_ins = None if inserted_w is None else np.asarray(inserted_w, np.float64)[keep]
            data = relax(warm[ins_src[keep]], w_ins)
            seeds.append(UpdateBatch.of(ins_dst[keep], ins_src[keep], data))

    # Self-seed kicks: each cone vertex broadcasts its own base value.
    if kick_reset and reset.size:
        k_src, k_dst, k_w = _expand_rows(graph, reset)
        if k_src.size:
            data = relax(warm[k_src], k_w)
            seeds.append(UpdateBatch.of(k_dst, k_src, data))

    messages = UpdateBatch.concat(seeds) if seeds else None
    return InitialState(values=warm, active=np.empty(0, np.int64), messages=messages)
