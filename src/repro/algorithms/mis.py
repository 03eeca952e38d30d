"""Maximal independent set -- Luby's algorithm (paper §VII, Fig. 6d/10).

Message-passing Luby: each round, every undecided vertex draws a random
priority and broadcasts it (phase A, even supersteps); in phase B (odd
supersteps) a vertex whose priority beats every undecided neighbor's
joins the set and notifies its neighbors with a negative marker, which
knocks them out at the start of the next round.

Priorities for round ``r`` are derived from ``(seed, r)`` only, so the
algorithm produces the *same* MIS on every engine -- while still
requiring every priority message to be delivered individually
(non-mergeable workload).
"""

from __future__ import annotations

import numpy as np

from ..core.api import InitialState, VertexContext, VertexProgram
from ..graph.csr import CSRGraph

UNKNOWN, IN_SET, OUT = 0.0, 1.0, 2.0

#: Marker payload announcing "I joined the MIS".
_IN_MARKER = -1.0


class MISProgram(VertexProgram):
    """Two-supersteps-per-round Luby maximal independent set."""

    name = "mis"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._pri: np.ndarray | None = None
        self._n = 0

    def _round_priorities(self, round_idx: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, round_idx])
        return rng.random(self._n)

    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        self._n = graph.n
        self._pri = self._round_priorities(0)
        values = np.full(graph.n, UNKNOWN)
        # Isolated vertices join immediately.
        values[graph.out_degrees == 0] = IN_SET
        active = np.flatnonzero(graph.out_degrees > 0).astype(np.int64)
        return InitialState(values=values, active=active)

    def process(self, ctx: VertexContext) -> None:
        v = ctx.vid
        if ctx.value != UNKNOWN:
            ctx.deactivate()
            return
        if ctx.superstep % 2 == 0:
            # Phase A: absorb IN markers from last round, then bid.
            if ctx.n_updates and np.any(ctx.updates_data == _IN_MARKER):
                ctx.value = OUT
                ctx.deactivate()
                return
            ctx.send_all(self._pri[v])
            return  # stay active for phase B
        # Phase B: compare own priority with undecided neighbors' bids.
        mine = self._pri[v]
        if ctx.n_updates:
            bids = ctx.updates_data[ctx.updates_data >= 0]
            if bids.size and float(bids.min()) <= mine:
                return  # lost this round; stay active for the next
        ctx.value = IN_SET
        ctx.send_all(_IN_MARKER)
        ctx.deactivate()

    def process_batch(self, b) -> None:
        """Vectorised group kernel; identical semantics to :meth:`process`."""
        v = b.vids
        undecided = b.values[v] == UNKNOWN
        if b.superstep % 2 == 0:
            # Phase A: absorb IN markers from last round, then bid.
            knocked = undecided & b.update_any(b.udata == _IN_MARKER)
            b.values[v[knocked]] = OUT
            bidders = undecided & ~knocked
            b.send_along_edges(bidders, self._pri[v])
            b.keep_active(bidders)
            return
        # Phase B: compare own priority with undecided neighbors' bids.
        min_bid = b.update_min(where=b.udata >= 0, default=np.inf)
        lost = undecided & (min_bid <= self._pri[v])
        winners = undecided & ~lost
        b.values[v[winners]] = IN_SET
        b.send_along_edges(winners, np.full(b.k, _IN_MARKER))
        b.keep_active(lost)

    def on_superstep_end(self, superstep: int, values: np.ndarray, rng: np.random.Generator) -> None:
        if superstep % 2 == 1:
            self._pri = self._round_priorities(superstep // 2 + 1)

    def prepare_resume(self, graph: CSRGraph, superstep: int, rng: np.random.Generator) -> None:
        # Superstep s (either phase) uses the round-s//2 priorities: the
        # round advances via on_superstep_end after each odd superstep.
        self._n = graph.n
        self._pri = self._round_priorities(superstep // 2)


def is_independent_set(graph: CSRGraph, values: np.ndarray) -> bool:
    src, dst = graph.edge_array()
    both = (values[src] == IN_SET) & (values[dst] == IN_SET) & (src != dst)
    return not bool(both.any())


def is_maximal(graph: CSRGraph, values: np.ndarray) -> bool:
    """Every vertex not in the set has a neighbor in the set."""
    in_set = values == IN_SET
    for v in np.flatnonzero(~in_set):
        nb = graph.neighbors(v).astype(np.int64)
        if nb.size == 0 or not in_set[nb].any():
            return False
    return True
