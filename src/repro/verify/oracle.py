"""The golden oracle engine: in-memory message passing, nothing else.

Every out-of-core engine in this package moves updates through some
storage machinery -- multi-logs, shards, sort-reduce trees, edge grids.
The oracle moves them through a Python list.  It implements the same
:class:`~repro.core.api.VertexProgram` contract and the same engine
constructor protocol as the real engines, so any (graph, program,
options) triple can be replayed against a trusted reference.

Bit-exactness contract (the property the conformance fuzzer relies on):

* vertices are processed in globally ascending id order, exactly like
  MultiLogVC's interval-ordered groups and GraphChi's interval sweep;
* outgoing updates are collected in send order; delivery stable-sorts
  by destination, so the per-destination update order equals the global
  send order -- the same order the multi-log's FIFO append/consume path
  produces;
* a named combine is reduced over the combine tree of
  :mod:`repro.core.combine` (per destination: runs of one source
  interval in send order, then the partials in ascending interval
  order), not flat in send order.  The tree is defined over
  MultiLogVC's *static* partition -- a pure function of (graph, config,
  ``min_intervals`` / ``intervals``), the oracle's only inputs besides
  the program -- so float ``add`` matches MultiLogVC to the last ulp
  whether or not the engine reduced its sends before logging them, and
  GraphChi / GraFBoost (which use the default partition) likewise;
* activation follows :class:`~repro.core.active.ActiveTracker` -- the
  one piece of engine machinery the oracle reuses, because it is pure
  in-memory bookkeeping and *is* the semantics being verified;
* edge state / edge weights live in a host array laid out exactly like
  the on-SSD interval value files (CSR weight order), initialised from
  the graph weights or unit weights.

The oracle runs on the same superstep skeleton as the baselines
(:mod:`repro.core.superstep`), so activation, record assembly, the
range-checked outbox and the trace are theirs.  It accepts (and
ignores) an ``fs`` argument so it can be driven through
:func:`repro.run` with ``engine="oracle"``, and reports zero storage
time and empty SSD stats.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ProgramError
from ..graph.partition import static_partition
from ..core.api import InitialState
from ..core.results import RunResult
from ..core.superstep import SuperstepEngine


class OracleEngine(SuperstepEngine):
    """Trusted in-memory reference implementation of the engine contract.

    Parameters mirror the real engines so :func:`repro.run` can construct
    it (``fs`` is accepted and ignored; there is no storage).  Of
    :class:`~repro.options.EngineOptions` only the partition
    (``min_intervals`` / ``intervals``) is accepted: it defines the
    combine tree and nothing else here.  The oracle has no knobs, which
    is the point.
    """

    name = "oracle"
    #: No simulated storage: surfaced as ``repro.engines()[...].in_memory``.
    in_memory = True

    def __init__(self, graph, program, *args, **kwargs) -> None:
        if program.mutates_structure:
            raise ProgramError(
                "the oracle engine does not support structure-mutating programs"
            )
        super().__init__(graph, program, *args, **kwargs)
        self._tree = static_partition(graph, self.config, self.options)

    def run(
        self,
        max_supersteps: int = 15,
        seed: int = 0,
        *,
        initial_state: Optional[InitialState] = None,
    ) -> RunResult:
        """Run as the baselines do; ``initial_state`` replaces ``initial()`` (warm start)."""
        return self._run(max_supersteps, seed, initial_state)

    def _begin_fields(self):
        return {"mode": "sync", "n_vertices": int(self.graph.n), "n_intervals": 1}

    def _edge_values(self) -> Optional[np.ndarray]:
        # A fresh host copy per run: the twin of the interval value files
        # (weights, or mutable per-edge state for uses_edge_state).
        prog = self.program
        if not (prog.needs_weights or prog.uses_edge_state):
            return None
        return np.array(self.graph.with_unit_weights().weights, dtype=np.float64, copy=True)

    def _superstep(self, step: int) -> None:
        # Deliver: stable sort by destination preserves send order within
        # each destination, then reduce over the combine tree.
        self._sweep(step, self.pending.sort_by_dest(), combine=True, tree=self._tree)
        self.pending = self.outbox.batch()
