"""Active-set traces (paper Fig. 2).

Fig. 2 plots, per superstep, the fraction of vertices that are active
and the fraction of edges carrying an update.  Both are derivable from
any engine's :class:`~repro.core.results.RunResult` superstep records;
this module packages the computation and the normalised series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.results import RunResult
from ..graph.csr import CSRGraph


@dataclass(frozen=True)
class ActivityTrace:
    """Per-superstep active-vertex and active-edge fractions."""

    dataset: str
    program: str
    active_vertices: np.ndarray
    updates: np.ndarray
    n_vertices: int
    n_edges: int

    @property
    def vertex_fraction(self) -> np.ndarray:
        return self.active_vertices / max(1, self.n_vertices)

    @property
    def edge_fraction(self) -> np.ndarray:
        """Updates sent over edges, as a fraction of total edges."""
        return self.updates / max(1, self.n_edges)

    def rows(self) -> List[tuple]:
        return [
            (
                i,
                int(self.active_vertices[i]),
                float(self.vertex_fraction[i]),
                int(self.updates[i]),
                float(self.edge_fraction[i]),
            )
            for i in range(self.active_vertices.shape[0])
        ]


def activity_trace(result: RunResult, graph: CSRGraph, dataset: str) -> ActivityTrace:
    """Extract the Fig. 2 series from a finished run."""
    return ActivityTrace(
        dataset=dataset,
        program=result.program,
        active_vertices=result.activity_trace(),
        updates=np.asarray([r.messages_sent for r in result.supersteps], dtype=np.int64),
        n_vertices=graph.n,
        n_edges=graph.m,
    )

