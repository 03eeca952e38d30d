"""Paper Fig. 5: BFS as a function of traversal demand.

Three panels from one sweep over target traversal fractions:

* **5a** -- speedup of MultiLogVC over GraphChi,
* **5b** -- ratio of pages accessed (GraphChi / MultiLogVC),
* **5c** -- MultiLogVC's storage-vs-compute time split.

The paper picks source/target pairs whose shortest path forces
traversing 10%..100% of the graph.  Our stand-in (see
``repro.graph.datasets.bfs_chain_graph``) is a shuffled chain of
growing power-law communities, giving the same controllable traversal
demand on a high-effective-diameter graph; the run stops once the
requested fraction of *reachable* vertices has been visited.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..algorithms import BFSProgram, bfs_reference
from ..config import DEFAULT_CONFIG, SimConfig, small_test_config
from ..graph.datasets import bfs_chain_graph
from .common import ExperimentResult, env_scale, run_graphchi, run_mlvc

DEFAULT_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)


def default_config(scale: str) -> SimConfig:
    """Keep graph >> memory at every dataset scale (the paper's
    out-of-core regime); the test-scale chain graph would otherwise fit
    in the default budget."""
    return small_test_config(total_bytes=96 * 1024) if scale == "test" else DEFAULT_CONFIG


def run(
    scale: Optional[str] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    max_supersteps: int = 100,
    seed: int = 77,
    config: Optional[SimConfig] = None,
) -> ExperimentResult:
    scale = scale or env_scale()
    config = config or default_config(scale)
    graph, source = bfs_chain_graph(scale, seed=seed)
    dist = bfs_reference(graph, source)
    reachable = int(np.isfinite(dist).sum())
    rows: List[tuple] = []
    for frac in fractions:
        stop = frac * reachable / graph.n * 0.999
        a = run_mlvc(graph, BFSProgram(source, stop_fraction=stop), config, steps=max_supersteps)
        b = run_graphchi(graph, BFSProgram(source, stop_fraction=stop), config, steps=max_supersteps)
        speed = b.total_time_us / a.total_time_us if a.total_time_us else float("inf")
        page_ratio = b.total_pages / max(1, a.total_pages)
        rows.append(
            (
                frac,
                a.n_supersteps,
                speed,
                page_ratio,
                100.0 * a.storage_fraction(),
                100.0 * b.storage_fraction(),
            )
        )
    return ExperimentResult(
        experiment="fig5",
        caption="Fig. 5a/5b/5c: BFS vs traversal fraction (MultiLogVC vs GraphChi)",
        headers=[
            "traversal",
            "supersteps",
            "speedup (5a)",
            "page ratio (5b)",
            "MLVC storage % (5c)",
            "GraphChi storage %",
        ],
        rows=rows,
        notes=(
            "expected shape: speedup and page ratio highest at small fractions and "
            "declining; MLVC storage share grows with traversal while GraphChi stays >95%"
        ),
        extras={"reachable": reachable, "n": graph.n, "source": source},
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
