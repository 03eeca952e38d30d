"""Shared experiment plumbing.

Every experiment module exposes ``run(scale=..., ...) ->
ExperimentResult`` (or a list of them) plus a ``main()`` that prints the
paper-style table.  Scale and dataset selection honour two environment
variables so the benchmark suite can be throttled without code changes:

* ``REPRO_SCALE`` -- ``test`` / ``bench`` (default) / ``large``;
* ``REPRO_DATASETS`` -- comma list from ``cf,yws`` (default both).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, SimConfig
from ..core import MultiLogVC, RunResult
from ..core.api import VertexProgram
from ..baselines import GraFBoost, GraphChi
from ..graph.csr import CSRGraph
from ..graph.datasets import dataset_by_name
from ..metrics.report import render_table
from ..options import EngineOptions


@dataclass
class ExperimentResult:
    """One reproduced table/figure: caption + headers + rows."""

    experiment: str
    caption: str
    headers: Sequence[str]
    rows: List[Sequence]
    notes: str = ""
    extras: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        out = render_table(self.headers, self.rows, caption=self.caption)
        if self.notes:
            out += f"\n  note: {self.notes}"
        return out


def env_scale(default: str = "bench") -> str:
    return os.environ.get("REPRO_SCALE", default)


def env_datasets(default: Tuple[str, ...] = ("cf", "yws")) -> Tuple[str, ...]:
    raw = os.environ.get("REPRO_DATASETS")
    if not raw:
        return default
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def load_dataset(name: str, scale: str, weighted: bool = False) -> CSRGraph:
    return dataset_by_name(name, scale=scale, weighted=weighted)


# -- paper workload defaults -------------------------------------------------


def paper_programs(seed: int = 0, n: Optional[int] = None) -> Dict[str, Callable[[], VertexProgram]]:
    """Factories for the §VII suite with experiment-calibrated parameters.

    ``n`` (the dataset's vertex count) scales the random-walk source
    stride so walker density per SSD page matches the paper's setup
    rather than its absolute stride (see EXPERIMENTS.md).
    """
    from ..algorithms import (
        CommunityDetectionProgram,
        DeltaPageRankProgram,
        GraphColoringProgram,
        MISProgram,
        RandomWalkProgram,
    )

    stride = 64 if n is None else max(1, n // 256)
    return {
        "pagerank": lambda: DeltaPageRankProgram(threshold=0.02),
        "cdlp": lambda: CommunityDetectionProgram(),
        "coloring": lambda: GraphColoringProgram(seed=seed),
        "mis": lambda: MISProgram(seed=seed),
        "randomwalk": lambda: RandomWalkProgram(
            source_stride=stride, walkers_per_source=2, max_steps=10, seed=seed
        ),
    }


# -- engine runners ------------------------------------------------------------


def run_mlvc(
    graph: CSRGraph,
    program: VertexProgram,
    config: SimConfig = DEFAULT_CONFIG,
    steps: int = 15,
    seed: int = 0,
    **kwargs,
) -> RunResult:
    # Engine knobs arrive as plain kwargs from the experiment modules.
    # The paper figures measure the paper's engine, whose §V-D combine
    # runs after the log round trip: the send-side combine stays off
    # unless an experiment asks for it (ablations.run_precombine and
    # Fig. 8's extra column do).
    kwargs.setdefault("enable_precombine", False)
    return MultiLogVC(graph, program, config, options=EngineOptions(**kwargs)).run(steps, seed=seed)


def run_graphchi(
    graph: CSRGraph,
    program: VertexProgram,
    config: SimConfig = DEFAULT_CONFIG,
    steps: int = 15,
    seed: int = 0,
) -> RunResult:
    return GraphChi(graph, program, config).run(steps, seed=seed)


def run_grafboost(
    graph: CSRGraph,
    program: VertexProgram,
    config: SimConfig = DEFAULT_CONFIG,
    steps: int = 15,
    seed: int = 0,
    adapted: bool = False,
) -> RunResult:
    options = EngineOptions(adapted=adapted)
    return GraFBoost(graph, program, config, options=options).run(steps, seed=seed)


def duel(
    graph: CSRGraph,
    make_program: Callable[[], VertexProgram],
    config: SimConfig = DEFAULT_CONFIG,
    steps: int = 15,
    seed: int = 0,
) -> Tuple[RunResult, RunResult]:
    """Run the same program on MultiLogVC and GraphChi; returns (mlvc, gchi)."""
    a = run_mlvc(graph, make_program(), config, steps, seed)
    b = run_graphchi(graph, make_program(), config, steps, seed)
    return a, b


def per_superstep_speedups(mlvc: RunResult, gchi: RunResult) -> np.ndarray:
    """GraphChi-time / MultiLogVC-time per superstep (Fig. 7 series)."""
    k = min(mlvc.n_supersteps, gchi.n_supersteps)
    a = mlvc.time_trace()[:k]
    b = gchi.time_trace()[:k]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0, b / a, np.inf)
