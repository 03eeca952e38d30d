"""Paper Fig. 8 and the adapted-GraFBoost comparison (§VIII).

Two comparisons against the single-log baseline:

* **Fig. 8** -- PageRank, first iteration only (GraFBoost cannot load
  only active graph data, so the paper restricts the comparison to the
  all-active first iteration): MultiLogVC speedup over GraFBoost on CF
  and YWS.  Expected: MultiLogVC faster, with a larger margin on the
  larger dataset (bigger log -> more external-sort passes).
* **§VIII text** -- graph coloring against GraFBoost *adapted* to keep
  all updates (no combine): paper reports 2.72x (CF) and 2.67x (YWS).

GraFBoost combines while it generates sort runs; the paper's MultiLogVC
combines only after its log is read back (§V-D), and that is what the
``speedup`` column measures.  The last column is the same duel with
this repo's send-side combine on (DESIGN.md §15) -- an extension, not a
paper number; it cannot move the coloring rows, which have no combine.
"""

from __future__ import annotations

from typing import List, Optional

from ..algorithms import DeltaPageRankProgram, GraphColoringProgram
from ..config import DEFAULT_CONFIG, SimConfig
from .common import (
    ExperimentResult,
    env_datasets,
    env_scale,
    load_dataset,
    run_grafboost,
    run_mlvc,
)


def run(
    scale: Optional[str] = None,
    datasets: Optional[tuple] = None,
    config: SimConfig = DEFAULT_CONFIG,
) -> ExperimentResult:
    """The log-much-larger-than-memory regime is essential here: pass a
    tighter ``config`` when running at reduced dataset scales, otherwise
    the whole log fits in sort memory and GraFBoost pays no external
    sort (which the paper's setup never encounters)."""
    scale = scale or env_scale()
    datasets = datasets or env_datasets()
    rows: List[tuple] = []
    for ds in datasets:
        duel = pagerank_duel(load_dataset(ds, scale), config)
        rows.append(("pagerank (1st iter)", ds.upper(), *duel))
    for ds in datasets:
        g = load_dataset(ds, scale)
        a = run_mlvc(g, GraphColoringProgram(), config, steps=15)
        b = run_grafboost(g, GraphColoringProgram(), config, steps=15, adapted=True)
        speedup = b.total_time_us / a.total_time_us
        pages = b.total_pages / max(1, a.total_pages)
        rows.append(("coloring vs adapted", ds.upper(), speedup, pages, speedup))
    return ExperimentResult(
        experiment="fig8",
        caption="Fig. 8 + §VIII: MultiLogVC speedup over GraFBoost",
        headers=["comparison", "dataset", "speedup", "page ratio", "speedup, combine before log"],
        rows=rows,
        notes=(
            "paper: pagerank avg 2.8x (4x on the larger YWS); adapted coloring 2.72x/2.67x. "
            "larger dataset => bigger log => costlier external sort. "
            "last column: not in the paper (its combine runs after the log is read back)"
        ),
    )


def pagerank_duel(g, config: SimConfig = DEFAULT_CONFIG) -> tuple:
    """Fig. 8's PageRank row: ``(speedup, page ratio, speedup with combine before log)``.

    First iteration only: 2 supersteps = seed push + first
    absorb/propagate round, the unit the paper times.
    """
    a = run_mlvc(g, DeltaPageRankProgram(threshold=0.05), config, steps=2)
    b = run_grafboost(g, DeltaPageRankProgram(threshold=0.05), config, steps=2)
    pre = run_mlvc(g, DeltaPageRankProgram(threshold=0.05), config, steps=2, enable_precombine=True)
    return (
        b.total_time_us / a.total_time_us,
        b.total_pages / max(1, a.total_pages),
        b.total_time_us / pre.total_time_us,
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
