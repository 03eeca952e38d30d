"""Ablation studies of MultiLogVC's design choices (DESIGN.md §4).

Not a paper figure -- these isolate the contribution of each mechanism
the paper argues for:

* **edge log on/off** (§V-C): column-index pages saved by re-logging
  predicted-active adjacency;
* **interval fusing on/off** (§V-A2): batch overheads saved by loading
  several shrunken logs per sort pass;
* **channel scaling** (§V-A3): how much of the speedup depends on logs
  being interspersed over parallel flash channels;
* **history window N** (§V-C): the paper found N=1 sufficient;
* **combine before the log** (not in the paper, whose §V-D combines
  after the log is read back; DESIGN.md §15): log records and pages
  saved by reducing a group's sends per (destination, source interval)
  first;
* **sort-charge sensitivity** (DESIGN.md §5): the two paper figures the
  sort constant is calibrated against, recomputed with
  ``per_sort_item_us`` halved and doubled.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..algorithms import BFSProgram, DeltaPageRankProgram, GraphColoringProgram, MISProgram
from ..config import DEFAULT_CONFIG, SimConfig
from . import fig5_bfs, fig8_grafboost
from .common import ExperimentResult, env_scale, load_dataset, run_mlvc


def run_edgelog(scale: Optional[str] = None, steps: int = 15) -> ExperimentResult:
    """MIS is the instrument here: its undecided vertices persist across
    rounds (history predicts them well) and sit on sparsely used pages,
    so the edge log actually fires -- coloring/pagerank have too few
    inefficient pages at bench scale to show an effect (cf. Fig. 3)."""
    scale = scale or env_scale()
    g = load_dataset("cf", scale)
    rows: List[tuple] = []
    for enabled in (True, False):
        res = run_mlvc(g, MISProgram(seed=0), steps=steps, enable_edgelog=enabled)
        col = res.stats.reads.get("csr_col")
        elog = res.stats.reads.get("edgelog")
        avoided = sum(r.inefficient_pages_predicted for r in res.supersteps)
        rows.append(
            (
                "on" if enabled else "off",
                col.pages if col else 0,
                elog.pages if elog else 0,
                avoided,
                res.total_time_us / 1e3,
            )
        )
    return ExperimentResult(
        experiment="ablation-edgelog",
        caption="Ablation: edge-log optimizer (MIS, CF)",
        headers=["edge log", "colidx pages", "edgelog pages", "pages avoided", "sim ms"],
        rows=rows,
    )


def run_fusing(scale: Optional[str] = None, steps: int = 15) -> ExperimentResult:
    scale = scale or env_scale()
    g = load_dataset("cf", scale)
    rows: List[tuple] = []
    for enabled in (True, False):
        res = run_mlvc(g, MISProgram(seed=0), steps=steps, enable_fusing=enabled)
        batches = sum(c.batches for c in res.stats.reads.values())
        rows.append(
            ("on" if enabled else "off", batches, res.total_pages, res.total_time_us / 1e3)
        )
    return ExperimentResult(
        experiment="ablation-fusing",
        caption="Ablation: interval fusing (MIS, CF)",
        headers=["fusing", "read batches", "total pages", "sim ms"],
        rows=rows,
        notes="fusing lowers per-batch submission overhead as logs shrink",
    )


def run_channels(scale: Optional[str] = None, steps: int = 15) -> ExperimentResult:
    scale = scale or env_scale()
    g = load_dataset("cf", scale)
    rows: List[tuple] = []
    for channels in (1, 2, 4, 8, 16):
        cfg = DEFAULT_CONFIG.with_channels(channels)
        res = run_mlvc(g, MISProgram(seed=0), cfg, steps=steps)
        rows.append((channels, res.total_time_us / 1e3, cfg.ssd.peak_read_bandwidth_mbps))
    return ExperimentResult(
        experiment="ablation-channels",
        caption="Ablation: SSD channel count (MIS, CF)",
        headers=["channels", "sim ms", "peak MB/s"],
        rows=rows,
        notes="time must fall monotonically as channels absorb the log traffic",
    )


def run_history_window(scale: Optional[str] = None, steps: int = 15) -> ExperimentResult:
    scale = scale or env_scale()
    g = load_dataset("cf", scale)
    rows: List[tuple] = []
    for window in (1, 2, 4):
        cfg = dataclasses.replace(DEFAULT_CONFIG, edgelog_history_window=window)
        res = run_mlvc(g, GraphColoringProgram(), cfg, steps=steps)
        logged = sum(r.edgelog_vertices_logged for r in res.supersteps)
        avoided = sum(r.inefficient_pages_predicted for r in res.supersteps)
        rows.append((window, logged, avoided, res.total_time_us / 1e3))
    return ExperimentResult(
        experiment="ablation-history",
        caption="Ablation: edge-log history window N (coloring, CF)",
        headers=["N", "vertices logged", "inefficient pages avoided", "sim ms"],
        rows=rows,
        notes="paper: N=1 proved effective; larger N logs more for little gain",
    )


def run_precombine(scale: Optional[str] = None, steps: int = 15) -> ExperimentResult:
    """PageRank (``add``, every vertex sends every superstep) and BFS
    (``min``, a thin frontier) bracket what the send-side combine can
    save: it removes a record only where one source interval sends to
    one destination more than once."""
    scale = scale or env_scale()
    g = load_dataset("cf", scale)
    programs = (
        ("pagerank", lambda: DeltaPageRankProgram(threshold=0.02)),
        ("bfs", lambda: BFSProgram(0)),
    )
    rows: List[tuple] = []
    for name, make in programs:
        for enabled in (True, False):
            res = run_mlvc(g, make(), steps=steps, enable_precombine=enabled)
            mlog_w, mlog_r = res.stats.writes.get("mlog"), res.stats.reads.get("mlog")
            rows.append(
                (
                    name,
                    "before log" if enabled else "after read (paper)",
                    sum(r.messages_sent for r in res.supersteps),
                    sum(r.records_logged for r in res.supersteps),
                    mlog_w.pages if mlog_w else 0,
                    mlog_r.pages if mlog_r else 0,
                    res.total_time_us / 1e3,
                )
            )
    return ExperimentResult(
        experiment="ablation-precombine",
        caption="Ablation: combine before the log (CF)",
        headers=[
            "program", "combine", "messages sent", "records logged",
            "mlog pages written", "mlog pages read", "sim ms",
        ],
        rows=rows,
        notes=(
            "values and messages sent are identical either way; the reduce is charged "
            "to compute as the one stable sort by destination of each group's sends"
        ),
    )


def _scaled_sort(config: SimConfig, factor: float) -> SimConfig:
    compute = config.compute
    return dataclasses.replace(
        config,
        compute=dataclasses.replace(compute, per_sort_item_us=compute.per_sort_item_us * factor),
    )


def run_sort_charge(scale: Optional[str] = None) -> ExperimentResult:
    """Fig. 5c's MultiLogVC storage share at full traversal and Fig. 8's
    PageRank speedups on CF (both columns) at ``per_sort_item_us`` x
    {1/2, 1, 2}: which conclusions the calibrated sort constant carries."""
    scale = scale or env_scale()
    cf = load_dataset("cf", scale)
    rows: List[tuple] = []
    for factor in (0.5, 1.0, 2.0):
        fig5 = fig5_bfs.run(
            scale, fractions=(1.0,), config=_scaled_sort(fig5_bfs.default_config(scale), factor)
        )
        speedup, _, speedup_pre = fig8_grafboost.pagerank_duel(
            cf, _scaled_sort(DEFAULT_CONFIG, factor)
        )
        rows.append((f"x{factor:g}", fig5.rows[0][4], speedup, speedup_pre))
    return ExperimentResult(
        experiment="ablation-sort-charge",
        caption="Ablation: sort-charge sensitivity (per_sort_item_us scaled)",
        headers=[
            "per_sort_item_us",
            "Fig. 5c MLVC storage % (100% traversal)",
            "Fig. 8 pagerank CF speedup",
            "Fig. 8 speedup, combine before log",
        ],
        rows=rows,
        notes="paper: storage share 75-90% at full traversal; pagerank 2.8x average",
    )


def run(scale: Optional[str] = None, steps: int = 15) -> List[ExperimentResult]:
    return [
        run_edgelog(scale, steps),
        run_fusing(scale, steps),
        run_channels(scale, steps),
        run_history_window(scale, steps),
        run_precombine(scale, steps),
        run_sort_charge(scale),
    ]


def main() -> None:
    for r in run():
        print(r.render())
        print()


if __name__ == "__main__":
    main()
