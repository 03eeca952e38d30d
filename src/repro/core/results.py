"""Run results and compute metering shared by all engines.

Simulated execution time of a superstep is ``storage_time + compute_time``:

* storage time comes from the SSD channel model (every charged batch),
* compute time from :class:`ComputeMeter`, the stand-in for the paper's
  multicore host (§VI: OpenMP on an i7-4790).

Per-superstep records let the experiments reproduce the paper's
time-series figures (Fig. 5c storage/compute split, Fig. 7 per-superstep
speedups) and activity traces (Fig. 2).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import ComputeConfig
from ..ssd.stats import SSDStats

if TYPE_CHECKING:  # annotation-only; obs does not import core
    from ..obs.tracer import TraceEvent


#: Compute-ledger rows, one per call site: the send-side reduce
#: (MultiLogVC), the consumer's group sort (MultiLogVC), GraFBoost's log
#: sort, the three per-item costs, and meter time a resumed run restored
#: from its checkpoint.
COMPUTE_SITES = ("sort_send", "sort_group", "sort_log", "vertices", "updates", "edges", "resumed")


class ComputeMeter:
    """Accumulates simulated compute time from per-item costs.

    ``by_site`` tallies the same charges per :data:`COMPUTE_SITES` row;
    the rows sum to ``time_us`` up to float rounding.
    """

    def __init__(self, config: ComputeConfig) -> None:
        self.config = config
        self.time_us = 0.0
        self.by_site = dict.fromkeys(COMPUTE_SITES, 0.0)

    def _charge(self, site: str, us: float) -> None:
        self.time_us += us
        self.by_site[site] += us

    def charge_vertices(self, n: int) -> None:
        self._charge("vertices", n * self.config.per_vertex_us / self.config.cores)

    def charge_updates(self, n: int) -> None:
        self._charge("updates", n * self.config.per_update_us / self.config.cores)

    def charge_edges(self, n: int) -> None:
        self._charge("edges", n * self.config.per_edge_us / self.config.cores)

    def charge_sort(self, n: int, runs: int, site: str) -> None:
        """An idealised merge of ``n`` keys handed over in ``runs`` sorted runs.

        Charges ``n * log2(max(runs, 2))`` item-levels: the continuous
        log2 of the run count, with no separate pass to find the runs,
        so sorted input (one run) costs one level, as two runs do.
        Never more than ``n * log2(n)``; equal to it on strictly
        descending keys.
        """
        if n > 1:
            self._charge(
                site, n * math.log2(max(runs, 2)) * self.config.per_sort_item_us / self.config.cores
            )

    def charge_sort_reduce(self, n: int, runs: int, span: int, site: str) -> Tuple[float, int]:
        """The one stable sort by destination that a reduce runs.

        ``n`` keys in send order, in ``runs`` natural runs, over ``span =
        max - min + 1`` destination ids: what
        :func:`~repro.core.combine.precombine` sorts, the whole batch at
        once, before level 1's ``reduceat`` (DESIGN.md §15).  Charged
        the cheaper of its two exact algorithms (they give one
        permutation): the merge of the natural runs, ``n *
        log2(max(runs, 2))`` item-levels (as :meth:`charge_sort` charges
        it), or a counting sort, ``2 * n + span`` (a histogram pass, a
        prefix sum over the key range, a stable scatter).  Nothing for
        ``n < 2``, which is not sorted.  Returns the item-levels charged
        and whether the counting sort was the cheaper (1) or not (0).
        """
        if n < 2:
            return 0.0, 0
        merge, count = n * math.log2(max(runs, 2)), 2 * n + span
        levels = min(merge, count)
        self._charge(site, levels * self.config.per_sort_item_us / self.config.cores)
        return levels, int(count < merge)

    def restore(self, time_us: float) -> None:
        """Resume at a checkpointed meter reading (ledger row ``resumed``)."""
        self.time_us = time_us
        self.by_site = dict.fromkeys(COMPUTE_SITES, 0.0)
        self.by_site["resumed"] = time_us

    def snapshot(self) -> float:
        return self.time_us


@dataclass
class SuperstepRecord:
    """Everything measured about one superstep of one engine run."""

    index: int
    active_vertices: int
    updates_processed: int
    messages_sent: int
    edges_scanned: int
    storage_time_us: float
    compute_time_us: float
    pages_read: int
    pages_written: int
    #: per-storage-class pages read this superstep
    pages_read_by_class: Dict[str, int] = field(default_factory=dict)
    #: colidx pages with >0% and <10% useful bytes this superstep (Fig. 3)
    inefficient_pages: int = 0
    accessed_data_pages: int = 0
    #: edge-log bookkeeping (MultiLogVC only)
    edgelog_vertices_logged: int = 0
    edgelog_pages_avoided: int = 0
    inefficient_pages_predicted: int = 0
    #: physical records appended to the next-generation update log;
    #: below ``messages_sent`` only where a send-side combine reduced
    #: the sends first (MultiLogVC, DESIGN.md §15), else equal to it.
    #: Keyword-only and required: every engine sets it.
    records_logged: int = field(kw_only=True)

    @property
    def total_time_us(self) -> float:
        return self.storage_time_us + self.compute_time_us

    def to_dict(self) -> Dict[str, Any]:
        """JSON/CSV-safe dict of every measured field plus the total."""
        d = dataclasses.asdict(self)
        d["total_time_us"] = self.total_time_us
        return d


@dataclass
class RunResult:
    """Final state and measurements of one engine run."""

    engine: str
    program: str
    values: np.ndarray
    supersteps: List[SuperstepRecord]
    converged: bool
    stats: SSDStats
    compute_time_us: float
    #: typed event stream from the run's tracer (None when untraced)
    trace: Optional[List["TraceEvent"]] = None
    #: counters/gauges snapshot from the run's MetricsRegistry
    metrics: Optional[Dict[str, Any]] = None
    #: ``compute_time_us`` by call site (:data:`COMPUTE_SITES`)
    compute_by_site: Dict[str, float] = field(default_factory=dict)

    @property
    def n_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def storage_time_us(self) -> float:
        return self.stats.total_time_us

    @property
    def total_time_us(self) -> float:
        return self.storage_time_us + self.compute_time_us

    @property
    def pages_read(self) -> int:
        return self.stats.pages_read

    @property
    def pages_written(self) -> int:
        return self.stats.pages_written

    @property
    def total_pages(self) -> int:
        return self.stats.total_pages

    def storage_fraction(self) -> float:
        """Share of total simulated time spent on storage (Fig. 5c)."""
        t = self.total_time_us
        return self.storage_time_us / t if t > 0 else 0.0

    def comparable(self) -> Dict[str, Any]:
        """Oracle-comparable projection of this run (see :mod:`repro.verify`).

        Strips everything storage-dependent (I/O pages, simulated time,
        per-class stats) and keeps only the semantic outcome: normalised
        final values (``+inf`` -> ``-1`` so unreached BFS/SSSP vertices
        compare exactly), the superstep count, convergence, and the
        per-superstep activity tuples every engine counts the same way.
        """
        return {
            "values": np.nan_to_num(self.values, posinf=-1.0, neginf=-2.0),
            "n_supersteps": self.n_supersteps,
            "converged": self.converged,
            "activity": [
                (
                    r.index,
                    r.active_vertices,
                    r.updates_processed,
                    r.messages_sent,
                    r.edges_scanned,
                )
                for r in self.supersteps
            ],
        }

    def activity_trace(self) -> np.ndarray:
        """Active-vertex counts per superstep (Fig. 2)."""
        return np.asarray([r.active_vertices for r in self.supersteps], dtype=np.int64)

    def update_trace(self) -> np.ndarray:
        """Updates processed per superstep (Fig. 2's active-edge series)."""
        return np.asarray([r.updates_processed for r in self.supersteps], dtype=np.int64)

    def time_trace(self) -> np.ndarray:
        """Total simulated time per superstep (Fig. 7)."""
        return np.asarray([r.total_time_us for r in self.supersteps], dtype=np.float64)

    def to_dict(self, include_values: bool = True, include_trace: bool = False) -> Dict[str, Any]:
        """Serialise the run for JSON export.

        ``values`` can be large; pass ``include_values=False`` for a
        metadata-only record.  The trace is omitted unless requested
        (it has its own JSONL format, see :mod:`repro.obs.writer`).
        """
        d: Dict[str, Any] = {
            "engine": self.engine,
            "program": self.program,
            "converged": self.converged,
            "n_supersteps": self.n_supersteps,
            "compute_time_us": self.compute_time_us,
            "compute_by_site": self.compute_by_site,
            "storage_time_us": self.storage_time_us,
            "total_time_us": self.total_time_us,
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "supersteps": [r.to_dict() for r in self.supersteps],
            "stats": self.stats.to_dict(),
            "metrics": self.metrics,
        }
        if include_values:
            d["values"] = self.values.tolist()
        if include_trace and self.trace is not None:
            d["trace"] = [ev.to_dict() for ev in self.trace]
        return d

    def summary(self) -> str:
        return (
            f"{self.engine}/{self.program}: {self.n_supersteps} supersteps, "
            f"time={self.total_time_us / 1e3:.2f} ms "
            f"(storage {100 * self.storage_fraction():.1f}%), "
            f"pages r/w={self.pages_read}/{self.pages_written}, "
            f"converged={self.converged}"
        )


def speedup(baseline: RunResult, contender: RunResult) -> float:
    """Paper-style speedup: baseline time divided by contender time."""
    if contender.total_time_us <= 0:
        return float("inf")
    return baseline.total_time_us / contender.total_time_us
