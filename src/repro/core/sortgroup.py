"""Sort-and-Group Unit (paper §V-B).

At the start of each superstep the engine walks the vertex intervals in
order.  For each position it *fuses* as many contiguous intervals as the
sort memory budget allows -- using the multi-log's per-interval message
counters as the first-order size estimate (§V-A2/§V-B) -- then loads the
fused logs, sorts the updates by destination vertex **in memory**, and
groups them so the vertices can be processed.  If the program declares a
combine operator, the reduction is applied transparently here (§V-D):
always the whole combine tree of :mod:`repro.core.combine` over the
multi-log's static partition, whether the log holds raw updates or the
partials a send-side combine left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..config import SimConfig
from ..mem.budget import MemoryBudget
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from .combine import CombineSpec, combine_sorted, precombine
from .multilog import MultiLogUnit
from .results import ComputeMeter
from .update import UpdateBatch, natural_runs


@dataclass
class SortedGroup:
    """One fused interval group, ready for vertex processing."""

    interval_ids: List[int]
    vertex_lo: int
    vertex_hi: int
    batch: UpdateBatch  # dest-sorted (and combined, if enabled)
    unique_dests: np.ndarray
    offsets: np.ndarray  # len(unique_dests) + 1
    #: True when a single interval's log alone exceeded the sort budget
    #: (possible only when the §V-A1 conservative sizing was overridden).
    overflowed: bool = False
    #: Pre-combine batch size and its natural runs in arrival order, for
    #: deferred sort-cost metering when the caller charges the sort
    #: itself (``charge_sort=False``).
    sort_items: int = 0
    sort_runs: int = 0


class SortGroupUnit:
    """Plans interval fusing and performs the in-memory sort/group."""

    def __init__(
        self,
        config: SimConfig,
        budget: MemoryBudget,
        meter: ComputeMeter,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.config = config
        self.budget = budget
        self.meter = meter
        #: cumulative tallies read by observability gauges
        self.plans = 0
        self.groups_planned = 0
        self.groups_loaded = 0
        self.records_sorted = 0
        metrics.gauge("sortgroup.plans", lambda: self.plans)
        metrics.gauge("sortgroup.groups_planned", lambda: self.groups_planned)
        metrics.gauge("sortgroup.groups_loaded", lambda: self.groups_loaded)
        metrics.gauge("sortgroup.records_sorted", lambda: self.records_sorted)

    # -- planning -------------------------------------------------------------

    def plan_groups(
        self,
        multilog: MultiLogUnit,
        must_include: Optional[np.ndarray] = None,
        max_group_intervals: Optional[int] = None,
    ) -> List[List[int]]:
        """Greedy contiguous fusing of intervals under the sort budget.

        Parameters
        ----------
        multilog:
            Source of per-interval size estimates.
        must_include:
            Optional boolean mask over intervals that must be processed
            even with an empty log (they contain self-active vertices).

        max_group_intervals:
            Optional cap on intervals per group (``1`` disables fusing;
            used by the fusing ablation).

        Returns a list of interval-id groups covering every interval that
        has messages or is forced by ``must_include``; intervals with
        nothing to do are skipped entirely (the CSR/active-list benefit).
        """
        k = multilog.n_intervals
        sizes = multilog.estimated_bytes_all()
        needed = sizes > 0
        if must_include is not None:
            needed = needed | np.asarray(must_include, dtype=bool)
        groups: List[List[int]] = []
        cur: List[int] = []
        cur_bytes = 0
        budget = self.budget.sort_bytes
        for i in range(k):
            if not needed[i]:
                # A gap ends the current fused run: fusing is contiguous.
                if cur:
                    groups.append(cur)
                    cur, cur_bytes = [], 0
                continue
            full = cur and (
                cur_bytes + sizes[i] > budget
                or (max_group_intervals is not None and len(cur) >= max_group_intervals)
            )
            if full:
                groups.append(cur)
                cur, cur_bytes = [], 0
            cur.append(i)
            cur_bytes += int(sizes[i])
        if cur:
            groups.append(cur)
        self.plans += 1
        self.groups_planned += len(groups)
        return groups

    # -- load + sort + group ---------------------------------------------------

    def load_group(
        self,
        multilog: MultiLogUnit,
        interval_ids: List[int],
        combine: Optional[CombineSpec] = None,
        extra: Optional[UpdateBatch] = None,
        charge_sort: bool = True,
        plan=None,
    ) -> SortedGroup:
        """Consume an interval group's logs and sort/group them in memory.

        ``extra`` lets the asynchronous mode inject same-superstep
        updates produced by earlier groups.  ``charge_sort=False`` skips
        the compute-meter charge; the caller charges
        ``SortedGroup.sort_items`` / ``sort_runs`` itself (the engine
        does this after it commits the group's deferred device charges).
        The sort is charged as a natural merge of the log's arrival
        order, log first, then the extras: each flushed batch of a
        send-side combine is already dest-sorted.
        ``plan`` (DESIGN.md §13) queues the log reads on a group I/O
        plan instead of charging per file.
        """
        tree = multilog.intervals
        batch = multilog.consume(interval_ids, plan=plan)
        sort_items = int(batch.n)
        sort_runs = natural_runs(batch.dest)
        if extra is not None and extra.n:
            sort_items += extra.n
            # The extras continue the log's last run if they start at or
            # above its last key.
            seam = batch.n > 0 and batch.dest[-1] <= extra.dest[0]
            sort_runs += natural_runs(extra.dest) - int(seam)
            if isinstance(combine, str):
                # The log and the same-superstep extras are two arrival
                # segments: close level 1 over each, or a raw run could
                # straddle the seam where two partials would not.
                batch, extra = (precombine(b, combine, tree) for b in (batch, extra))
            batch = UpdateBatch.concat([batch, extra])
        overflowed = sort_items * self.config.records.update_bytes > self.budget.sort_bytes
        if charge_sort:
            self.meter.charge_sort(sort_items, sort_runs, "sort_group")
        batch = batch.sort_by_dest()
        uniq, offsets = batch.group()
        if combine is not None and uniq.shape[0]:
            batch, uniq, offsets = combine_sorted(batch, uniq, offsets, combine, tree)
        lo = multilog.intervals.span(interval_ids[0])[0]
        hi = multilog.intervals.span(interval_ids[-1])[1]
        self.groups_loaded += 1
        self.records_sorted += sort_items
        return SortedGroup(
            interval_ids=list(interval_ids),
            vertex_lo=lo,
            vertex_hi=hi,
            batch=batch,
            unique_dests=uniq,
            offsets=offsets,
            overflowed=overflowed,
            sort_items=sort_items,
            sort_runs=sort_runs,
        )
