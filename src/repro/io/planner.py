"""Superstep I/O planner: plan factory, read-ahead, and ``io.*`` tallies.

:class:`SuperstepIOPlanner` is the engine-facing half of the planning
layer (DESIGN.md §13).  It decides whether groups get an
:class:`~repro.io.plan.IOPlan` at all (``io_plan`` knob), predicts the
*next* group's page demand for cache-aware read-ahead, and owns the
cumulative counters behind the ``io.*`` gauges and the
``io_plan_stats`` trace kind.

Counter discipline mirrors the rest of the engine: per-group
:class:`~repro.io.plan.PlanOutcome` records ride on the prepared group
and are folded in via :meth:`apply` at the commit point, in canonical
group order -- so the tallies (floats included) do not depend on the
simulated lane count.

Read-ahead reuses the activity knowledge the engine already maintains:
a vertex is processed by the next group only if it is in the active
tracker's current set (self-activated last superstep or the destination
of a logged message), so slicing the sorted active array to the next
group's vertex span *is* the history-based prediction -- exact under
synchronous delivery, a superset under async.  Predicted vertices map
to CSR pages the same way the loader will map them one group later;
pages the edge log covers or that are already cache-resident are
skipped, and the remainder is prefetched into the CLOCK cache within
:data:`READAHEAD_PAGES` and the cache's existing byte budget.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import IO_PLAN_MODES
from ..obs.overlay import Overlay
from .plan import IOPlan, PlanOutcome

#: Pages the cache-aware read-ahead may prefetch per superstep.
READAHEAD_PAGES = 64


class SuperstepIOPlanner(Overlay):
    """Per-run holder of planning mode, read-ahead logic and tallies."""

    trace_kind = "io_plan_stats"
    STATE = (
        "plans", "demand_pages", "cache_hit_pages", "batches_folded", "extents", "extent_pages",
        "scattered_pages", "waves", "time_us", "saved_us", "readahead_pages", "readahead_time_us",
    )

    def __init__(
        self,
        device,
        cache=None,
        mode: str = "coalesce",
        readahead_pages: int = READAHEAD_PAGES,
    ) -> None:
        if mode not in IO_PLAN_MODES or mode == "off":
            raise ValueError(f"planner mode must be an active io_plan value, got {mode!r}")
        self.device = device
        self.cache = cache
        self.mode = mode
        self.readahead_budget = max(0, int(readahead_pages))
        # Cumulative (monotonic) tallies, updated only at commit points.
        self.plans = 0
        self.demand_pages = 0
        self.cache_hit_pages = 0
        self.batches_folded = 0
        self.extents = 0
        self.extent_pages = 0
        self.scattered_pages = 0
        self.waves = 0
        self.time_us = 0.0
        self.saved_us = 0.0
        self.readahead_pages = 0
        self.readahead_time_us = 0.0

    # -- mode -------------------------------------------------------------

    @property
    def readahead_enabled(self) -> bool:
        """Prefetch only with a cache to prefetch *into*; without one
        ``coalesce+readahead`` degrades to plain ``coalesce``."""
        return (
            self.mode == "coalesce+readahead"
            and self.cache is not None
            and self.readahead_budget > 0
        )

    def new_plan(self) -> IOPlan:
        return IOPlan(self.device)

    # -- read-ahead -------------------------------------------------------

    def collect_readahead(
        self,
        plan: IOPlan,
        storage,
        edgelog,
        active_ids: np.ndarray,
        next_lo: int,
        next_hi: int,
        need_vals: bool,
    ) -> None:
        """Queue prefetches for the next group's predicted page demand.

        ``active_ids`` is the superstep's sorted active-vertex array;
        its slice over ``[next_lo, next_hi)`` predicts the vertices the
        next group will load (see module docstring).  Page order is
        deterministic: per interval ascending, rowptr then colidx then
        values, then the edge log's covering pages, truncated to the
        ``readahead_pages`` budget.
        """
        if not self.readahead_enabled:
            return
        verts = active_ids[
            np.searchsorted(active_ids, next_lo) : np.searchsorted(active_ids, next_hi)
        ]
        if verts.size == 0:
            return
        budget = self.readahead_budget
        cache = self.cache

        def queue(file, page_ids: np.ndarray) -> None:
            nonlocal budget
            if budget <= 0 or page_ids.size == 0:
                return
            fresh = page_ids[~cache.resident(file.name, page_ids)][:budget]
            if fresh.size:
                plan.add_readahead(file, fresh)
                budget -= int(fresh.size)

        # Map the whole span's pages once per file class (as the loader
        # will one group later), then queue them interval by interval.
        r = storage.group_ranges(verts)
        iv, starts, stops = r.interval, r.starts, r.stops
        local = r.local(iv)
        rows = storage.group_pages("rowptr", iv, local, local + 2)
        hit = edgelog.contains_many(verts) if edgelog is not None else None
        if hit is not None and hit.any():
            miss = ~hit
            iv, starts, stops = iv[miss], starts[miss], stops[miss]
        cols = storage.group_pages("colidx", iv, starts, stops)
        vals = None
        if need_vals and storage.with_weights:
            vals = storage.group_pages("values", iv, starts, stops)
        for i, _, _ in r.spans():
            files = storage.interval_files(i)
            queue(files.rowptr, rows.of(i))
            queue(files.colidx, cols.of(i))
            if vals is not None:
                queue(files.values, vals.of(i))
            if budget <= 0:
                return
        if hit is not None and hit.any():
            elog_file = getattr(edgelog, "_file_cur", None)
            if elog_file is not None:
                queue(elog_file, edgelog.pages_of(verts[hit]))

    # -- tallies ----------------------------------------------------------

    def apply(self, outcome: Optional[PlanOutcome]) -> None:
        """Fold one committed group's outcome into the run tallies."""
        if outcome is None:
            return
        self.plans += 1
        self.demand_pages += outcome.demand_pages
        self.cache_hit_pages += outcome.cache_hit_pages
        self.batches_folded += outcome.batches_folded
        self.extents += outcome.extents
        self.extent_pages += outcome.extent_pages
        self.scattered_pages += outcome.scattered_pages
        self.waves += outcome.waves
        self.time_us += outcome.time_us
        self.saved_us += outcome.saved_us
        self.readahead_pages += outcome.readahead_pages
        self.readahead_time_us += outcome.readahead_time_us

    def snapshot(self) -> dict:
        """The ``io_plan_stats`` trace payload: the mode and every tally
        (all monotonic), times rounded to 6 places."""
        tallies = {
            k: round(v, 6) if k.endswith("_us") else int(v)
            for k, v in self.overlay_state().items()
        }
        return {"mode": self.mode, **tallies}

    def register_metrics(self, metrics) -> None:
        """Register the ``io.*`` gauges over this planner's tallies."""
        for k in self.STATE:
            metrics.gauge(f"io.{k}", lambda k=k: getattr(self, k))
