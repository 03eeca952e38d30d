"""Graph Loader Unit (paper §V-B2).

Loads, for the active vertices of a sorted group, exactly the SSD pages
holding their row pointers and adjacency data:

* row-pointer pages for the active ranges,
* column-index (and value, if needed) pages for active vertices that are
  **not** covered by the edge log,
* edge-log pages for those that are (§V-C) -- dense pages holding the
  re-logged out-edges of several predicted-active vertices each.

Beyond charging I/O it produces the measurements the paper's analysis
figures need: per-page useful-byte counts (Fig. 3 utilization), the
per-vertex "was my page inefficiently used" flag that drives the
edge-log decision, and the hypothetical no-edge-log page set used to
score prediction accuracy (Fig. 9).

Device arrays (DESIGN.md §14) need no loader changes: every read goes
through :meth:`repro.ssd.file.SimFileBase._charge_read`, which attaches
each page's device id (``devices_of``) to the charge, so the overlay's
per-device clocks see the loader's traffic without the loader knowing
the array exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import SimConfig
from ..graph.storage import GraphOnSSD
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from .edgelog import EdgeLogOptimizer


@dataclass
class LoadReport:
    """Accounting for one group load."""

    io_time_us: float = 0.0
    rowptr_pages: int = 0
    colidx_pages: int = 0
    val_pages: int = 0
    edgelog_pages: int = 0
    edgelog_hits: int = 0
    #: useful bytes of each actually read colidx page (Fig. 3 histogram)
    colidx_useful: List[np.ndarray] = field(default_factory=list)
    #: hypothetical (no edge log) colidx page counts for Fig. 9
    hypo_pages: int = 0
    hypo_inefficient: int = 0
    avoided_inefficient: int = 0
    #: aligned with the ``active`` argument: True if the vertex's first
    #: colidx page was inefficiently used this superstep
    vertex_page_inefficient: Optional[np.ndarray] = None

    @property
    def data_pages(self) -> int:
        """Pages read for adjacency data (colidx + edge log)."""
        return self.colidx_pages + self.edgelog_pages


class GraphLoaderUnit:
    """Active-vertex page loader over an interval-partitioned CSR."""

    def __init__(
        self,
        storage: GraphOnSSD,
        config: SimConfig,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.storage = storage
        self.config = config
        self._page_size = config.ssd.page_size
        self._threshold = config.page_efficiency_threshold
        #: cumulative load tallies; updated once per load_active call
        self.loads = 0
        self.rowptr_pages = 0
        self.colidx_pages = 0
        self.val_pages = 0
        self.edgelog_pages = 0
        self.edgelog_hits = 0
        metrics.gauge("loader.loads", lambda: self.loads)
        metrics.gauge("loader.rowptr_pages", lambda: self.rowptr_pages)
        metrics.gauge("loader.colidx_pages", lambda: self.colidx_pages)
        metrics.gauge("loader.val_pages", lambda: self.val_pages)
        metrics.gauge("loader.edgelog_pages", lambda: self.edgelog_pages)
        metrics.gauge("loader.edgelog_hits", lambda: self.edgelog_hits)

    def load_active(
        self,
        active: np.ndarray,
        need_weights: bool,
        use_edge_state: bool,
        edgelog: Optional[EdgeLogOptimizer] = None,
        plan=None,
    ) -> LoadReport:
        """Charge the page loads for a sorted array of active vertices.

        ``active`` must be sorted ascending and may span multiple
        intervals (a fused group).  Returns a :class:`LoadReport`; the
        actual adjacency *data* is read by the engine straight from the
        storage arrays (simulation shortcut -- the I/O cost is what is
        modelled here).

        With ``plan`` (DESIGN.md §13) every page read is queued on the
        group's I/O plan instead of charged per range; the report's time
        fields stay zero and the engine attributes the coalesced wave
        times from the plan's outcome.  Page *counts* are unaffected.
        """
        active = np.asarray(active, dtype=np.int64)
        report = LoadReport()
        ineff_flags = np.zeros(active.shape[0], dtype=bool)
        # Edge-log membership for every active vertex, filled one
        # interval at a time and reused for the end-of-load page charge
        # -- contains_many is a sorted-array intersection, so querying
        # the whole array again would redo all the per-interval work.
        hit_all_mask = np.zeros(active.shape[0], dtype=bool)
        if active.size == 0:
            report.vertex_page_inefficient = ineff_flags
            return report
        bounds = self.storage.intervals.boundaries
        # Split the sorted active array at interval boundaries.
        cut = np.searchsorted(active, bounds)
        for i in range(self.storage.n_intervals):
            s, e = cut[i], cut[i + 1]
            if s == e:
                continue
            v = active[s:e]
            files = self.storage.interval_files(i)
            local, starts, stops = self.storage.local_ranges(i, v)

            # Row pointers: entries [local, local + 2) per vertex.
            t, pages, _ = files.rowptr.read_ranges(local, local + 2, plan=plan)
            report.io_time_us += t
            report.rowptr_pages += int(pages.shape[0])

            # Hypothetical colidx access (everything, ignoring edge log):
            hypo_pages, hypo_useful = files.colidx.pages_for(starts, stops)
            report.hypo_pages += int(hypo_pages.shape[0])
            hypo_frac = hypo_useful / self._page_size
            hypo_ineff_mask = (hypo_useful > 0) & (hypo_frac < self._threshold)

            # Per-vertex flag: is my first page inefficient?
            nonempty = stops > starts
            first_page = np.where(nonempty, starts // files.colidx.entries_per_page, 0)
            pos = np.searchsorted(hypo_pages, first_page)
            pos = np.clip(pos, 0, max(0, hypo_pages.shape[0] - 1))
            if hypo_pages.shape[0]:
                ineff_flags[s:e] = hypo_ineff_mask[pos] & nonempty

            # Split into edge-log hits and misses.
            if edgelog is not None:
                hit_mask = edgelog.contains_many(v)
                hit_all_mask[s:e] = hit_mask
            else:
                hit_mask = np.zeros(v.shape[0], dtype=bool)
            miss = ~hit_mask
            report.edgelog_hits += int(hit_mask.sum())

            # Misses read the real colidx (and val) pages.
            t, pages, useful = files.colidx.read_ranges(starts[miss], stops[miss], plan=plan)
            report.io_time_us += t
            report.colidx_pages += int(pages.shape[0])
            report.colidx_useful.append(useful)
            if (need_weights or use_edge_state) and files.values is not None:
                t, vpages, _ = files.values.read_ranges(starts[miss], stops[miss], plan=plan)
                report.io_time_us += t
                report.val_pages += int(vpages.shape[0])

            # Avoided-inefficient accounting: hypothetical inefficient
            # pages not present in the actually-read page set.
            if hypo_pages.shape[0]:
                # Both page lists come out of pages_for_ranges sorted
                # and unique, so membership is a searchsorted probe
                # instead of np.isin's generic hash/sort machinery.
                read_set = pages
                if read_set.shape[0]:
                    pos = np.searchsorted(read_set, hypo_pages)
                    pos_c = np.minimum(pos, read_set.shape[0] - 1)
                    in_read = read_set[pos_c] == hypo_pages
                else:
                    in_read = np.zeros(hypo_pages.shape[0], dtype=bool)
                avoided = hypo_ineff_mask & ~in_read
                report.hypo_inefficient += int(hypo_ineff_mask.sum())
                report.avoided_inefficient += int(avoided.sum())

        # Edge-log pages for all hits, read once per unique page.
        if edgelog is not None:
            hits_all = active[hit_all_mask]
            if hits_all.size:
                t, n_pages = edgelog.charge_read(hits_all, plan=plan)
                report.io_time_us += t
                report.edgelog_pages += n_pages
        report.vertex_page_inefficient = ineff_flags
        self.loads += 1
        self.rowptr_pages += report.rowptr_pages
        self.colidx_pages += report.colidx_pages
        self.val_pages += report.val_pages
        self.edgelog_pages += report.edgelog_pages
        self.edgelog_hits += report.edgelog_hits
        return report

    def writeback_edge_state(self, dirty: np.ndarray) -> float:
        """Charge value-page writes for vertices whose edge state changed.

        MultiLogVC stores per-edge application state in the interval CSR
        value vectors, so mutating it costs val-page writes -- the extra
        I/O the paper notes for CDLP relative to GraphChi.
        """
        dirty = np.asarray(dirty, dtype=np.int64)
        if dirty.size == 0:
            return 0.0
        if dirty.size > 1 and np.any(dirty[1:] < dirty[:-1]):
            # Callers usually pass already-sorted vertex ids; the O(n)
            # sortedness probe dodges the O(n log n) sort for them.
            dirty = np.sort(dirty)
        total = 0.0
        bounds = self.storage.intervals.boundaries
        cut = np.searchsorted(dirty, bounds)
        for i in range(self.storage.n_intervals):
            s, e = cut[i], cut[i + 1]
            if s == e:
                continue
            files = self.storage.interval_files(i)
            if files.values is None:
                continue
            _, starts, stops = self.storage.local_ranges(i, dirty[s:e])
            t, _ = files.values.write_ranges(starts, stops)
            total += t
        return total
