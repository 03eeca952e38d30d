"""Graph Loader Unit (paper §V-B2).

Loads, for the active vertices of a sorted group, exactly the SSD pages
holding their row pointers and adjacency data:

* row-pointer pages for the active ranges,
* column-index (and value, if needed) pages for active vertices that are
  **not** covered by the edge log,
* edge-log pages for those that are (§V-C) -- dense pages holding the
  re-logged out-edges of several predicted-active vertices each.

A program's ``loads_edges`` hook narrows the last two to the vertices
that will scatter (DESIGN.md §6): every active vertex still reads its
row pointers -- they give the degrees -- but only the selected ones
read colidx, value and edge-log pages.

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
from typing import Optional

import numpy as np

from ..config import SimConfig
from ..graph.storage import GraphOnSSD, GroupRanges
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from .edgelog import EdgeLogOptimizer


@dataclass
class LoadReport:
    """Page counts of one group load; its storage time is the device's."""

    rowptr_pages: int = 0
    colidx_pages: int = 0
    val_pages: int = 0
    edgelog_pages: int = 0
    edgelog_hits: int = 0
    #: useful bytes of each actually read colidx page (Fig. 3 histogram)
    colidx_useful: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: hypothetical (no edge log) colidx page counts for Fig. 9
    hypo_pages: int = 0
    avoided_inefficient: int = 0
    #: aligned with the ``active`` argument: True if the vertex's first
    #: colidx page was inefficiently used this superstep (always False
    #: for a vertex whose edges were not loaded)
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
        self.edgelog_hits = 0
        metrics.gauge("loader.loads", lambda: self.loads)
        metrics.gauge("loader.rowptr_pages", lambda: self.rowptr_pages)
        metrics.gauge("loader.colidx_pages", lambda: self.colidx_pages)
        metrics.gauge("loader.val_pages", lambda: self.val_pages)
        metrics.gauge("loader.edgelog_hits", lambda: self.edgelog_hits)

    def load_active(
        self,
        active: np.ndarray,
        need_weights: bool,
        use_edge_state: bool,
        edgelog: Optional[EdgeLogOptimizer] = None,
        plan=None,
        ranges: Optional[GroupRanges] = None,
        edges: Optional[np.ndarray] = None,
    ) -> LoadReport:
        """Charge the page loads for a sorted array of active vertices.

        ``active`` must be sorted ascending and may span multiple
        intervals (a fused group); ``ranges`` is its
        :meth:`~repro.graph.storage.GraphOnSSD.group_ranges`, when the
        caller already has it.  Returns a :class:`LoadReport`; the
        actual adjacency *data* is read by the engine straight from the
        storage arrays (simulation shortcut -- the I/O cost is what is
        modelled here).

        Each file class's pages are mapped once for the whole group, but
        charged per interval in ascending order -- rowptr, colidx, values
        -- and then the edge log's pages, so cache hit/miss sequences,
        plan demand order and device charges are those of loading one
        interval at a time.

        With ``plan`` (DESIGN.md §13) every page read is queued on the
        group's I/O plan instead of charged per range, and the plan
        charges it when the engine executes it.  Page *counts* are
        unaffected.

        ``edges`` (aligned with ``active``; ``None``: all) selects the
        vertices whose adjacency is read: the others read only their
        row pointers, and every colidx figure of the report -- the
        hypothetical no-edge-log set included -- covers the selected
        vertices only.
        """
        active = np.asarray(active, dtype=np.int64)
        report = LoadReport()
        if active.size == 0:
            report.vertex_page_inefficient = np.zeros(0, dtype=bool)
            return report
        storage = self.storage
        r = storage.group_ranges(active) if ranges is None else ranges
        iv, starts, stops = r.interval, r.starts, r.stops

        # Row pointers: entries [local, local + 2) per vertex.
        local = r.local(iv)
        rows = storage.group_pages("rowptr", iv, local, local + 2)
        # Hypothetical colidx access (everything, ignoring edge log).
        hypo = storage.group_pages("colidx", iv, starts, stops)
        hypo_ineff = (hypo.useful > 0) & (hypo.useful / self._page_size < self._threshold)

        # Per-vertex flag: is my first page inefficient?  Judged on the
        # page density of every active vertex, loaded or not: the edge
        # log bets on activity next superstep, not on a scatter.
        nonempty = stops > starts
        ineff_flags = np.zeros(active.shape[0], dtype=bool)
        if hypo.pages.size:
            pos = np.searchsorted(hypo.pages, hypo.page_of(iv, starts))
            pos = np.minimum(pos, hypo.pages.size - 1)
            ineff_flags = hypo_ineff[pos] & nonempty

        # Everything below concerns the vertices whose edges are read;
        # only their edges reach memory to be re-logged.
        loaded = active
        if edges is not None:
            ineff_flags &= edges
            iv, starts, stops, loaded = iv[edges], starts[edges], stops[edges], active[edges]
            hypo = storage.group_pages("colidx", iv, starts, stops)
            hypo_ineff = (hypo.useful > 0) & (hypo.useful / self._page_size < self._threshold)

        # Split into edge-log hits and misses; misses read the real
        # colidx (and val) pages -- all of them when nothing hits.
        hit = edgelog.contains_many(loaded) if edgelog is not None else None
        n_hits = int(np.count_nonzero(hit)) if hit is not None else 0
        if n_hits:
            miss = ~hit
            iv, starts, stops = iv[miss], starts[miss], stops[miss]
            cols = storage.group_pages("colidx", iv, starts, stops)
        else:
            cols = hypo
        vals = None
        if (need_weights or use_edge_state) and storage.with_weights:
            vals = storage.group_pages("values", iv, starts, stops)

        for i, _, _ in r.spans():
            files = storage.interval_files(i)
            files.rowptr._charge_read(rows.of(i), plan=plan)
            files.colidx._charge_read(cols.of(i), plan=plan)
            if vals is not None:
                files.values._charge_read(vals.of(i), plan=plan)

        # Avoided-inefficient accounting: hypothetical inefficient pages
        # not present in the actually-read page set.  Both page lists
        # are sorted and unique, so membership is a searchsorted probe.
        in_read = np.ones(hypo.pages.size, dtype=bool)
        if cols is not hypo:
            in_read[:] = False
            if cols.pages.size:
                pos = np.minimum(np.searchsorted(cols.pages, hypo.pages), cols.pages.size - 1)
                in_read = cols.pages[pos] == hypo.pages
        report.rowptr_pages = int(rows.pages.size)
        report.colidx_pages = int(cols.pages.size)
        report.val_pages = int(vals.pages.size) if vals is not None else 0
        report.colidx_useful = cols.useful
        report.hypo_pages = int(hypo.pages.size)
        report.avoided_inefficient = int(np.count_nonzero(hypo_ineff & ~in_read))
        report.edgelog_hits = n_hits

        # Edge-log pages for all hits, read once per unique page.
        if n_hits:
            report.edgelog_pages = edgelog.charge_read(loaded[hit], plan=plan)
        report.vertex_page_inefficient = ineff_flags
        self.loads += 1
        self.rowptr_pages += report.rowptr_pages
        self.colidx_pages += report.colidx_pages
        self.val_pages += report.val_pages
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
