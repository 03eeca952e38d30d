"""Edge-Log Optimizer (paper §V-C).

While superstep ``s`` processes a vertex ``v`` (whose out-edges are in
memory anyway), the optimizer decides whether to *re-log* those edges
into a dense, sequential edge log for superstep ``s + 1``:

1. predict whether ``v`` will be active next superstep -- known for
   sure if a message bound to ``v`` was already logged, else predicted
   by the N-superstep history bit vectors (N = 1 by default);
2. check whether ``v``'s adjacency page was *inefficiently used* this
   superstep (>0% and <10% of page bytes useful);
3. if both hold, append ``v``'s header + out-edge entries to the edge
   log and remember which log pages hold them.

Next superstep, the graph loader fetches covered vertices from the
dense log pages instead of the sparse colidx pages: logging N vertices
into one page saves up to N - 1 page reads (§V-C).  Edge logs live for
exactly one superstep; generations rotate at superstep boundaries.

The B% buffer holds ``MemoryBudget.edgelog_pages`` pages, the in-fill
page included.  Completed pages stay in it until an entry does not fit
beside them; then they leave as **one** striped write, like a multi-log
eviction (§V-A3).  An entry larger than the whole buffer (a hub vertex)
is written as one batch as soon as it completes.  At superstep end the
remaining complete pages and the trailing partial page are one batch.
"""

from __future__ import annotations

import numpy as np

from ..config import SimConfig
from ..mem.budget import MemoryBudget
from ..mem.pagebuffer import ByteStreamPager
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..ssd.file import PageFile
from ..ssd.filesystem import SimFS
from ..ssd.stats import IOCounter

KLASS_EDGELOG = "edgelog"


class EdgeLogOptimizer:
    """One-superstep-lifetime dense re-log of predicted-active adjacency."""

    def __init__(
        self,
        fs: SimFS,
        n_vertices: int,
        config: SimConfig,
        budget: MemoryBudget,
        name: str = "elog",
        metrics: MetricsRegistry = NULL_METRICS,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.fs = fs
        self.n = n_vertices
        self.config = config
        self.budget = budget
        self.name = name
        self.tracer = tracer
        self._gen = 0
        # Current generation: what this superstep's loader may read.
        self._cur_first = np.full(n_vertices, -1, dtype=np.int64)
        self._cur_last = np.full(n_vertices, -1, dtype=np.int64)
        self._file_cur: PageFile | None = None
        # Next generation: being written during this superstep.
        self._next_first = np.full(n_vertices, -1, dtype=np.int64)
        self._next_last = np.full(n_vertices, -1, dtype=np.int64)
        self._file_next = self._new_file()
        self._pager = ByteStreamPager(config.ssd.page_size)
        self.vertices_logged = 0
        #: run-cumulative tallies (vertices_logged resets per superstep);
        #: ``pages_read_total`` counts every page a loader looked up,
        #: cache hits included, where the device counts only misses
        self.considered = 0
        self.total_logged = 0
        self.pages_read_total = 0
        metrics.gauge("edgelog.considered", lambda: self.considered)
        metrics.gauge("edgelog.logged", lambda: self.total_logged)
        metrics.gauge("edgelog.pages_read", lambda: self.pages_read_total)
        # Storage time, write batches and pages: the device's own
        # per-class tallies, write-backs included, which a checkpoint
        # already restores.
        metrics.gauge(
            "edgelog.io_time_us", lambda: self._reads().time_us + self._writes().time_us
        )
        metrics.gauge("edgelog.flushes", lambda: self._writes().batches)
        metrics.gauge("edgelog.pages_written", lambda: self._writes().pages)

    def _reads(self) -> IOCounter:
        return self.fs.stats.reads.get(KLASS_EDGELOG, IOCounter())

    def _writes(self) -> IOCounter:
        return self.fs.stats.writes.get(KLASS_EDGELOG, IOCounter())

    def _new_file(self) -> PageFile:
        self._gen += 1
        return self.fs.create_page_file(f"{self.name}.g{self._gen}", KLASS_EDGELOG, overwrite=True)

    # -- write path (during processing of superstep s) ---------------------

    def consider(self, vertices: np.ndarray, degrees: np.ndarray) -> int:
        """Log the out-edges of one group's candidates; returns how many were logged.

        ``vertices`` are the group's vertices predicted active next
        superstep whose adjacency page was inefficiently used, in
        processing order; those with no out-edges are counted but not
        logged.
        """
        v = np.asarray(vertices, dtype=np.int64)
        d = np.asarray(degrees, dtype=np.int64)
        self.considered += int(v.size)
        keep = d > 0
        v, d = v[keep], d[keep]
        if not v.size:
            return 0
        rec = self.config.records
        firsts, lasts, ends = self._pager.append_many(
            rec.edgelog_header_bytes + d * rec.edgelog_entry_bytes
        )
        self._next_first[v] = firsts
        self._next_last[v] = lasts
        self._evict(firsts, ends)
        self.vertices_logged += int(v.size)
        self.total_logged += int(v.size)
        return int(v.size)

    def _evict(self, firsts: np.ndarray, ends: np.ndarray) -> None:
        """Write complete pages as the appended entries enter the buffer.

        Entry ``j`` starts on page ``firsts[j]`` (so that many pages are
        complete before it) and ends at stream byte ``ends[j]``; once it
        is in, the stream holds ``ceil(ends[j] / page)`` pages.  When
        that exceeds the pages written plus the buffer, the pages
        complete before the entry are written first; if the entry alone
        still overflows, its complete pages follow as a batch of their
        own.  ``held`` only grows, so each batch is one binary search.
        """
        page = self._pager.page_size
        cap = self.budget.edgelog_pages
        held = -(-ends // page)
        while True:
            written = self._file_next.n_pages
            j = int(np.searchsorted(held, written + cap, side="right"))
            if j == held.shape[0]:
                return
            if firsts[j] > written:
                self._flush(int(firsts[j]) - written)
                written = int(firsts[j])
            if held[j] - written > cap:
                self._flush(int(ends[j]) // page - written)

    def _flush(self, full_pages: int, tail_bytes: int = 0) -> None:
        """Write ``full_pages`` complete pages (and a partial tail) as one batch."""
        useful = [self._pager.page_size] * full_pages + ([tail_bytes] if tail_bytes else [])
        _, t = self._file_next.append_pages([None] * len(useful), useful)
        if self.tracer.enabled:
            pages = len(useful)
            # ``deferred`` only where a write-back cache took the batch
            deferred = {"deferred": pages} if self._file_next.writeback else {}
            self.tracer.emit("elog_flush", pages=pages, **deferred, time_us=t)

    # -- read path (during processing of superstep s, for generation s) ---------

    def contains(self, v: int) -> bool:
        return self._cur_first[v] >= 0

    def contains_many(self, vertices: np.ndarray) -> np.ndarray:
        return self._cur_first[np.asarray(vertices, dtype=np.int64)] >= 0

    def pages_of(self, vertices: np.ndarray) -> np.ndarray:
        """Unique current-generation page ids covering ``vertices``."""
        v = np.asarray(vertices, dtype=np.int64)
        firsts = self._cur_first[v]
        lasts = self._cur_last[v]
        ok = firsts >= 0
        firsts, lasts = firsts[ok], lasts[ok]
        if firsts.size == 0:
            return np.empty(0, dtype=np.int64)
        counts = lasts - firsts + 1
        cum = np.cumsum(counts)
        offsets = np.arange(int(cum[-1]), dtype=np.int64) - np.repeat(cum - counts, counts)
        pages = np.repeat(firsts, counts) + offsets
        return np.unique(pages)

    def charge_read(self, hit_vertices: np.ndarray, plan=None) -> int:
        """Read the log pages covering the given hit vertices; returns
        how many there are.

        With ``plan`` (DESIGN.md §13) the page demand is queued on the
        group's I/O plan, which charges it when it executes.  Either way
        every page counts in ``pages_read_total``, cache hits included.
        """
        pages = self.pages_of(hit_vertices)
        if pages.size == 0 or self._file_cur is None:
            return 0
        self._file_cur.read_pages(pages, plan=plan)
        self.pages_read_total += int(pages.size)
        return int(pages.size)

    # -- superstep boundary -------------------------------------------------------

    def end_superstep(self) -> None:
        """Write the buffered pages, partial tail included, as one batch; rotate generations."""
        page = self._pager.page_size
        full = self._pager.offset // page - self._file_next.n_pages
        tail = self._pager.offset % page
        if full or tail:
            self._flush(full, tail)
        self._cur_first, self._next_first = self._next_first, np.full(self.n, -1, dtype=np.int64)
        self._cur_last, self._next_last = self._next_last, np.full(self.n, -1, dtype=np.int64)
        if self._file_cur is not None:
            # The consumed generation is dead: deleting it drops its
            # cached pages, dirty ones unwritten (they are never read).
            self.fs.delete(self._file_cur.name)
        self._file_cur = self._file_next
        self._file_next = self._new_file()
        self._pager.reset()
        self.vertices_logged = 0

    @property
    def current_coverage(self) -> int:
        """How many vertices the current generation covers."""
        return int((self._cur_first >= 0).sum())

    # -- checkpoint/restore ---------------------------------------------------

    def export_state(self) -> dict:
        """Deep-copy taken at a superstep boundary (after the rotate).

        At that point the *next* generation is empty (fresh file, pager
        reset), so only the current generation's page map and file need
        to be captured.  Edge-log pages carry no payload (the adjacency
        bytes are re-derivable from the graph); the file is captured as
        its page count, useful-byte list and channel offset.
        """

        def file_state(f: PageFile | None):
            if f is None:
                return None
            return {
                "name": f.name,
                "channel_offset": f.channel_offset,
                "n_pages": f.n_pages,
                "useful": list(f._useful),
            }

        return {
            "gen": self._gen,
            "cur_first": self._cur_first.copy(),
            "cur_last": self._cur_last.copy(),
            "file_cur": file_state(self._file_cur),
            "file_next": file_state(self._file_next),
            "considered": self.considered,
            "total_logged": self.total_logged,
            "pages_read_total": self.pages_read_total,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` on a fresh optimizer."""

        def adopt(fstate) -> PageFile | None:
            if fstate is None:
                return None
            f = self.fs.adopt_page_file(
                fstate["name"], KLASS_EDGELOG, fstate["channel_offset"]
            )
            f._payloads = [None] * int(fstate["n_pages"])
            f._useful = list(fstate["useful"])
            return f

        self._gen = int(state["gen"])
        self._cur_first = state["cur_first"].copy()
        self._cur_last = state["cur_last"].copy()
        self._file_cur = adopt(state["file_cur"])
        self._file_next = adopt(state["file_next"])
        self._next_first = np.full(self.n, -1, dtype=np.int64)
        self._next_last = np.full(self.n, -1, dtype=np.int64)
        self._pager.reset()
        self.vertices_logged = 0
        self.considered = int(state["considered"])
        self.total_logged = int(state["total_logged"])
        self.pages_read_total = int(state["pages_read_total"])
