"""Multi-Log Update Unit (paper §V-A).

Outgoing messages are appended to one log per destination *vertex
interval*.  Hot path: ``ingest`` maps each destination to its interval
(the paper's ``vId2IntervalMap``), appends ``<v_dest, m>`` to that
interval's top page in the multi-log memory buffer, and marks the
destinations as known-active for the next superstep.

Buffering and eviction follow §V-A3: the buffer holds page-sized
chunks, at least one (top) page per interval; when free buffer space
drops below the low watermark, sealed (full) pages are appended to the
corresponding per-interval log files -- which are interspersed across
all SSD channels -- until the high watermark is restored.  If sealed
pages alone cannot free enough space, the largest partial top pages are
force-sealed and flushed too.

``consume`` is the read half used by the sort-and-group unit: it pulls
an interval group's flushed pages back from flash plus whatever is
still buffered in memory, and resets that interval's log.

The buffer is columnar: per interval a list of column *runs* (views of
the ingest batches, bucketed by interval) and one record count.  A
flush takes whole leading pages -- or everything, top page included --
so buffered records always start on a page boundary and every page
quantity is arithmetic on that count: ``ceil(fill / rpp)`` pages held,
``fill // rpp`` of them sealed, ``fill % rpp`` records on the top page.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..errors import ProgramError
from ..graph.partition import VertexIntervals
from ..mem.budget import MemoryBudget
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..ssd.file import PageFile, striped_write
from ..ssd.filesystem import SimFS
from .active import ActiveTracker
from .update import UPDATE_DTYPES, UpdateBatch, stable_argsort_bounded

KLASS_MLOG = "mlog"

#: One run or one page of records: ``(dest, src, data)`` columns.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


class MultiLogUnit:
    """Per-interval update logs with page-buffered, watermarked eviction."""

    def __init__(
        self,
        fs: SimFS,
        intervals: VertexIntervals,
        config: SimConfig,
        budget: MemoryBudget,
        name: str = "mlog",
        tracker: Optional[ActiveTracker] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.fs = fs
        self.intervals = intervals
        self.config = config
        self.budget = budget
        self.name = name
        self.tracker = tracker
        self.tracer = tracer
        #: cumulative eviction tallies (observability gauges read these)
        self.flushes = 0
        self.flushed_pages = 0
        k = intervals.n_intervals
        self._rpp = config.updates_per_page
        #: per interval: buffered column runs in arrival order, and the
        #: number of records they hold
        self._runs: List[List[Columns]] = [[] for _ in range(k)]
        self._fill: List[int] = [0] * k
        self._files: List[Optional[PageFile]] = [None] * k
        #: per interval: records logged and not yet consumed -- the
        #: fusing planner's size estimate.  A send-side combine
        #: (:func:`~repro.core.combine.precombine`) reduces a group's
        #: sends before they get here, so this counts what the log
        #: holds, not what the program sent.
        self.counters = np.zeros(k, dtype=np.int64)
        #: monotonic count of every record ever logged (never reset by
        #: consume); the engine diffs it per superstep as
        #: ``SuperstepRecord.records_logged``.
        self.appended = 0
        self._pages_used = 0
        self.io_time_us = 0.0
        self._n_vertices = intervals.n_vertices
        self._capacity = budget.multilog_pages
        mem = config.memory
        self._low_free = int(np.floor(mem.evict_low_free_fraction * self._capacity))
        self._high_free = int(np.floor(mem.evict_high_free_fraction * self._capacity))
        # Gauges over tallies the unit keeps anyway: zero hot-path cost.
        metrics.gauge(f"multilog.{name}.appended", lambda: self.appended)
        metrics.gauge(f"multilog.{name}.pages_buffered", lambda: self._pages_used)
        metrics.gauge(f"multilog.{name}.flushes", lambda: self.flushes)
        metrics.gauge(f"multilog.{name}.flushed_pages", lambda: self.flushed_pages)
        metrics.gauge(f"multilog.{name}.io_time_us", lambda: self.io_time_us)

    # -- geometry / introspection -------------------------------------------

    @property
    def n_intervals(self) -> int:
        return self.intervals.n_intervals

    @property
    def pages_buffered(self) -> int:
        return self._pages_used

    @property
    def capacity_pages(self) -> int:
        return self._capacity

    @property
    def total_messages(self) -> int:
        return int(self.counters.sum())

    def message_count(self, i: int) -> int:
        return int(self.counters[i])

    def estimated_bytes(self, i: int) -> int:
        """First-order log-size estimate from the logged-record counter (§V-B)."""
        return int(self.counters[i]) * self.config.records.update_bytes

    def estimated_bytes_all(self) -> np.ndarray:
        """Per-interval log-size estimates as one vector (planning path)."""
        return self.counters * self.config.records.update_bytes

    # -- hot path ----------------------------------------------------------------

    def narrowed(self, batch: UpdateBatch) -> UpdateBatch:
        """``batch`` in the log's column dtypes, destinations range-checked.

        The check sees the ids in the dtype the producer handed over,
        before anything narrows, sorts or reduces them: a wide id cast
        to the column dtype can wrap into range.  Only ids known to be
        in range are narrowed, so the cast is exact.
        """
        dests = batch.dest
        if dests.shape[0]:
            lo, hi = dests.min(), dests.max()
            if lo < 0 or hi >= self._n_vertices:
                raise ProgramError(
                    f"update destination outside graph [0, {self._n_vertices}): got [{lo}, {hi}]"
                )
        cols = (dests, batch.src, batch.data)
        return UpdateBatch(*(c.astype(dt, copy=False) for c, dt in zip(cols, UPDATE_DTYPES)))

    def ingest(self, batch: UpdateBatch) -> None:
        """Log a batch of records (seed messages, a group's sends --
        raw, or already reduced by the engine's send-side combine).

        The only producer entry point; destinations are validated here
        (:meth:`narrowed`), once per batch.
        """
        if batch is None or batch.n == 0:
            return
        batch = self.narrowed(batch)
        self._append_bulk(batch.dest, batch.src, batch.data)
        if self.tracker is not None:
            self.tracker.note_messages(batch.dest)

    def _set_fill(self, i: int, fill: int) -> None:
        """Set interval ``i``'s buffered record count; the page total follows from it."""
        rpp = self._rpp
        self._pages_used += -(-fill // rpp) - -(-self._fill[i] // rpp)
        self._fill[i] = fill

    def _append_bulk(self, dests: np.ndarray, srcs: np.ndarray, datas: np.ndarray) -> None:
        """Append a record batch, honouring the buffer watermark.

        Bulk appends are chunked so the buffer never transiently exceeds
        its capacity by more than one eviction quantum -- otherwise a
        large burst would be absorbed "for free" in memory and then
        spilled via force-sealed partial pages (write amplification).
        """
        rpp = self._rpp
        k = self.n_intervals
        chunk = max(rpp, self._high_free * rpp)
        ivals = self.intervals.dense[dests]
        # One stable sort buckets the batch by interval while keeping
        # each interval's records in arrival order.
        order = stable_argsort_bounded(ivals, k)
        d_all, s_all, x_all = dests[order], srcs[order], datas[order]
        counts = np.bincount(ivals, minlength=k)
        stops = np.cumsum(counts)
        for i in np.flatnonzero(counts).tolist():
            b1 = int(stops[i])
            for pos in range(b1 - int(counts[i]), b1, chunk):
                end = min(pos + chunk, b1)
                self._runs[i].append((d_all[pos:end], s_all[pos:end], x_all[pos:end]))
                self._set_fill(i, self._fill[i] + end - pos)
                if self._capacity - self._pages_used < self._low_free:
                    self._evict()
        self.counters += counts
        self.appended += int(dests.shape[0])

    # -- eviction -----------------------------------------------------------------

    def _file(self, i: int) -> PageFile:
        f = self._files[i]
        if f is None:
            # Interval-affinity hint: under a device array's "affinity"
            # placement each interval's log lands whole on one device
            # (DESIGN.md §14); inert on a single device.
            f = self.fs.create_page_file(
                f"{self.name}.i{i}", KLASS_MLOG, overwrite=True, affinity=i
            )
            self._files[i] = f
        return f

    def _take(self, i: int, n: int) -> Columns:
        """Remove and return interval ``i``'s first ``n`` buffered records.

        A take served by one run stays a view of its ingest batch (every
        record of a batch is live, buffered or on flash, until consumed);
        copying it measured ~7 % more ``stream_churn`` host time for no
        peak-RSS gain.
        """
        runs = self._runs[i]
        head = []
        need = n
        while need:
            run = runs[0]
            m = min(need, run[0].shape[0])
            head.append(tuple(c[:m] for c in run))
            if m < run[0].shape[0]:
                # The cut falls inside this run: its tail stays buffered.
                runs[0] = tuple(c[m:] for c in run)
            else:
                del runs[0]
            need -= m
        self._set_fill(i, self._fill[i] - n)
        return head[0] if len(head) == 1 else tuple(np.concatenate(c) for c in zip(*head))

    def _flush(self, i: int, n: int) -> Tuple[PageFile, np.ndarray]:
        """Stage interval ``i``'s first ``n`` records on its log file, page by page.

        Uncharged: :meth:`_evict` charges every page one eviction staged
        as a single device batch.  Returns the file and the new page ids.
        """
        rpp = self._rpp
        d, s, x = self._take(i, n)
        pages = [(d[p : p + rpp], s[p : p + rpp], x[p : p + rpp]) for p in range(0, n, rpp)]
        useful = [len(p[0]) * self.config.records.update_bytes for p in pages]
        f = self._file(i)
        return f, f.stage(pages, useful)

    def _evict(self) -> None:
        """Flush buffered pages to flash until the high watermark holds.

        All evicted pages are submitted as **one** write batch spanning
        every touched log file -- the paper's §V-A3 concurrent eviction
        across all SSD channels ("multiple log page evictions may occur
        concurrently ... most of the SSD bandwidth can be utilized").
        """
        rpp = self._rpp
        fill = self._fill
        target_used = self._capacity - self._high_free
        staged = []  # (file, page ids) per flush
        # Pass 1: sealed (full) pages, most-backed-up intervals first.
        for i in sorted(range(self.n_intervals), key=lambda i: fill[i] // rpp, reverse=True):
            if self._pages_used <= target_used or fill[i] < rpp:
                break
            take = min(fill[i] // rpp, self._pages_used - target_used)
            staged.append(self._flush(i, take * rpp))
        # Pass 2: force-seal the largest partial top pages (rare; only
        # when sealed pages alone cannot restore the watermark).
        if self._pages_used > target_used:
            for i in sorted(range(self.n_intervals), key=lambda i: fill[i] % rpp, reverse=True):
                if self._pages_used <= target_used or fill[i] % rpp == 0:
                    break
                staged.append(self._flush(i, fill[i]))
        if staged:
            t = striped_write(staged, KLASS_MLOG)
            pages = sum(int(ids.size) for _, ids in staged)
            self.io_time_us += t
            self.flushes += 1
            self.flushed_pages += pages
            if self.tracer.enabled:
                # ``deferred`` only where a write-back cache took the batch
                deferred = {"deferred": pages} if staged[0][0].writeback else {}
                self.tracer.emit(
                    "mlog_flush", unit=self.name, pages=pages, **deferred, time_us=t
                )

    # -- consumption (sort-and-group read path) ----------------------------------------

    def consume(self, interval_ids: List[int], plan=None) -> UpdateBatch:
        """Load and clear the logs of an interval group.

        Reads each interval's flushed pages back from flash (charged to
        this unit's ``io_time_us``), drains the still-buffered records,
        and resets counters.  Returns the concatenated unsorted batch.

        With ``plan`` (DESIGN.md §13), each log's page demand is queued
        on the plan instead of charged per file -- crucially *before*
        the ``truncate()`` below moves the file's page ids -- and the
        caller attributes the coalesced wave time after the plan
        executes, so per-read durations are not added here.
        """
        parts: List[Columns] = []
        for i in interval_ids:
            f = self._files[i]
            if f is not None and f.n_pages:
                payloads, t = f.read_all(plan=plan)
                if plan is None:
                    self.io_time_us += t
                parts.extend(payloads)
                f.truncate()
            parts.extend(self._runs[i])
            self._runs[i] = []
            self._set_fill(i, 0)
            self.counters[i] = 0
        if not parts:
            return UpdateBatch.empty()
        return UpdateBatch(*(np.concatenate(cols) for cols in zip(*parts)))

    def reset(self) -> None:
        """Drop all buffered and flushed updates (end of run)."""
        for f in self._files:
            if f is not None:
                f.truncate()
        self.consume(range(self.n_intervals))  # nothing left to read: empties the buffers

    # -- checkpoint/restore ---------------------------------------------------

    def export_state(self) -> dict:
        """Deep-copy of everything a resumed run needs from this unit.

        Flushed log pages are included because the simulated flash lives
        in the engine's process image; charging-wise they are already
        durable -- a write-back cache flushes its dirty log pages before
        the checkpoint is written (DESIGN.md §10) -- so a checkpoint only
        pays for the *in-memory* tails
        (see :meth:`repro.recovery.checkpoint.CheckpointManager.write`).
        The monotonic ``appended`` counter and the I/O tallies are
        exported too -- they feed trace fields, and post-resume traces
        must be bit-identical to an uninterrupted run's.
        """
        files = []
        for f in self._files:
            if f is None:
                files.append(None)
            else:
                files.append({
                    "channel_offset": f.channel_offset,
                    "payloads": [tuple(np.array(c, copy=True) for c in p) for p in f._payloads],
                    "useful": list(f._useful),
                })
        return {
            "files": files,
            "buffers": [self._export_buffer(i) for i in range(self.n_intervals)],
            "counters": self.counters.copy(),
            "appended": self.appended,
            "pages_used": self._pages_used,
            "io_time_us": self.io_time_us,
            "flushes": self.flushes,
            "flushed_pages": self.flushed_pages,
        }

    def _export_buffer(self, i: int) -> dict:
        """Interval ``i``'s buffer as sealed page copies plus the top page.

        The top page is exported as Python-scalar column lists: a
        checkpoint is charged by the pickled size of this state, so its
        shape is part of the simulated cost.
        """
        rpp = self._rpp
        sealed = self._fill[i] // rpp * rpp
        cols = [np.concatenate(c) for c in zip(*self._runs[i])] or [np.empty(0, dt) for dt in UPDATE_DTYPES]
        return {
            "sealed": [tuple(np.array(c[p : p + rpp]) for c in cols) for p in range(0, sealed, rpp)],
            "top": [c[sealed:].tolist() for c in cols],
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` on a freshly constructed unit.

        Log files are re-adopted at their *recorded* channel offsets so
        restored reads cost exactly what they would have in the original
        run (see :meth:`repro.ssd.filesystem.SimFS.adopt_page_file`).
        """
        for i, fstate in enumerate(state["files"]):
            if fstate is None:
                self._files[i] = None
                continue
            f = self.fs.adopt_page_file(
                f"{self.name}.i{i}", KLASS_MLOG, fstate["channel_offset"], affinity=i
            )
            f._payloads = [tuple(np.array(c, copy=True) for c in p) for p in fstate["payloads"]]
            f._useful = list(fstate["useful"])
            self._files[i] = f
        for i, bstate in enumerate(state["buffers"]):
            pages = [*bstate["sealed"], bstate["top"]]
            run = tuple(
                np.concatenate([np.asarray(p[c], dt) for p in pages]) for c, dt in enumerate(UPDATE_DTYPES)
            )
            self._fill[i] = run[0].shape[0]  # pages_used is restored below
            self._runs[i] = [run] if self._fill[i] else []
        self.counters[:] = state["counters"]
        self.appended = int(state["appended"])
        self._pages_used = int(state["pages_used"])
        self.io_time_us = float(state["io_time_us"])
        self.flushes = int(state["flushes"])
        self.flushed_pages = int(state["flushed_pages"])
