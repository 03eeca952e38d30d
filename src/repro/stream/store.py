"""The on-flash evolving-graph store: base CSR + one update log per interval.

Layout (DESIGN.md §12).  Each vertex interval ``i`` owns

* ``stream.i{i}.rowptr/.col/.val`` -- the interval's *base* CSR
  (:class:`~repro.ssd.file.ArrayFile`, page-exact charging), rebuilt at
  compaction;
* ``stream.i{i}.log`` -- an append-only :class:`PageFile` of the update
  records whose source lies in the interval, packed per batch and
  tagged with the batch sequence number.  The prefix up to the last
  applied batch *is* the interval's delta log -- inserts are live
  edges, deletes tombstones that killed every live instance of their
  ``(src, dst)`` pair (base or previously inserted) -- and the suffix
  past it is the batches still pending.

``stream.meta`` is the commit log: an ``ingest`` marker seals each
batch's log pages (written before it as one striped batch across every
touched interval), an ``applied`` marker moves the pending/applied
boundary.  Sequence numbers only grow within a log, so recovery after a
simulated power cut is one suffix trim per log (pages past the last
``ingest`` marker) followed by a deterministic host-index replay of the
applied prefix -- see :meth:`StreamStore.recover`.

Compaction.  A delete leaves its victim's bytes on flash (dead base or
logged records) plus its own tombstone record.  When that garbage
exceeds ``SimConfig.stream_compact_threshold`` of an interval's
records, the interval is compacted: surviving edges are read, rewritten
as a fresh base CSR, and the (fully applied) log truncated.  The reads
happen *before* the host-state swap, and the swap plus truncate are
free host operations after which durable state is already consistent
-- no meta record needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional

import numpy as np

from ..config import SimConfig
from ..core.batch import flatten_ranges
from ..errors import StorageError
from ..graph.csr import CSRGraph, csr_order
from ..graph.partition import VertexIntervals, static_partition
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..ssd.file import striped_read, striped_write
from ..ssd.filesystem import SimFS
from .delta import OP_DELETE, RECORD_BYTES, EdgeDelta, record_pages

#: Storage classes of the stream store's files.
KLASS_ROW = "stream_row"
KLASS_COL = "stream_col"
KLASS_VAL = "stream_val"
KLASS_LOG = "ulog"
KLASS_META = "stream_meta"


def _durable(pages: list, seq: int) -> int:
    """How many leading log pages belong to batches ``<= seq``.

    Sequence numbers only grow within a log, so the rest is a suffix.
    """
    n = len(pages)
    while n and pages[n - 1][0] > seq:
        n -= 1
    return n


@dataclass
class _IntervalIndex:
    """Host-side index of one interval's live/dead records.

    Purely derived state: rebuilt at recovery by replaying the
    interval's applied log pages over its base CSR.  ``base_alive``
    aligns with the base ``col`` file, ``d_*`` with the logged inserts.
    """

    base_alive: np.ndarray
    d_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    d_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    d_w: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    d_alive: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    tombstones: int = 0
    dead_base: int = 0
    dead_delta: int = 0

    @property
    def live_base(self) -> int:
        return int(np.count_nonzero(self.base_alive))

    @property
    def live_delta(self) -> int:
        return int(np.count_nonzero(self.d_alive))

    @property
    def total_records(self) -> int:
        """Records occupying flash: base edges + delta inserts + tombstones."""
        return int(self.base_alive.size) + int(self.d_src.size) + self.tombstones

    @property
    def garbage_records(self) -> int:
        """Records compaction would reclaim."""
        return self.dead_base + self.dead_delta + self.tombstones


class StreamStore:
    """Evolving graph on the simulated SSD with multi-log-style updates."""

    def __init__(
        self,
        graph: CSRGraph,
        fs: SimFS,
        config: SimConfig,
        *,
        name: str = "stream",
        intervals: Optional[VertexIntervals] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.n = graph.n
        self.fs = fs
        self.config = config
        self.name = name
        self.tracer = tracer
        self.metrics = metrics
        self.weighted = graph.weights is not None
        if intervals is None:
            intervals = static_partition(graph, config)
        self.intervals = intervals
        rec = config.records
        self._rowptr_files = []
        self._col_files = []
        self._val_files = []
        self._logs = []
        self._index: List[_IntervalIndex] = []
        for i, lo, hi in intervals:
            local_rowptr = graph.rowptr[lo : hi + 1] - graph.rowptr[lo]
            col = np.array(graph.colidx[graph.rowptr[lo] : graph.rowptr[hi]], copy=True)
            self._rowptr_files.append(
                fs.create_array_file(f"{name}.i{i}.rowptr", KLASS_ROW, local_rowptr, rec.rowptr_bytes)
            )
            self._col_files.append(
                fs.create_array_file(f"{name}.i{i}.col", KLASS_COL, col, rec.vid_bytes)
            )
            if self.weighted:
                val = np.array(graph.weights[graph.rowptr[lo] : graph.rowptr[hi]], copy=True)
                self._val_files.append(
                    fs.create_array_file(f"{name}.i{i}.val", KLASS_VAL, val, rec.weight_bytes)
                )
            # affinity=i: under a device array's "affinity" placement each
            # interval's log lands whole on one device (DESIGN.md §14).
            self._logs.append(fs.create_page_file(f"{name}.i{i}.log", KLASS_LOG, affinity=i))
            self._index.append(_IntervalIndex(base_alive=np.ones(col.size, dtype=bool)))
        self._meta = fs.create_page_file(f"{name}.meta", KLASS_META)
        self.records_per_page = max(1, config.ssd.page_size // RECORD_BYTES)
        # Commit-point state (mirrors the durable meta log).
        self.last_ingested = 0
        self.last_applied = 0
        #: Per log, how many leading pages are applied (its delta log);
        #: the pages past it are pending.
        self._applied = [0] * intervals.n_intervals
        # Lifetime tallies behind the ``stream.*`` gauges; reset to the
        # durable state's replay at recovery.
        self.batches_ingested = 0
        self.batches_applied = 0
        self.records_ingested = 0
        self.inserts_applied = 0
        self.deletes_applied = 0
        self.noop_deletes = 0
        self.ulog_pages_written = 0
        self.compactions = 0
        self.ingest_io_us = 0.0
        self.apply_io_us = 0.0
        self.compact_io_us = 0.0
        self.register_metrics(metrics)

    # -- observability ----------------------------------------------------

    def register_metrics(self, reg: MetricsRegistry) -> None:
        """Register the ``stream.*`` gauges over this store's tallies."""
        self.metrics = reg
        reg.gauge("stream.batches_ingested", lambda: self.batches_ingested)
        reg.gauge("stream.batches_applied", lambda: self.batches_applied)
        reg.gauge("stream.records_ingested", lambda: self.records_ingested)
        reg.gauge("stream.inserts_applied", lambda: self.inserts_applied)
        reg.gauge("stream.deletes_applied", lambda: self.deletes_applied)
        reg.gauge("stream.noop_deletes", lambda: self.noop_deletes)
        reg.gauge("stream.ulog_pages_written", lambda: self.ulog_pages_written)
        # Always 0: a merge writes no delta copy, the applied log prefix
        # is the delta log.  Kept registered for readers keyed on it.
        reg.gauge("stream.delta_pages_written", lambda: 0)
        reg.gauge("stream.compactions", lambda: self.compactions)
        reg.gauge("stream.live_edges", self.live_edges)
        reg.gauge("stream.garbage_records", lambda: sum(ix.garbage_records for ix in self._index))
        reg.gauge("stream.ingest_io_us", lambda: self.ingest_io_us)
        reg.gauge("stream.apply_io_us", lambda: self.apply_io_us)
        reg.gauge("stream.compact_io_us", lambda: self.compact_io_us)

    def live_edges(self) -> int:
        return sum(ix.live_base + ix.live_delta for ix in self._index)

    def live_edge_arrays(self) -> tuple:
        """``(src, dst)`` of every live edge (host-side, for generators)."""
        src, dst = [], []
        for i in range(self.intervals.n_intervals):
            s, d, _ = self._live_local_edges(i)
            src.append(s)
            dst.append(d)
        return (
            np.concatenate(src) if src else np.empty(0, np.int64),
            np.concatenate(dst) if dst else np.empty(0, np.int64),
        )

    # -- ingestion --------------------------------------------------------

    def ingest(self, delta: EdgeDelta) -> Dict[str, float]:
        """Append one update batch to the per-interval logs (durable).

        The batch is bucketed by source interval and every touched
        log's pages are written as **one** striped batch -- the
        multi-log's concurrent eviction (paper §V-A3).  The batch is
        committed -- guaranteed to survive a crash -- once the meta
        log's ``ingest`` marker, a separate later write, lands; a crash
        before that leaves no trace of it after :meth:`recover`.
        """
        delta.validate(self.n)
        seq = self.last_ingested + 1
        staged = []
        for i, part in delta.by_interval(self.intervals):
            payloads, useful = record_pages(
                seq, (part.op, part.src, part.dst, part.w, part.ts), self.records_per_page
            )
            staged.append((self._logs[i], self._logs[i].stage(payloads, useful)))
        pages = sum(int(ids.size) for _, ids in staged)
        io_us = striped_write(staged, KLASS_LOG)
        _, t_meta = self._meta.append_page(("ingest", seq), useful_bytes=16)
        io_us += t_meta
        self.last_ingested = seq
        self.batches_ingested += 1
        self.records_ingested += delta.n
        self.ulog_pages_written += pages
        self.ingest_io_us += io_us
        if self.tracer.enabled:
            self.tracer.emit(
                "ingest_stats",
                phase="ingest",
                seq=seq,
                records=delta.n,
                adds=delta.n_adds,
                deletes=delta.n_deletes,
                pages=pages,
                io_us=io_us,
            )
        return {"seq": seq, "records": delta.n, "pages": pages, "io_us": io_us}

    # -- merge ------------------------------------------------------------

    def apply_updates(self) -> Dict[str, float]:
        """Merge every committed-but-unapplied batch into the graph.

        The pending suffix of every log is read back as **one** batch.
        Batches then merge in sequence order -- each one's per-interval
        runs folded into the host index, intervals ascending, records in
        arrival order -- and each is sealed by an ``applied`` meta
        marker, the only page a merge writes: the log pages themselves
        become the delta log.  Compaction runs last, once per interval
        over threshold.

        After a :class:`~repro.errors.SimulatedCrashError` the host
        index may be ahead of or behind flash -- call :meth:`recover`
        before touching the store again.
        """
        pending = [
            (f, np.arange(a, f.n_pages, dtype=np.int64)) for f, a in zip(self._logs, self._applied)
        ]
        read_io = striped_read(pending, KLASS_LOG)
        self.apply_io_us += read_io
        runs: Dict[int, list] = {}  # seq -> [(interval, records)], intervals ascending
        for i, (f, ids) in enumerate(pending):
            for seq, run in groupby(f.read_pages(ids, charge=False)[0], key=lambda p: p[0]):
                part = EdgeDelta.concat(EdgeDelta(*p[1:]) for p in run)
                runs.setdefault(seq, []).append((i, part))
        stats = {
            "batches": 0, "inserts": 0, "deletes": 0, "noop_deletes": 0,
            "io_us": read_io, "compactions": 0,
        }
        for seq in range(self.last_applied + 1, self.last_ingested + 1):
            b = self._apply_one(seq, runs.get(seq, []))
            stats["batches"] += 1
            for k in ("inserts", "deletes", "noop_deletes", "io_us"):
                stats[k] += b[k]
        self._applied = [f.n_pages for f in self._logs]
        stats["compactions"] = self.compact_if_needed()
        return stats

    def _apply_one(self, seq: int, runs: list) -> Dict[str, float]:
        out = {"inserts": 0, "deletes": 0, "noop_deletes": 0, "io_us": 0.0}
        for i, part in runs:
            ins, dels, noops = self._apply_rows(i, part)
            out["inserts"] += ins
            out["deletes"] += dels
            out["noop_deletes"] += noops
        _, out["io_us"] = self._meta.append_page(("applied", seq), useful_bytes=16)
        self.last_applied = seq
        self.batches_applied += 1
        self.inserts_applied += out["inserts"]
        self.deletes_applied += out["deletes"]
        self.noop_deletes += out["noop_deletes"]
        self.apply_io_us += out["io_us"]
        if self.tracer.enabled:
            self.tracer.emit(
                "ingest_stats",
                phase="apply",
                seq=seq,
                records=sum(part.n for _, part in runs),
                inserts=out["inserts"],
                deletes=out["deletes"],
                noop_deletes=out["noop_deletes"],
                pages=0,
                io_us=out["io_us"],
            )
        return out

    def _apply_rows(self, i: int, part: EdgeDelta) -> tuple:
        """Fold one interval's record run into the host index, whole run at once.

        The result is exactly that of applying the records one by one in
        arrival order, where a delete kills every instance of its pair
        live *at that point* -- base copies, inserts of earlier runs and
        earlier inserts of this run alike.  Grouping the run by
        ``(src, dst)`` (stably, so a group keeps arrival order) turns
        that into three rules per key that has a delete:

        * every instance live before the run dies, and so does every
          insert of the run that precedes the key's *last* delete;
        * a delete is a no-op iff nothing is live when it arrives: it
          heads its group with nothing live beforehand, or it directly
          follows another delete of the key;
        * inserts, dead or alive, are appended in arrival order.

        Returns ``(inserts, deletes, noop_deletes)``.
        """
        ix = self._index[i]
        is_del = part.op == OP_DELETE
        n_del = int(np.count_nonzero(is_del))
        dead = np.zeros(part.n, dtype=bool)
        applied = 0
        if n_del:
            key = part.src * self.n + part.dst
            order = np.argsort(key, kind="stable")
            ks, dl = key[order], is_del[order]
            head = np.ones(part.n, dtype=bool)  # first record of its key group
            head[1:] = ks[1:] != ks[:-1]
            starts = np.flatnonzero(head)
            group = np.cumsum(head) - 1
            pos = np.arange(part.n)
            # Sorted position of each key's last delete; -1: it has none.
            last_del = np.maximum.reduceat(np.where(dl, pos, -1), starts)
            has_del = last_del >= 0
            had_live = np.zeros(starts.size, dtype=bool)
            had_live[has_del] = self._kill_live(i, ks[starts[has_del]]) > 0
            after_insert = np.zeros(part.n, dtype=bool)  # previous record of the key is one
            after_insert[1:] = ~dl[:-1]
            applied = int(np.count_nonzero(dl & np.where(head, had_live[group], after_insert)))
            dead[order] = ~dl & (pos < last_del[group])
            ix.dead_delta += int(np.count_nonzero(dead))
            ix.tombstones += n_del
        ins = ~is_del
        ix.d_src = np.concatenate([ix.d_src, part.src[ins]])
        ix.d_dst = np.concatenate([ix.d_dst, part.dst[ins]])
        ix.d_w = np.concatenate([ix.d_w, part.w[ins]])
        ix.d_alive = np.concatenate([ix.d_alive, ~dead[ins]])
        return part.n - n_del, applied, n_del - applied

    def _kill_live(self, i: int, keys: np.ndarray) -> np.ndarray:
        """Kill every live instance of the (ascending, distinct) packed
        ``src * n + dst`` ``keys`` in interval ``i``; returns how many
        instances each key had.

        Base copies are found by gathering each key's row range (rows
        need not be dst-sorted), delta copies by key match.
        """
        ix = self._index[i]
        lo, _ = self.intervals.span(i)
        src, dst = np.divmod(keys, self.n)
        rowptr = self._rowptr_files[i].array
        starts, stops = rowptr[src - lo], rowptr[src - lo + 1]
        pos = flatten_ranges(starts, stops)
        owner = np.repeat(np.arange(keys.size), stops - starts)
        hit = (self._col_files[i].array[pos] == dst[owner]) & ix.base_alive[pos]
        ix.base_alive[pos[hit]] = False
        ix.dead_base += int(np.count_nonzero(hit))
        killed = np.bincount(owner[hit], minlength=keys.size)
        d_key = ix.d_src * self.n + ix.d_dst
        owner = np.minimum(np.searchsorted(keys, d_key), keys.size - 1)
        hit = ix.d_alive & (keys[owner] == d_key)
        ix.d_alive[hit] = False
        ix.dead_delta += int(np.count_nonzero(hit))
        return killed + np.bincount(owner[hit], minlength=keys.size)

    # -- compaction -------------------------------------------------------

    def compact_if_needed(self) -> int:
        """Compact every interval whose garbage fraction crossed the knob."""
        done = 0
        thresh = self.config.stream_compact_threshold
        for i in range(self.intervals.n_intervals):
            ix = self._index[i]
            total = ix.total_records
            if ix.garbage_records and total and ix.garbage_records / total > thresh:
                self._compact(i)
                done += 1
        return done

    def _live_local_edges(self, i: int) -> tuple:
        """One interval's live edges: base order then delta arrival order."""
        ix = self._index[i]
        lo, hi = self.intervals.span(i)
        rowptr = self._rowptr_files[i].array
        col = self._col_files[i].array
        base_src = lo + np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(rowptr))
        alive = ix.base_alive
        return (
            np.concatenate([base_src[alive], ix.d_src[ix.d_alive]]),
            np.concatenate([col[alive].astype(np.int64), ix.d_dst[ix.d_alive]]),
            np.concatenate([self._val_files[i].array[alive], ix.d_w[ix.d_alive]])
            if self.weighted
            else None,
        )

    def _compact(self, i: int) -> None:
        """Rewrite interval ``i``'s survivors as a fresh base CSR.

        Only a fully applied log is compacted.  The old base and the log
        are read before any host state changes, so a crash there leaves
        the old, consistent layout for recovery to replay; after the
        swap the new base holds every survivor and the log is empty.
        """
        log = self._logs[i]
        if self._applied[i] != log.n_pages:
            raise StorageError(f"compacting interval {i} with pending log pages")
        ix = self._index[i]
        lo, hi = self.intervals.span(i)
        dropped = ix.garbage_records
        io_us = self._rowptr_files[i].read_all()
        io_us += self._col_files[i].read_all()
        if self.weighted:
            io_us += self._val_files[i].read_all()
        io_us += self._read_delta(i)
        pages_read = (
            self._rowptr_files[i].n_pages
            + self._col_files[i].n_pages
            + (self._val_files[i].n_pages if self.weighted else 0)
            + log.n_pages
        )
        src, dst, w = self._live_local_edges(i)
        order, new_rowptr = csr_order(src - lo, dst, hi - lo, self.n)
        dst = dst[order]
        self._rowptr_files[i].set_array(new_rowptr)
        self._col_files[i].set_array(dst.astype(np.int32))
        if self.weighted:
            self._val_files[i].set_array(w[order])
        log.truncate()
        self._applied[i] = 0
        self._index[i] = _IntervalIndex(base_alive=np.ones(dst.size, dtype=bool))
        io_us += self._rowptr_files[i].write_all()
        io_us += self._col_files[i].write_all()
        if self.weighted:
            io_us += self._val_files[i].write_all()
        pages_written = (
            self._rowptr_files[i].n_pages
            + self._col_files[i].n_pages
            + (self._val_files[i].n_pages if self.weighted else 0)
        )
        self.compactions += 1
        self.compact_io_us += io_us
        if self.tracer.enabled:
            self.tracer.emit(
                "compaction",
                interval=int(i),
                live=int(dst.size),
                dropped=int(dropped),
                pages_read=int(pages_read),
                pages_written=int(pages_written),
                io_us=io_us,
            )

    # -- reads ------------------------------------------------------------

    def materialize(self) -> CSRGraph:
        """The current live graph as an in-memory CSR.

        Edge ordering is canonical: per interval, base edges (already
        (src, dst)-sorted) before delta inserts in arrival order, then a
        stable global (src, dst) sort -- identical to
        :meth:`CSRGraph.from_edges` over the same host-side edge list,
        which is what the conformance layer checks bit-exactly.
        """
        src, dst, w = [], [], []
        for i in range(self.intervals.n_intervals):
            s, d, x = self._live_local_edges(i)
            src.append(s)
            dst.append(d)
            if self.weighted:
                w.append(x)
        return CSRGraph.from_edges(
            self.n,
            np.concatenate(src) if src else np.empty(0, np.int64),
            np.concatenate(dst) if dst else np.empty(0, np.int64),
            np.concatenate(w) if self.weighted else None,
        )

    def _new_plan(self):
        """One I/O plan per read sweep when the planner is enabled.

        The store's sweeps (cone row reads, the warm-start seed scan)
        are the streaming analog of an engine group load: each is
        charged as one coalesced submission (DESIGN.md §13) when
        ``config.io_plan != "off"``, and per file otherwise.
        """
        if self.config.io_plan == "off":
            return None
        from ..io.plan import IOPlan

        return IOPlan(self.fs.device)

    @staticmethod
    def _execute_plan(plan) -> float:
        if plan is None:
            return 0.0
        return plan.execute().time_us

    def charge_rows(self, vertices: np.ndarray) -> float:
        """Charge reads for the adjacency rows of ``vertices``.

        The incremental path's deletion-cone walk pays for the base CSR
        pages of every row it expands (plus each touched interval's
        delta pages, which hold the rows' overlay edges).
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0:
            return 0.0
        plan = self._new_plan()
        io_us = 0.0
        iv = self.intervals.interval_of(vertices)
        for i in np.unique(iv):
            vs = vertices[iv == i]
            lo, _ = self.intervals.span(i)
            rowptr = self._rowptr_files[i].array
            t, _, _ = self._col_files[i].read_ranges(
                rowptr[vs - lo], rowptr[vs - lo + 1], plan=plan
            )
            io_us += t
            if self.weighted:
                t, _, _ = self._val_files[i].read_ranges(
                    rowptr[vs - lo], rowptr[vs - lo + 1], plan=plan
                )
                io_us += t
            io_us += self._read_delta(i, plan)
        return io_us + self._execute_plan(plan)

    def charge_seed_scan(self) -> float:
        """Charge one sequential sweep of every interval's edges.

        Models the in-edge discovery a warm start performs when the
        batch deleted edges: finding all surviving edges that cross into
        the reset cone requires scanning edge storage once (the store
        keeps no reverse index).
        """
        plan = self._new_plan()
        io_us = 0.0
        for i in range(self.intervals.n_intervals):
            io_us += self._col_files[i].read_all(plan=plan)
            if self.weighted:
                io_us += self._val_files[i].read_all(plan=plan)
            io_us += self._read_delta(i, plan)
        return io_us + self._execute_plan(plan)

    def _read_delta(self, i: int, plan=None) -> float:
        """Charge a read of interval ``i``'s delta log: its log's applied prefix."""
        _, t = self._logs[i].read_pages(np.arange(self._applied[i], dtype=np.int64), plan=plan)
        return t

    # -- recovery ---------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Rebuild a consistent state from flash after a simulated crash.

        1. read the meta log; the last ``ingest``/``applied`` markers
           define the durable sequence frontier;
        2. trim each log's uncommitted suffix (``seq > last_ingested``;
           sequence numbers are monotone per file), including whatever
           prefix of a torn batch write persisted;
        3. replay each log's applied prefix (``seq <= last_applied``)
           over the base CSRs to rebuild the host index -- the same
           deterministic fold :meth:`apply_updates` performed before
           the crash.

        Batches that were ingested but not applied remain pending and
        are merged by the next :meth:`apply_updates`.  Returns the
        frontier and ``pages_dropped``, the log pages trimmed.
        """
        payloads, _ = self._meta.read_all()
        last_ingested = 0
        last_applied = 0
        for p in payloads:
            if p[0] == "ingest":
                last_ingested = max(last_ingested, int(p[1]))
            elif p[0] == "applied":
                last_applied = max(last_applied, int(p[1]))
        if last_applied > last_ingested:
            raise StorageError("stream meta log corrupt: applied ahead of ingested")
        self.last_ingested = last_ingested
        self.last_applied = last_applied
        # Reset every lifetime tally, then replay durable state.
        self.batches_ingested = last_ingested
        self.batches_applied = last_applied
        self.records_ingested = 0
        self.inserts_applied = 0
        self.deletes_applied = 0
        self.noop_deletes = 0
        self.ulog_pages_written = 0
        self.compactions = 0
        self.ingest_io_us = 0.0
        self.apply_io_us = 0.0
        self.compact_io_us = 0.0
        dropped = 0
        for i, log in enumerate(self._logs):
            pages, _ = log.read_all(charge=False)
            keep = _durable(pages, last_ingested)
            dropped += log.n_pages - keep
            log.truncate_to(keep)
            self.ulog_pages_written += keep
            self._applied[i] = _durable(pages[:keep], last_applied)
            self._index[i] = _IntervalIndex(
                base_alive=np.ones(self._col_files[i].array.size, dtype=bool)
            )
            for page in pages[: self._applied[i]]:
                # Page by page: folding a run equals folding its pieces.
                ins, dels, noops = self._apply_rows(i, EdgeDelta(*page[1:]))
                self.inserts_applied += ins
                self.deletes_applied += dels
                self.noop_deletes += noops
        return {
            "last_ingested": last_ingested,
            "last_applied": last_applied,
            "pages_dropped": dropped,
        }
