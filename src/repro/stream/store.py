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
``ingest`` marker) followed by a deterministic batch-by-batch replay of
the applied prefix into the host index -- see
:meth:`StreamStore.recover`.

Host index.  The logs are split by interval for the flash layout; the
host-side index is one structure over all of them (:class:`_HostIndex`:
a base CSR mirror, one delta arena, a sorted key index over the arena,
per-interval tallies), so a merge folds each batch with one call.

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

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..config import SimConfig
from ..core.batch import flatten_ranges
from ..core.update import stable_argsort_bounded
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


def _batch_runs(logs) -> Dict[int, EdgeDelta]:
    """Group log pages by batch: ``seq -> records``.

    ``logs`` gives each log's pages, intervals ascending; a batch's
    records come out interval by interval, each in arrival order.
    """
    runs: Dict[int, list] = {}
    for pages in logs:
        for p in pages:
            runs.setdefault(p[0], []).append(EdgeDelta(*p[1:]))
    return {seq: EdgeDelta.concat(parts) for seq, parts in runs.items()}


@dataclass
class _HostIndex:
    """The store's one host-side index, over every interval at once.

    Purely derived state: :meth:`StreamStore.recover` rebuilds it from
    the base files and the applied log prefix.  The intervals split the
    update logs on flash (paper §V-A); nothing splits the index.

    * A mirror of the base CSR: ``rowptr`` over all vertices, ``col`` /
      ``val`` the intervals' base files concatenated (interval ``i`` at
      ``base_off[i]:base_off[i + 1]``) and ``base_alive`` aligned with
      them.
    * One delta arena of the logged inserts, ``d_*``, ordered by batch,
      then interval, then arrival; ``d_key`` is ``src * n + dst``.
    * ``sk`` / ``sp``: ``d_key`` sorted and the arena positions that
      sort it (a stable argsort), so a delete finds its delta instances
      by binary search.
    * Per-interval tallies, one length-k array each: ``tombstones``,
      ``dead_base``, ``dead_delta`` and ``d_count`` (inserts logged).
    """

    rowptr: np.ndarray
    col: np.ndarray
    val: Optional[np.ndarray]
    base_off: np.ndarray
    base_alive: np.ndarray
    d_src: np.ndarray
    d_dst: np.ndarray
    d_w: np.ndarray
    d_alive: np.ndarray
    d_key: np.ndarray
    sk: np.ndarray
    sp: np.ndarray
    tombstones: np.ndarray
    dead_base: np.ndarray
    dead_delta: np.ndarray
    d_count: np.ndarray

    @classmethod
    def over(cls, rowptrs: list, cols: list, vals: Optional[list]) -> "_HostIndex":
        """A fresh index over the intervals' local base CSRs: every base
        edge alive, the arena empty."""
        k = len(cols)
        base_off = np.zeros(k + 1, dtype=np.int64)
        np.cumsum([c.size for c in cols], out=base_off[1:])
        rowptr = np.concatenate(
            [np.zeros(1, np.int64)] + [r[1:] + off for r, off in zip(rowptrs, base_off)]
        )
        empty = np.empty(0, np.int64)
        return cls(
            rowptr=rowptr,
            col=np.concatenate(cols),
            val=None if vals is None else np.concatenate(vals),
            base_off=base_off,
            base_alive=np.ones(int(base_off[-1]), dtype=bool),
            d_src=empty, d_dst=empty, d_w=np.empty(0, np.float64),
            d_alive=np.empty(0, bool), d_key=empty, sk=empty, sp=empty,
            tombstones=np.zeros(k, np.int64), dead_base=np.zeros(k, np.int64),
            dead_delta=np.zeros(k, np.int64), d_count=np.zeros(k, np.int64),
        )

    def total_records(self) -> np.ndarray:
        """Per interval, records occupying flash: base + inserts + tombstones."""
        return np.diff(self.base_off) + self.d_count + self.tombstones

    def garbage_records(self) -> np.ndarray:
        """Per interval, the records compaction would reclaim."""
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
        self._reset_index()
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
        reg.gauge("stream.garbage_records", lambda: int(self._index.garbage_records().sum()))
        reg.gauge("stream.ingest_io_us", lambda: self.ingest_io_us)
        reg.gauge("stream.apply_io_us", lambda: self.apply_io_us)
        reg.gauge("stream.compact_io_us", lambda: self.compact_io_us)

    def live_edges(self) -> int:
        ix = self._index
        return int(np.count_nonzero(ix.base_alive) + np.count_nonzero(ix.d_alive))

    def live_edge_arrays(self) -> tuple:
        """``(src, dst)`` of every live edge (host-side, for generators).

        Per interval, ascending: its live base edges in base order, then
        its live inserts in arrival order.
        """
        src, dst, _ = self._live()
        order = stable_argsort_bounded(self.intervals.dense[src], self.intervals.n_intervals)
        return src[order], dst[order]

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
        runs, intervals ascending and records in arrival order, folded
        into the host index in one call -- and each is sealed by an
        ``applied`` meta marker, the only page a merge writes: the log
        pages themselves become the delta log.  Compaction runs last,
        once per interval over threshold.

        After a :class:`~repro.errors.SimulatedCrashError` the host
        index may be ahead of or behind flash -- call :meth:`recover`
        before touching the store again.
        """
        pending = [
            (f, np.arange(a, f.n_pages, dtype=np.int64)) for f, a in zip(self._logs, self._applied)
        ]
        read_io = striped_read(pending, KLASS_LOG)
        self.apply_io_us += read_io
        runs = _batch_runs(f.read_pages(ids, charge=False)[0] for f, ids in pending)
        stats = {
            "batches": 0, "inserts": 0, "deletes": 0, "noop_deletes": 0,
            "io_us": read_io, "compactions": 0,
        }
        for seq in range(self.last_applied + 1, self.last_ingested + 1):
            b = self._apply_one(seq, runs.get(seq, EdgeDelta.empty()))
            stats["batches"] += 1
            for k in ("inserts", "deletes", "noop_deletes", "io_us"):
                stats[k] += b[k]
        self._applied = [f.n_pages for f in self._logs]
        stats["compactions"] = self.compact_if_needed()
        return stats

    def _apply_one(self, seq: int, part: EdgeDelta) -> Dict[str, float]:
        ins, dels, noops = self._fold(part)
        out = {"inserts": ins, "deletes": dels, "noop_deletes": noops}
        _, out["io_us"] = self._meta.append_page(("applied", seq), useful_bytes=16)
        self.last_applied = seq
        self.batches_applied += 1
        self.inserts_applied += ins
        self.deletes_applied += dels
        self.noop_deletes += noops
        self.apply_io_us += out["io_us"]
        if self.tracer.enabled:
            self.tracer.emit(
                "ingest_stats",
                phase="apply",
                seq=seq,
                records=part.n,
                inserts=ins,
                deletes=dels,
                noop_deletes=noops,
                pages=0,
                io_us=out["io_us"],
            )
        return out

    def _fold(self, part: EdgeDelta) -> tuple:
        """Fold one batch's records into the host index, whole batch at once.

        ``part`` holds the batch's per-interval runs, intervals
        ascending.  The result is exactly that of applying the records
        one by one in that order, where a delete kills every instance of
        its pair live *at that point* -- base copies, inserts of earlier
        batches and earlier inserts of this one alike.  A ``(src, dst)``
        key lives in one interval, so every key still sees its records
        in arrival order.  Grouping the batch by key (stably, so a group
        keeps arrival order) turns the loop into three rules per key
        that has a delete:

        * every instance live before the batch dies, and so does every
          insert of the batch that precedes the key's *last* delete;
        * a delete is a no-op iff nothing is live when it arrives: it
          heads its group with nothing live beforehand, or it directly
          follows another delete of the key;
        * inserts, dead or alive, are appended in arrival order.

        Returns ``(inserts, deletes, noop_deletes)``.
        """
        ix = self._index
        k = self.intervals.n_intervals
        iv = self.intervals.dense[part.src]
        key = part.src * self.n + part.dst
        is_del = part.op == OP_DELETE
        n_del = int(np.count_nonzero(is_del))
        dead = np.zeros(part.n, dtype=bool)
        applied = 0
        if n_del:
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
            had_live[has_del] = self._kill_live(ks[starts[has_del]]) > 0
            after_insert = np.zeros(part.n, dtype=bool)  # previous record of the key is one
            after_insert[1:] = ~dl[:-1]
            applied = int(np.count_nonzero(dl & np.where(head, had_live[group], after_insert)))
            dead[order] = ~dl & (pos < last_del[group])
            ix.dead_delta += np.bincount(iv[dead], minlength=k)
            ix.tombstones += np.bincount(iv[is_del], minlength=k)
        ins = ~is_del
        n_ins = part.n - n_del
        if n_ins:
            # Merge-insert the new keys into the sorted key index: after
            # every equal key already there, in arrival order.
            new_key = key[ins]
            order = np.argsort(new_key, kind="stable")
            at = np.searchsorted(ix.sk, new_key[order], side="right")
            ix.sk = np.insert(ix.sk, at, new_key[order])
            ix.sp = np.insert(ix.sp, at, ix.d_key.size + order)
            ix.d_src = np.concatenate([ix.d_src, part.src[ins]])
            ix.d_dst = np.concatenate([ix.d_dst, part.dst[ins]])
            ix.d_w = np.concatenate([ix.d_w, part.w[ins]])
            ix.d_alive = np.concatenate([ix.d_alive, ~dead[ins]])
            ix.d_key = np.concatenate([ix.d_key, new_key])
            ix.d_count += np.bincount(iv[ins], minlength=k)
        return n_ins, applied, n_del - applied

    def _kill_live(self, keys: np.ndarray) -> np.ndarray:
        """Kill every live instance of the (ascending, distinct) packed
        ``src * n + dst`` ``keys``; returns how many instances each key had.

        Base copies are found by gathering each key's row range (rows
        need not be dst-sorted), delta copies by binary search in the
        sorted key index.
        """
        ix = self._index
        k = self.intervals.n_intervals
        src, dst = np.divmod(keys, self.n)
        key_iv = self.intervals.dense[src]
        starts, stops = ix.rowptr[src], ix.rowptr[src + 1]
        pos = flatten_ranges(starts, stops)
        owner = np.repeat(np.arange(keys.size), stops - starts)
        hit = (ix.col[pos] == dst[owner]) & ix.base_alive[pos]
        ix.base_alive[pos[hit]] = False
        ix.dead_base += np.bincount(key_iv[owner[hit]], minlength=k)
        killed = np.bincount(owner[hit], minlength=keys.size)
        starts = np.searchsorted(ix.sk, keys, side="left")
        stops = np.searchsorted(ix.sk, keys, side="right")
        pos = ix.sp[flatten_ranges(starts, stops)]
        owner = np.repeat(np.arange(keys.size), stops - starts)
        hit = ix.d_alive[pos]
        ix.d_alive[pos[hit]] = False
        ix.dead_delta += np.bincount(key_iv[owner[hit]], minlength=k)
        return killed + np.bincount(owner[hit], minlength=keys.size)

    # -- compaction -------------------------------------------------------

    def compact_if_needed(self) -> int:
        """Compact every interval whose garbage fraction crossed the knob."""
        ix = self._index
        garbage, total = ix.garbage_records(), ix.total_records()
        thresh = self.config.stream_compact_threshold
        done = np.flatnonzero((garbage > 0) & (garbage / np.maximum(total, 1) > thresh)).tolist()
        for i in done:
            self._compact(i)
        return len(done)

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
        lo, hi = self.intervals.span(i)
        dropped = int(self._index.garbage_records()[i])
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
        src, dst, w = self._live(i)
        order, new_rowptr = csr_order(src - lo, dst, hi - lo, self.n)
        col = dst[order].astype(np.int32)
        val = w[order] if self.weighted else None
        self._rowptr_files[i].set_array(new_rowptr)
        self._col_files[i].set_array(col)
        if self.weighted:
            self._val_files[i].set_array(val)
        log.truncate()
        self._applied[i] = 0
        self._splice(i, new_rowptr, col, val)
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
                live=int(col.size),
                dropped=dropped,
                pages_read=int(pages_read),
                pages_written=int(pages_written),
                io_us=io_us,
            )

    def _splice(self, i: int, rowptr: np.ndarray, col: np.ndarray, val) -> None:
        """Swap interval ``i``'s new base into the index and drop its arena
        entries and tallies."""
        ix = self._index
        lo, hi = self.intervals.span(i)
        a, b = ix.base_off[i], ix.base_off[i + 1]
        shift = col.size - (b - a)
        ix.rowptr = np.concatenate(
            [ix.rowptr[: lo + 1], rowptr[1:] + a, ix.rowptr[hi + 1 :] + shift]
        )
        ix.col = np.concatenate([ix.col[:a], col, ix.col[b:]])
        if val is not None:
            ix.val = np.concatenate([ix.val[:a], val, ix.val[b:]])
        alive = np.ones(col.size, dtype=bool)
        ix.base_alive = np.concatenate([ix.base_alive[:a], alive, ix.base_alive[b:]])
        ix.base_off[i + 1 :] += shift
        keep = self.intervals.dense[ix.d_src] != i
        if not keep.all():
            # Filtering a stable argsort keeps it one; renumber positions.
            at = np.cumsum(keep) - 1
            sk_keep = keep[ix.sp]
            ix.sk, ix.sp = ix.sk[sk_keep], at[ix.sp[sk_keep]]
            ix.d_src, ix.d_dst, ix.d_w = ix.d_src[keep], ix.d_dst[keep], ix.d_w[keep]
            ix.d_alive, ix.d_key = ix.d_alive[keep], ix.d_key[keep]
        for tally in (ix.tombstones, ix.dead_base, ix.dead_delta, ix.d_count):
            tally[i] = 0

    # -- reads ------------------------------------------------------------

    def _live(self, i: Optional[int] = None) -> tuple:
        """Live edges, ``(src, dst, w|None)``, of interval ``i`` or of all:
        base edges in base order, then inserts in arena order."""
        ix = self._index
        first, last = (0, self.intervals.n_intervals) if i is None else (i, i + 1)
        lo, hi = self.intervals.span(first)[0], self.intervals.span(last - 1)[1]
        a, b = ix.base_off[first], ix.base_off[last]
        base_src = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(ix.rowptr[lo : hi + 1]))
        base = np.flatnonzero(ix.base_alive[a:b])
        delta = ix.d_alive if i is None else ix.d_alive & (self.intervals.dense[ix.d_src] == i)
        delta = np.flatnonzero(delta)
        return (
            np.concatenate([base_src[base], ix.d_src[delta]]),
            np.concatenate([ix.col[a:b][base].astype(np.int64), ix.d_dst[delta]]),
            np.concatenate([ix.val[a:b][base], ix.d_w[delta]]) if self.weighted else None,
        )

    def materialize(self) -> CSRGraph:
        """The current live graph as an in-memory CSR.

        Edge ordering is canonical: a stable global (src, dst) sort of
        the live edges, each key's base copies before its inserts in
        arrival order -- identical to :meth:`CSRGraph.from_edges` over
        the same host-side edge list, which is what the conformance
        layer checks bit-exactly.
        """
        return CSRGraph.from_edges(self.n, *self._live())

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

    def _reset_index(self) -> None:
        """A fresh host index over the base files."""
        self._index = _HostIndex.over(
            [f.array for f in self._rowptr_files],
            [f.array for f in self._col_files],
            [f.array for f in self._val_files] if self.weighted else None,
        )

    def recover(self) -> Dict[str, int]:
        """Rebuild a consistent state from flash after a simulated crash.

        1. read the meta log; the last ``ingest``/``applied`` markers
           define the durable sequence frontier;
        2. trim each log's uncommitted suffix (``seq > last_ingested``;
           sequence numbers are monotone per file), including whatever
           prefix of a torn batch write persisted;
        3. rebuild the host index over the base CSRs and replay the
           applied prefix (``seq <= last_applied``) batch by batch
           through the same fold :meth:`apply_updates` performed before
           the crash, so the arena comes back in the same order.

        The tallies are recounted from what survives: every record on
        the kept log pages is ingested, and those of the applied prefix
        are merged, so ``merged + pending == records_ingested``.

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
        applied = []
        for i, log in enumerate(self._logs):
            pages, _ = log.read_all(charge=False)
            keep = _durable(pages, last_ingested)
            dropped += log.n_pages - keep
            log.truncate_to(keep)
            self.ulog_pages_written += keep
            self.records_ingested += sum(len(p[1]) for p in pages[:keep])
            self._applied[i] = _durable(pages[:keep], last_applied)
            applied.append(pages[: self._applied[i]])
        self._reset_index()
        runs = _batch_runs(applied)
        for seq in sorted(runs):
            ins, dels, noops = self._fold(runs[seq])
            self.inserts_applied += ins
            self.deletes_applied += dels
            self.noop_deletes += noops
        return {
            "last_ingested": last_ingested,
            "last_applied": last_applied,
            "pages_dropped": dropped,
        }
