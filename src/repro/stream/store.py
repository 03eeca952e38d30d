"""The on-flash evolving-graph store: base CSR per interval + one update log.

Layout (DESIGN.md §12).

* ``stream.i{i}.rowptr/.col/.val`` -- interval ``i``'s *base* CSR
  (:class:`~repro.ssd.file.ArrayFile`, page-exact charging), rebuilt at
  compaction.  A rebuilt base's header records ``through_seq``, the
  last batch it absorbed, and the lifetime tallies of the records it
  absorbed (:data:`ABSORBED`).
* ``stream.log`` -- one append-only :class:`PageFile` of update
  records, striped over every channel.  ``ingest`` sorts a batch by
  source interval (stably: each interval's run keeps arrival order),
  packs it densely, :data:`RECORD_BYTES` a record behind a
  :data:`LOG_HEADER_BYTES` header, and writes it as **one** striped
  write.  Each page's header is ``(seq, pages_in_batch,
  applied_through)``.

Commit protocol.  A batch is committed once all of its pages are
durable -- there is no commit page.  A torn write leaves part of the
last batch as a suffix of the log, which recovery trims.  The
``applied`` mark rides on the next write: the next ingest's headers
carry ``applied_through``, and a compaction's new base carries its
``through_seq``, set in the same host step as the base array.  A lost
mark only means the batch is pending again after :meth:`recover`, and
the next :meth:`~StreamStore.apply_updates` folds it once.

Host index.  One structure over every interval (:class:`_HostIndex`: a
base CSR mirror, one delta arena, a sorted key index over each of the
two, per-interval tallies, and per interval the ids of the log pages
that hold its applied records no base has absorbed yet), so a merge
folds each batch with one call and a sweep reads each log page once.

Change record.  Every fold also records what it changed, signed per
edge identity, so a recompute takes the net edge delta since the last
one from the store (:meth:`StreamStore.take_changes`) instead of
diffing two whole graphs.

Compaction.  A delete leaves its victim's bytes on flash (dead base or
logged records) plus its own tombstone record.  When that garbage
exceeds ``SimConfig.stream_compact_threshold`` of an interval's
records, the interval is compacted: surviving edges are read and
rewritten as a fresh base CSR that absorbs the interval's log records.
The reads happen *before* the host-state swap, and the swap is a free
host operation after which durable state is already consistent.  Once
every record on the log is absorbed, the log is trimmed whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..config import SimConfig
from ..core.batch import flatten_ranges
from ..core.update import stable_argsort_bounded
from ..errors import StorageError
from ..graph.csr import CSRGraph, csr_order
from ..graph.partition import VertexIntervals, static_partition
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..ssd.filesystem import SimFS
from .delta import OP_DELETE, RECORD_BYTES, EdgeDelta

#: Storage classes of the stream store's files.
KLASS_ROW = "stream_row"
KLASS_COL = "stream_col"
KLASS_VAL = "stream_val"
KLASS_LOG = "ulog"

#: Bytes of a log page's header: seq (8) + pages_in_batch (4) +
#: applied_through (8).  A 4 KiB page holds 163 records behind it.
LOG_HEADER_BYTES = 20

#: The lifetime tallies a rebuilt base's header carries, per interval:
#: those of the log records it absorbed, and how often it was rebuilt.
ABSORBED = ("records_ingested", "inserts_applied", "deletes_applied", "noop_deletes", "compactions")


class LogPage(NamedTuple):
    """One ``stream.log`` page: its header, then its record columns."""

    seq: int
    pages_in_batch: int
    applied_through: int
    op: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    ts: np.ndarray

    def records(self) -> EdgeDelta:
        return EdgeDelta(self.op, self.src, self.dst, self.w, self.ts)


def _committed(pages: List[LogPage]) -> int:
    """How many leading log pages belong to batches whose every page is
    on the log; the rest is the part of a torn batch that persisted."""
    at = 0
    while at < len(pages) and at + pages[at].pages_in_batch <= len(pages):
        at += pages[at].pages_in_batch
    return at


def _sorted_keys(rowptr: np.ndarray, col: np.ndarray, lo: int, n: int) -> tuple:
    """The packed ``src * n + col`` keys of a CSR block whose first row is
    vertex ``lo``, sorted, and the stable argsort that sorts them."""
    src = np.repeat(np.arange(lo, lo + rowptr.size - 1, dtype=np.int64), np.diff(rowptr))
    keys = src * n + col
    order = np.argsort(keys, kind="stable")
    return keys[order], order


@dataclass
class _HostIndex:
    """The store's one host-side index, over every interval at once.

    Purely derived state: :meth:`StreamStore.recover` rebuilds it from
    the base files and the log's applied records.

    * A mirror of the base CSR: ``rowptr`` over all vertices, ``col`` /
      ``val`` the intervals' base files concatenated (interval ``i`` at
      ``base_off[i]:base_off[i + 1]``) and ``base_alive`` aligned with
      them.
    * One delta arena of the logged inserts, ``d_*``, ordered by batch,
      then interval, then arrival; ``d_key`` is ``src * n + dst``.
    * ``sk`` / ``sp``: ``d_key`` sorted and the arena positions that
      sort it (a stable argsort), so a delete finds its delta instances
      by binary search.
    * ``bk`` / ``bp``: the same over the mirror -- its keys
      ``src * n + col`` sorted and the positions that sort them (a
      stable argsort; rows need not be dst-sorted), so a delete finds
      its base copies by binary search too.  Interval ``i``'s keys are
      the block ``base_off[i]:base_off[i + 1]`` of ``bk``.
    * Per-interval tallies, one length-k array each: ``tombstones``,
      ``dead_base``, ``dead_delta``, ``d_count`` (inserts logged) and
      ``noops`` (tombstones that killed nothing).
    * ``pages``: per interval, the ascending ids of the log pages that
      hold its applied records its base has not absorbed (its delta
      log).
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
    bk: np.ndarray
    bp: np.ndarray
    tombstones: np.ndarray
    dead_base: np.ndarray
    dead_delta: np.ndarray
    d_count: np.ndarray
    noops: np.ndarray
    pages: List[List[int]]

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
        col = np.concatenate(cols)
        bk, bp = _sorted_keys(rowptr, col, 0, rowptr.size - 1)
        empty = np.empty(0, np.int64)
        return cls(
            rowptr=rowptr,
            col=col,
            val=None if vals is None else np.concatenate(vals),
            base_off=base_off,
            base_alive=np.ones(int(base_off[-1]), dtype=bool),
            d_src=empty, d_dst=empty, d_w=np.empty(0, np.float64),
            d_alive=np.empty(0, bool), d_key=empty, sk=empty, sp=empty, bk=bk, bp=bp,
            tombstones=np.zeros(k, np.int64), dead_base=np.zeros(k, np.int64),
            dead_delta=np.zeros(k, np.int64), d_count=np.zeros(k, np.int64),
            noops=np.zeros(k, np.int64), pages=[[] for _ in range(k)],
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
        # No affinity hint: the one log stripes over every device.
        self._log = fs.create_page_file(f"{name}.log", KLASS_LOG)
        k = intervals.n_intervals
        #: The rebuilt bases' headers (durable with the base arrays):
        #: per interval the last batch absorbed and the ABSORBED tallies.
        self._through_seq = np.zeros(k, np.int64)
        self._absorbed = np.zeros((k, len(ABSORBED)), np.int64)
        self._reset_index()
        self.records_per_page = max(1, (config.ssd.page_size - LOG_HEADER_BYTES) // RECORD_BYTES)
        # Commit-point state: the log's headers and the bases' through_seq.
        self.last_ingested = 0
        self.last_applied = 0
        #: Id of the first log page of a batch not yet applied.
        self._pending_from = 0
        # Lifetime tallies behind the ``stream.*`` gauges.  Recovery
        # resets the record and batch tallies to the durable state's
        # replay; the device-work ones (log pages written, I/O time)
        # keep counting across it, as the device's own stats do.
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
        self._clear_changes()
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
        # Always 0: a merge writes no delta copy, the applied log records
        # are the delta log.  Kept registered for readers keyed on it.
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
        """Append one update batch to the log (durable).

        The batch is sorted by source interval, stably, packed densely
        and written as **one** striped write -- the multi-log's
        concurrent eviction (paper §V-A3).  It is committed --
        guaranteed to survive a crash -- once the write lands; every
        page header carries the batch's page count, so after a torn
        write :meth:`recover` finds the batch incomplete and drops it.
        An empty batch is one header-only page.  The headers also carry
        ``last_applied``: this write is the previous merge's mark.
        """
        delta.validate(self.n)
        seq = self.last_ingested + 1
        part = delta.sorted_by_interval(self.intervals)
        rpp = self.records_per_page
        cuts = range(0, max(part.n, 1), rpp)
        columns = (part.op, part.src, part.dst, part.w, part.ts)
        payloads = [
            LogPage(seq, len(cuts), self.last_applied, *(c[at : at + rpp] for c in columns))
            for at in cuts
        ]
        useful = [(min(at + rpp, part.n) - at) * RECORD_BYTES for at in cuts]
        _, io_us = self._log.append_pages(payloads, useful)
        pages = len(payloads)
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

        The log's pending pages are read back as **one** batch.
        Batches then merge in sequence order -- each one's per-interval
        runs, intervals ascending and records in arrival order, folded
        into the host index in one call.  A merge writes nothing: the
        log pages become the delta log, and the ``applied`` mark rides
        on the next write.  Compaction runs last, once per interval
        over threshold.

        After a :class:`~repro.errors.SimulatedCrashError` the host
        index may be ahead of or behind flash -- call :meth:`recover`
        before touching the store again.
        """
        ids = np.arange(self._pending_from, self._log.n_pages, dtype=np.int64)
        pages, read_io = self._log.read_pages(ids)
        self.apply_io_us += read_io
        stats = {
            "batches": 0, "inserts": 0, "deletes": 0, "noop_deletes": 0,
            "io_us": read_io, "compactions": 0,
        }
        at = 0
        for seq in range(self.last_applied + 1, self.last_ingested + 1):
            batch = pages[at : at + pages[at].pages_in_batch]
            ins, dels, noops = self._fold(EdgeDelta.concat(p.records() for p in batch))
            self._note_pages(ids[at : at + len(batch)], batch)
            at += len(batch)
            self.last_applied = seq
            self.batches_applied += 1
            self.inserts_applied += ins
            self.deletes_applied += dels
            self.noop_deletes += noops
            stats["batches"] += 1
            stats["inserts"] += ins
            stats["deletes"] += dels
            stats["noop_deletes"] += noops
            if self.tracer.enabled:
                self.tracer.emit(
                    "ingest_stats",
                    phase="apply",
                    seq=seq,
                    records=sum(p.op.size for p in batch),
                    inserts=ins,
                    deletes=dels,
                    noop_deletes=noops,
                    pages=len(batch),
                )
        self._pending_from = self._log.n_pages
        stats["compactions"] = self.compact_if_needed()
        return stats

    def _note_pages(self, ids: np.ndarray, pages: List[LogPage]) -> None:
        """Add each applied page to the delta log of every interval with
        records on it that its base has not absorbed."""
        ix = self._index
        for pid, p in zip(ids.tolist(), pages):
            for i in np.unique(self.intervals.dense[p.src]).tolist():
                if p.seq > self._through_seq[i]:
                    ix.pages[i].append(pid)

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
            noop = dl & ~np.where(head, had_live[group], after_insert)
            applied = n_del - int(np.count_nonzero(noop))
            dead[order] = ~dl & (pos < last_del[group])
            ix.dead_delta += np.bincount(iv[dead], minlength=k)
            ix.tombstones += np.bincount(iv[is_del], minlength=k)
            ix.noops += np.bincount(iv[order][noop], minlength=k)
        ins = ~is_del
        n_ins = part.n - n_del
        # An insert that dies on arrival nets to zero (+1, -1): unrecorded.
        survives = ins & ~dead
        self._record(key[survives], part.w[survives], +1)
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

        Base copies and delta copies alike are found by binary search,
        in ``bk`` and in ``sk``; each kill is recorded as a change.
        """
        ix = self._index
        k = self.intervals.n_intervals
        key_iv = self.intervals.dense[keys // self.n]
        killed = np.zeros(keys.size, dtype=np.int64)
        for sk, sp, alive, dead, w in (
            (ix.bk, ix.bp, ix.base_alive, ix.dead_base, ix.val),
            (ix.sk, ix.sp, ix.d_alive, ix.dead_delta, ix.d_w),
        ):
            starts = np.searchsorted(sk, keys, side="left")
            stops = np.searchsorted(sk, keys, side="right")
            pos = sp[flatten_ranges(starts, stops)]
            owner = np.repeat(np.arange(keys.size), stops - starts)
            hit = alive[pos]
            pos, owner = pos[hit], owner[hit]
            alive[pos] = False
            dead += np.bincount(key_iv[owner], minlength=k)
            killed += np.bincount(owner, minlength=keys.size)
            self._record(keys[owner], None if w is None else w[pos], -1)
        return killed

    # -- change record ----------------------------------------------------

    def _record(self, keys: np.ndarray, w: Optional[np.ndarray], sign: int) -> None:
        """Record ``sign`` (+1 insert, -1 kill) for each edge ``(key, w)``.

        An unweighted store keys identities on ``src * n + dst`` alone: a
        logged insert carries ``w = 1.0``, a base edge no weight at all.
        """
        if keys.size:
            self._changes.append((keys, w if self.weighted else None, sign))
            self._net += sign * keys.size

    def _clear_changes(self) -> None:
        """Start an empty change record at the current live graph."""
        self._changes = []
        self._net = 0
        self._live_at_take = self.live_edges()

    def take_changes(self) -> tuple:
        """The net edge delta since the previous take, and a fresh record.

        Returns ``(del_src, del_dst, ins_src, ins_dst, ins_w)``: one
        representative per edge identity ``(src, dst[, w])`` whose
        multiplicity in the live graph dropped (deleted) or grew
        (inserted), ascending by identity; ``ins_w`` is None when
        unweighted.  A multiplicity moves by exactly the inserts minus
        the kills of its identity, and compaction moves none, so this is
        the multiset difference of the two materialised graphs, element
        for element -- at a cost proportional to the records folded, not
        to the graph.

        Raises :class:`~repro.errors.StorageError` when ``live_edges()``
        moved by anything but the record's net signed count.
        """
        live = self.live_edges()
        if live - self._live_at_take != self._net:
            raise StorageError(
                f"stream change record drifted: live edges moved by "
                f"{live - self._live_at_take}, the record nets {self._net}"
            )
        parts = self._changes
        self._clear_changes()
        key = np.concatenate([np.empty(0, np.int64)] + [p[0] for p in parts])
        sign = np.concatenate([np.empty(0, np.int64)] + [np.full(p[0].size, p[2]) for p in parts])
        if self.weighted:
            w = np.concatenate([np.empty(0)] + [p[1] for p in parts])
        else:
            w = np.zeros(key.size)
        # Sort by identity, then sum the signs of each identity's run.
        order = np.lexsort((w, key))
        key, w, sign = key[order], w[order], sign[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = (key[1:] != key[:-1]) | (w[1:] != w[:-1])
        starts = np.flatnonzero(first)
        net = np.add.reduceat(sign, starts) if key.size else sign
        src, dst = np.divmod(key[starts], self.n)
        w = w[starts]
        gone, new = net < 0, net > 0
        return src[gone], dst[gone], src[new], dst[new], (w[new] if self.weighted else None)

    # -- compaction -------------------------------------------------------

    def compact_if_needed(self) -> int:
        """Compact every interval whose garbage fraction crossed the knob.

        When no interval has a log record left that its base has not
        absorbed, the log is trimmed whole (free, like any trim).  The
        bases compacted here absorbed every batch, so their
        ``through_seq`` keeps the sequence frontier.
        """
        ix = self._index
        garbage, total = ix.garbage_records(), ix.total_records()
        thresh = self.config.stream_compact_threshold
        done = np.flatnonzero((garbage > 0) & (garbage / np.maximum(total, 1) > thresh)).tolist()
        for i in done:
            self._compact(i)
        if done and not any(ix.pages):
            self._log.truncate()
            self._pending_from = 0
        return len(done)

    def _compact(self, i: int) -> None:
        """Rewrite interval ``i``'s survivors as a fresh base CSR.

        Only a fully applied log is compacted.  The old base and the
        interval's log pages are read before any host state changes, so
        a crash there leaves the old, consistent layout for recovery to
        replay.  The new base and its header -- ``through_seq`` and the
        absorbed tallies -- are set in one host step; from then on
        recovery skips the interval's log records up to ``through_seq``.
        """
        if self._pending_from != self._log.n_pages:
            raise StorageError(f"compacting interval {i} with pending log pages")
        ix = self._index
        lo, hi = self.intervals.span(i)
        dropped = int(ix.garbage_records()[i])
        io_us = self._rowptr_files[i].read_all()
        io_us += self._col_files[i].read_all()
        if self.weighted:
            io_us += self._val_files[i].read_all()
        io_us += self._read_delta([i])
        pages_read = (
            self._rowptr_files[i].n_pages
            + self._col_files[i].n_pages
            + (self._val_files[i].n_pages if self.weighted else 0)
            + len(ix.pages[i])
        )
        src, dst, w = self._live(i)
        order, new_rowptr = csr_order(src - lo, dst, hi - lo, self.n)
        col = dst[order].astype(np.int32)
        val = w[order] if self.weighted else None
        self._rowptr_files[i].set_array(new_rowptr)
        self._col_files[i].set_array(col)
        if self.weighted:
            self._val_files[i].set_array(val)
        inserts, tombstones, noops = int(ix.d_count[i]), int(ix.tombstones[i]), int(ix.noops[i])
        self._absorbed[i] += (inserts + tombstones, inserts, tombstones - noops, noops, 1)
        self._through_seq[i] = self.last_applied
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
        entries, tallies and delta log."""
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
        # The interval's keys are one block of bk: swap it, shift the rest.
        bk, order = _sorted_keys(rowptr, col, lo, self.n)
        ix.bk = np.concatenate([ix.bk[:a], bk, ix.bk[b:]])
        ix.bp = np.concatenate([ix.bp[:a], a + order, ix.bp[b:] + shift])
        ix.base_off[i + 1 :] += shift
        keep = self.intervals.dense[ix.d_src] != i
        if not keep.all():
            # Filtering a stable argsort keeps it one; renumber positions.
            at = np.cumsum(keep) - 1
            sk_keep = keep[ix.sp]
            ix.sk, ix.sp = ix.sk[sk_keep], at[ix.sp[sk_keep]]
            ix.d_src, ix.d_dst, ix.d_w = ix.d_src[keep], ix.d_dst[keep], ix.d_w[keep]
            ix.d_alive, ix.d_key = ix.d_alive[keep], ix.d_key[keep]
        for tally in (ix.tombstones, ix.dead_base, ix.dead_delta, ix.d_count, ix.noops):
            tally[i] = 0
        ix.pages[i] = []

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
        pages of every row it expands, plus the delta log of every
        touched interval, which holds the rows' overlay edges.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0:
            return 0.0
        plan = self._new_plan()
        io_us = 0.0
        iv = self.intervals.interval_of(vertices)
        touched = np.unique(iv)
        for i in touched:
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
        io_us += self._read_delta(touched.tolist(), plan)
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
        io_us += self._read_delta(range(self.intervals.n_intervals), plan)
        return io_us + self._execute_plan(plan)

    def _read_delta(self, intervals, plan=None) -> float:
        """Charge one read of the delta logs of ``intervals``: each log
        page holding any of their applied records, once."""
        ids = sorted(set().union(*(self._index.pages[i] for i in intervals)))
        _, t = self._log.read_pages(np.array(ids, dtype=np.int64), plan=plan)
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

        1. read the log and trim the pages of an incomplete batch -- the
           part of a torn write that persisted, always a suffix;
        2. the durable frontier: ``last_ingested`` is the last committed
           batch, ``last_applied`` the newest ``applied_through`` on the
           log; the bases' ``through_seq`` bound both from below (an
           empty log was trimmed after every batch was absorbed);
        3. rebuild the host index over the base files and replay the
           applied batches (``seq <= last_applied``) one by one through
           the same fold :meth:`apply_updates` performed, each skipping
           interval ``i``'s records up to its ``through_seq[i]``, so the
           arena comes back in the same order.

        The record tallies are the bases' absorbed ones plus a recount
        of the records they did not absorb: every such record on the
        log is ingested, and those of the applied batches are merged, so
        ``merged + pending == records_ingested``.  ``ulog_pages_written``
        and the ``*_io_us`` tallies are left as they are: they count
        device work done before the cut, which a crash does not undo.

        Batches committed but not applied -- a merge whose mark never
        reached flash included -- are merged by the next
        :meth:`apply_updates`.  Returns the frontier and
        ``pages_dropped``, the log pages trimmed.
        """
        pages, _ = self._log.read_all(charge=False)
        keep = _committed(pages)
        dropped = len(pages) - keep
        self._log.truncate_to(keep)
        pages = pages[:keep]
        floor = int(self._through_seq.max())
        last_ingested = max(pages[-1].seq if pages else 0, floor)
        last_applied = max(pages[-1].applied_through if pages else 0, floor)
        if last_applied > last_ingested:
            raise StorageError("stream log corrupt: applied ahead of ingested")
        self.last_ingested = last_ingested
        self.last_applied = last_applied
        self._pending_from = next(
            (pid for pid, p in enumerate(pages) if p.seq > last_applied), keep
        )
        # Reset the record tallies to the bases' absorbed ones, then
        # recount what they did not absorb.
        for name, total in zip(ABSORBED, self._absorbed.sum(axis=0).tolist()):
            setattr(self, name, total)
        self.batches_ingested = last_ingested
        self.batches_applied = last_applied
        self._reset_index()
        runs: Dict[int, list] = {}
        for pid, p in enumerate(pages):
            live = p.seq > self._through_seq[self.intervals.dense[p.src]]
            self.records_ingested += int(np.count_nonzero(live))
            if p.seq <= last_applied:
                runs.setdefault(p.seq, []).append(p.records().take(live))
        for seq, parts in runs.items():
            ins, dels, noops = self._fold(EdgeDelta.concat(parts))
            self.inserts_applied += ins
            self.deletes_applied += dels
            self.noop_deletes += noops
        applied = self._pending_from
        self._note_pages(np.arange(applied, dtype=np.int64), pages[:applied])
        self._clear_changes()
        return {
            "last_ingested": last_ingested,
            "last_applied": last_applied,
            "pages_dropped": dropped,
        }
