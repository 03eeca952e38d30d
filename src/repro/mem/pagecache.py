"""Budgeted DRAM page cache over the simulated SSD (DESIGN.md §10).

Real out-of-core frameworks get much of their performance from a host
buffer cache between the engine and flash: FlashGraph's SAFS user-space
page cache is the centerpiece of its SSD-array design, and GraphMP keeps
hot graph data in memory with a vertex-centric sliding window.  This
module is the equivalent for the simulation: a deterministic,
budget-capped cache of *(file name, page id)* keys with CLOCK eviction.

The cache stores **no payload bytes** -- data already lives in host
arrays (see :mod:`repro.ssd.file`); what it changes is *charging*.  The
file layer consults the cache on reads and charges the device only for
the missed pages, and admits pages on writes (write-allocate) so the
multi-log's write-then-read-once traffic is served from DRAM.

Writes of most classes are charged in full when they happen
(write-through), so the stream store's update log, the CSR image and
checkpoints keep their torn-write and crash semantics.  The two scratch
classes of :data:`WRITEBACK_KLASSES` are *write-back*: a striped write
of them is admitted as one **dirty batch** and not charged.  When CLOCK
picks any dirty page as its victim, every still-dirty page of that
page's batch goes to the device as one write batch and turns clean, so
a batch is written at most once, with no more pages than it deferred,
and never costs more than write-through did.  A dirty page that
:meth:`PageCache.invalidate_file` drops (the log was consumed or
truncated) is never charged.  The engine writes every dirty batch back
(:meth:`PageCache.flush`) before a checkpoint, so a checkpoint's
"flushed log pages are durable" contract still holds; dirty pages left
when a run ends are discarded with the logs and never charged.

Determinism: every access mutates the CLOCK state, so hit patterns
depend on access *order*.  Every engine is single-threaded and walks
its groups in one fixed order, which makes hit/miss sequences -- and
therefore stats and traces -- reproducible run over run.

The cache is device-array-agnostic (DESIGN.md §14): keys are
*(file name, page id)*, placement never enters the eviction state, so
hit/miss sequences -- and therefore canonical charging -- are identical
at any ``num_devices``.  Only the *missed* pages reach the device, and
they carry their device ids from the file layer; a written-back batch
carries the channel and device vectors its deferred write had.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, StorageError
from ..obs.overlay import Overlay

#: Storage classes that bypass the cache entirely.  Checkpoint payloads
#: are written once per cut and read only during recovery -- caching
#: them would only flood the CLOCK ring -- and ``retry`` records are
#: zero-page backoff accounting, not data.
UNCACHED_KLASSES = frozenset({"ckpt", "retry"})

#: Storage classes the cache writes back instead of through.  Both are
#: write-then-read-once scratch logs -- the multi-log is written in
#: superstep s, consumed in s + 1 and truncated; the edge log lives one
#: superstep -- and both are rebuilt from the last checkpoint, whose
#: ``export_state`` carries their pages.
WRITEBACK_KLASSES = frozenset({"mlog", "edgelog"})


class _DirtyBatch:
    """One deferred striped write: its pages and how to write them back.

    Page ``j`` is the ``j``-th page of ``parts`` (``(file name, page
    ids)`` in write order).  ``pending[j]`` is True while that page is
    neither written back nor dropped; ``left`` counts those pages.
    """

    __slots__ = ("device", "klass", "parts", "channels", "devices", "pending", "left")

    def __init__(self, device, klass: str, parts, channels: np.ndarray, devices) -> None:
        self.device = device
        self.klass = klass
        self.parts: List[Tuple[str, np.ndarray]] = parts
        self.channels = channels
        self.devices: Optional[np.ndarray] = devices
        self.left = int(channels.shape[0])
        self.pending = [True] * self.left

    def keys(self):
        """``(file name, page id)`` of page ``j``, in ``j`` order."""
        return [(name, p) for name, ids in self.parts for p in ids.tolist()]


class PageCache(Overlay):
    """Deterministic CLOCK page cache keyed by ``(file name, page id)``.

    Parameters
    ----------
    capacity_pages:
        Hard budget in pages; the cache never holds more entries.
    name:
        Label used for metric names (default ``"cache"``).

    Notes
    -----
    Pinned pages are skipped by the CLOCK hand and can never be evicted;
    if every frame is pinned, new admissions are rejected (counted in
    ``rejected``) rather than over-running the budget -- a dirty page
    that cannot be held forces its batch out.  Counters are monotonic
    for the cache's lifetime -- :meth:`clear` drops the cached
    *contents* (crash/resume, checkpoint cuts) but not the tallies, so
    per-run trace streams stay non-decreasing; as an overlay they are
    checkpointed and restored with the run.  Every page admitted dirty
    is, at any moment, written back (``writeback_pages``), dropped
    unwritten (``dropped_dirty_pages``) or still dirty
    (:attr:`dirty_pages`).
    """

    trace_kind = "cache_stats"
    STATE = (
        "hits", "misses", "evictions", "insertions", "invalidations", "rejected",
        "writeback_batches", "writeback_pages", "dropped_dirty_pages",
    )

    def __init__(self, capacity_pages: int, name: str = "cache") -> None:
        if capacity_pages <= 0:
            raise ConfigError(f"cache capacity must be positive, got {capacity_pages}")
        self.capacity = int(capacity_pages)
        self.name = name
        # CLOCK ring: parallel slot arrays + a two-level key map
        # (file name -> {page id -> slot}) so whole-file invalidation is
        # one dict pop instead of a full-ring scan.
        self._keys: List[Optional[Tuple[str, int]]] = [None] * self.capacity
        self._ref: List[bool] = [False] * self.capacity
        self._pins: List[int] = [0] * self.capacity
        #: per slot, ``(batch id, index in batch)`` of a dirty page
        self._dirty: List[Optional[Tuple[int, int]]] = [None] * self.capacity
        self._map: Dict[str, Dict[int, int]] = {}
        self._hand = 0
        self._used = 0
        #: dirty batches by id; ids ascend, so this is creation order
        self._batches: Dict[int, _DirtyBatch] = {}
        self._next_batch = 0
        self._n_dirty = 0
        # Monotonic lifetime counters (never reset; see class docstring).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        self.invalidations = 0
        self.rejected = 0
        self.writeback_batches = 0
        self.writeback_pages = 0
        self.dropped_dirty_pages = 0

    # -- introspection ---------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """How many frames currently hold a valid page."""
        return self._used

    @property
    def dirty_pages(self) -> int:
        """How many resident pages are admitted dirty and not yet written back."""
        return self._n_dirty

    @property
    def pinned_pages(self) -> int:
        return sum(1 for i, p in enumerate(self._pins) if p > 0 and self._keys[i] is not None)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, key: Tuple[str, int]) -> bool:
        name, page = key
        return int(page) in self._map.get(name, ())

    def resident(self, name: str, page_ids: np.ndarray) -> np.ndarray:
        """Per-page residency mask of ``name``'s pages.

        A pure lookup, like ``in``: no reference bit, tally or CLOCK
        state changes.
        """
        ids = np.asarray(page_ids, dtype=np.int64)
        pages = self._map.get(name)
        if not pages:
            return np.zeros(ids.shape[0], dtype=bool)
        return np.fromiter((p in pages for p in ids.tolist()), dtype=bool, count=ids.shape[0])

    def snapshot(self) -> Dict[str, Any]:
        """Counter/occupancy snapshot (the ``cache_stats`` trace payload)."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "insertions": int(self.insertions),
            "invalidations": int(self.invalidations),
            "rejected": int(self.rejected),
            "writeback_batches": int(self.writeback_batches),
            "writeback_pages": int(self.writeback_pages),
            "dropped_dirty_pages": int(self.dropped_dirty_pages),
            "dirty_pages": int(self._n_dirty),
            "resident_pages": int(self._used),
            "capacity_pages": int(self.capacity),
            "hit_rate": round(self.hit_rate, 6),
        }

    def register_metrics(self, metrics) -> None:
        """Register ``cache.*`` gauges on a :class:`MetricsRegistry`."""
        metrics.gauge(f"{self.name}.hits", lambda: self.hits)
        metrics.gauge(f"{self.name}.misses", lambda: self.misses)
        metrics.gauge(f"{self.name}.evictions", lambda: self.evictions)
        metrics.gauge(f"{self.name}.insertions", lambda: self.insertions)
        metrics.gauge(f"{self.name}.rejected", lambda: self.rejected)
        metrics.gauge(f"{self.name}.writeback_batches", lambda: self.writeback_batches)
        metrics.gauge(f"{self.name}.writeback_pages", lambda: self.writeback_pages)
        metrics.gauge(f"{self.name}.dropped_dirty_pages", lambda: self.dropped_dirty_pages)
        metrics.gauge(f"{self.name}.dirty_pages", lambda: self._n_dirty)
        metrics.gauge(f"{self.name}.resident_pages", lambda: self._used)
        metrics.gauge(f"{self.name}.capacity_pages", lambda: self.capacity)
        metrics.gauge(f"{self.name}.hit_rate", lambda: self.hit_rate)

    # -- CLOCK machinery -------------------------------------------------

    def _drop_slot(self, slot: int) -> None:
        """Free ``slot``; a page still dirty there is dropped unwritten."""
        key = self._keys[slot]
        if key is None:
            return
        if self._dirty[slot] is not None:
            self._forget_dirty(slot)
        pages = self._map.get(key[0])
        if pages is not None:
            pages.pop(key[1], None)
            if not pages:
                del self._map[key[0]]
        self._keys[slot] = None
        self._ref[slot] = False
        self._pins[slot] = 0
        self._used -= 1

    def _victim_slot(self) -> int:
        """Advance the hand to a usable frame; -1 if everything is pinned.

        Classic CLOCK: an empty frame is taken immediately, a referenced
        frame gets a second chance (ref bit cleared), pinned frames are
        passed over untouched.  Two full sweeps clear every ref bit, so
        a third guarantees a victim unless all frames are pinned.
        """
        for _ in range(3 * self.capacity):
            slot = self._hand
            self._hand = (self._hand + 1) % self.capacity
            if self._keys[slot] is None:
                return slot
            if self._pins[slot] > 0:
                continue
            if self._ref[slot]:
                self._ref[slot] = False
                continue
            return slot
        return -1

    def _insert(self, name: str, page: int) -> int:
        """Admit one absent page; returns its slot, or -1 if rejected.

        A dirty victim first writes its whole batch back.
        """
        slot = self._victim_slot()
        if slot < 0:
            self.rejected += 1
            return -1
        if self._keys[slot] is not None:
            self.evictions += 1
            mark = self._dirty[slot]
            if mark is not None:
                self._write_back(mark[0], "evict")
            self._drop_slot(slot)
        self._keys[slot] = (name, page)
        self._ref[slot] = False
        self._map.setdefault(name, {})[page] = slot
        self._used += 1
        self.insertions += 1
        return slot

    # -- dirty batches ---------------------------------------------------

    def _forget_dirty(self, slot: int) -> None:
        """Drop ``slot``'s dirty page from its batch without writing it."""
        bid, j = self._dirty[slot]
        self._dirty[slot] = None
        self._n_dirty -= 1
        self.dropped_dirty_pages += 1
        batch = self._batches[bid]
        batch.pending[j] = False
        batch.left -= 1
        if not batch.left:
            del self._batches[bid]

    def _write_back(self, bid: int, cause: str) -> float:
        """Write every still-dirty page of batch ``bid`` as one device
        batch, under the batch's own storage class; they turn clean.

        Returns the write's simulated time.  The batch leaves the dirty
        set only once the device accepted the write, so a crash inside
        it leaves the cache as it was.
        """
        batch = self._batches[bid]
        sel = [j for j, pending in enumerate(batch.pending) if pending]
        devices = None if batch.devices is None else batch.devices[sel]
        t = batch.device.write_batch(batch.channels[sel], batch.klass, devices=devices)
        del self._batches[bid]
        keys = batch.keys()
        for j in sel:
            name, page = keys[j]
            slot = self._map.get(name, {}).get(page)
            if slot is not None and self._dirty[slot] == (bid, j):
                self._dirty[slot] = None
                self._n_dirty -= 1
        self.writeback_batches += 1
        self.writeback_pages += len(sel)
        tracer = batch.device.tracer
        if tracer.enabled:
            tracer.emit("writeback", klass=batch.klass, pages=len(sel), time_us=t, cause=cause)
        return t

    def admit_dirty(
        self,
        parts: List[Tuple[str, np.ndarray]],
        device,
        klass: str,
        channels: np.ndarray,
        devices: Optional[np.ndarray] = None,
    ) -> int:
        """Admit one striped write of a :data:`WRITEBACK_KLASSES` class
        as a dirty batch, uncharged; returns the pages it deferred.

        ``parts`` are ``(file name, page ids)`` in the write's order and
        ``channels``/``devices`` the write's per-page vectors, kept to
        charge ``device`` the same batch if it is ever written back.  If
        admitting a page evicts a dirty page of this very batch, or no
        frame can hold it, the batch is written back at once and its
        remaining pages are admitted clean.
        """
        bid = self._next_batch
        self._next_batch += 1
        batch = _DirtyBatch(device, klass, parts, channels, devices)
        self._batches[bid] = batch
        j = 0
        for name, ids in parts:
            for page in ids.tolist():
                slot = self._map.get(name, {}).get(page)
                if slot is not None:
                    # A rewrite of a resident page supersedes its older copy.
                    self._ref[slot] = True
                    if self._dirty[slot] is not None:
                        self._forget_dirty(slot)
                else:
                    slot = self._insert(name, page)
                if bid in self._batches:
                    if slot < 0:
                        self._write_back(bid, "evict")
                    else:
                        self._dirty[slot] = (bid, j)
                        self._n_dirty += 1
                j += 1
        return len(batch.pending)

    def flush(self) -> float:
        """Write back every dirty batch, oldest first (a checkpoint cut);
        returns the simulated write time."""
        return sum((self._write_back(bid, "cut") for bid in list(self._batches)), 0.0)

    # -- the access paths ------------------------------------------------

    def access(self, name: str, page_ids: np.ndarray) -> np.ndarray:
        """Look up a read batch; returns the per-page **miss** mask.

        Hits get their reference bit set; misses are admitted
        (read-allocate) so the next access to the same page hits.  The
        caller charges the device only for ``page_ids[miss_mask]``.
        """
        ids = np.asarray(page_ids, dtype=np.int64)
        miss = np.zeros(ids.shape[0], dtype=bool)
        pages = self._map.get(name)
        for i, p in enumerate(ids):
            p = int(p)
            slot = pages.get(p) if pages is not None else None
            if slot is not None:
                self.hits += 1
                self._ref[slot] = True
            else:
                self.misses += 1
                miss[i] = True
                self._insert(name, p)
                pages = self._map.get(name)
        return miss

    def admit(self, name: str, page_ids: np.ndarray) -> None:
        """Insert clean pages (write-allocate of a write-through class,
        or a prefetch) without hit/miss tallies.

        Already-resident pages just get their reference bit refreshed --
        a write-through overwrite leaves the cached copy current.
        """
        pages = self._map.get(name)
        for p in np.asarray(page_ids, dtype=np.int64):
            p = int(p)
            slot = pages.get(p) if pages is not None else None
            if slot is not None:
                self._ref[slot] = True
            else:
                self._insert(name, p)
                pages = self._map.get(name)

    # -- pinning ---------------------------------------------------------

    def pin(self, name: str, page_ids: np.ndarray) -> None:
        """Pin resident pages against eviction (missing ids are ignored)."""
        pages = self._map.get(name)
        if pages is None:
            return
        for p in np.asarray(page_ids, dtype=np.int64):
            slot = pages.get(int(p))
            if slot is not None:
                self._pins[slot] += 1

    def unpin(self, name: str, page_ids: np.ndarray) -> None:
        """Release one pin per page (no-op below zero / for absent pages)."""
        pages = self._map.get(name)
        if pages is None:
            return
        for p in np.asarray(page_ids, dtype=np.int64):
            slot = pages.get(int(p))
            if slot is not None and self._pins[slot] > 0:
                self._pins[slot] -= 1

    # -- invalidation ----------------------------------------------------

    def invalidate_file(self, name: str) -> int:
        """Drop every cached page of ``name`` (truncate / overwrite).

        Page ids restart at zero after a :meth:`PageFile.truncate`, so
        stale entries would otherwise produce false hits on a physically
        different page.  Dirty pages are dropped unwritten.
        """
        pages = self._map.pop(name, None)
        if not pages:
            return 0
        dirty = self._dirty
        for slot in pages.values():
            if dirty[slot] is not None:
                self._forget_dirty(slot)
            self._keys[slot] = None
            self._ref[slot] = False
            self._pins[slot] = 0
        self._used -= len(pages)
        self.invalidations += len(pages)
        return len(pages)

    def clear(self) -> None:
        """Drop all contents (cold cache) while keeping the counters.

        Used at checkpoint cuts and on crash/resume: both an
        uninterrupted checkpointed run and a resumed one restart from a
        cold cache at the cut, so post-cut I/O charging is bit-identical
        (DESIGN.md §10).  Dirty pages must be written back first
        (:meth:`flush`): clearing them would lose a charge silently.
        """
        if self._n_dirty:
            raise StorageError(
                f"cache clear with {self._n_dirty} dirty pages: flush() them first"
            )
        self._keys = [None] * self.capacity
        self._ref = [False] * self.capacity
        self._pins = [0] * self.capacity
        self._dirty = [None] * self.capacity
        self._batches.clear()
        self._map.clear()
        self._hand = 0
        self._used = 0
