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
multi-log's write-then-read-once traffic is served from DRAM.  Writes
themselves are always charged in full (write-through), so torn-write and
crash semantics are untouched.

Determinism: every access mutates the CLOCK state, so hit patterns
depend on access *order*.  Every engine is single-threaded and walks
its groups in one fixed order, which makes hit/miss sequences -- and
therefore stats and traces -- reproducible run over run.

The cache is device-array-agnostic (DESIGN.md §14): keys are
*(file name, page id)*, placement never enters the eviction state, so
hit/miss sequences -- and therefore canonical charging -- are identical
at any ``num_devices``.  Only the *missed* pages reach the device, and
they carry their device ids from the file layer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..obs.overlay import Overlay

#: Storage classes that bypass the cache entirely.  Checkpoint payloads
#: are written once per cut and read only during recovery -- caching
#: them would only flood the CLOCK ring -- and ``retry`` records are
#: zero-page backoff accounting, not data.
UNCACHED_KLASSES = frozenset({"ckpt", "retry"})


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
    ``rejected``) rather than over-running the budget.  Counters are
    monotonic for the cache's lifetime -- :meth:`clear` drops the cached
    *contents* (crash/resume, checkpoint cuts) but not the tallies, so
    per-run trace streams stay non-decreasing; as an overlay they are
    checkpointed and restored with the run.
    """

    trace_kind = "cache_stats"
    STATE = ("hits", "misses", "evictions", "insertions", "invalidations", "rejected")

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
        self._map: Dict[str, Dict[int, int]] = {}
        self._hand = 0
        self._used = 0
        # Monotonic lifetime counters (never reset; see class docstring).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        self.invalidations = 0
        self.rejected = 0

    # -- introspection ---------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """How many frames currently hold a valid page."""
        return self._used

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
        metrics.gauge(f"{self.name}.resident_pages", lambda: self._used)
        metrics.gauge(f"{self.name}.capacity_pages", lambda: self.capacity)
        metrics.gauge(f"{self.name}.hit_rate", lambda: self.hit_rate)

    # -- CLOCK machinery -------------------------------------------------

    def _drop_slot(self, slot: int) -> None:
        key = self._keys[slot]
        if key is None:
            return
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

    def _insert(self, name: str, page: int) -> bool:
        slot = self._victim_slot()
        if slot < 0:
            self.rejected += 1
            return False
        if self._keys[slot] is not None:
            self.evictions += 1
            self._drop_slot(slot)
        self._keys[slot] = (name, page)
        self._ref[slot] = False
        self._map.setdefault(name, {})[page] = slot
        self._used += 1
        self.insertions += 1
        return True

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
        """Insert written pages (write-allocate) without hit/miss tallies.

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
        different page.
        """
        pages = self._map.get(name)
        if not pages:
            return 0
        dropped = 0
        for slot in list(pages.values()):
            self._drop_slot(slot)
            dropped += 1
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop all contents (cold cache) while keeping the counters.

        Used at checkpoint cuts and on crash/resume: both an
        uninterrupted checkpointed run and a resumed one restart from a
        cold cache at the cut, so post-cut I/O charging is bit-identical
        (DESIGN.md §10).
        """
        self._keys = [None] * self.capacity
        self._ref = [False] * self.capacity
        self._pins = [0] * self.capacity
        self._map.clear()
        self._hand = 0
        self._used = 0
