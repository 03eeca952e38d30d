"""File abstractions on top of the simulated SSD.

Two kinds of files cover everything the engines store on flash:

* :class:`PageFile` -- an append-only sequence of page payloads.  Used
  for the multi-log update logs, the edge log, GraFBoost's single log
  and anything else written at run time.  Appending a page charges a
  write; reading pages charges a read batch over the pages' channels.

* :class:`ArrayFile` -- a NumPy-array-backed file with fixed-size
  entries (row pointers, column indices, edge values, shard edge
  arrays).  The array itself is host-side simulation state; the file
  only *charges* I/O for the pages that a given entry-range access
  touches, and reports per-page useful-byte counts so callers can
  measure read amplification (paper Fig. 3).

Both map page index ``p`` to channel ``(channel_offset + p) % C``, i.e.
every file is interspersed across all channels starting at a staggered
offset -- the paper's §V-A3 log placement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulatedCrashError, StorageError
from ..mem.pagecache import PageCache
from .device import SimulatedSSD


class SimFileBase:
    """Common naming/channel logic for simulated files."""

    def __init__(
        self,
        device: SimulatedSSD,
        name: str,
        klass: str,
        channel_offset: int = 0,
        device_affinity: Optional[int] = None,
    ) -> None:
        self.device = device
        self.name = name
        self.klass = klass
        self.channel_offset = channel_offset % device.channels
        #: Interval-affinity placement hint for a device array
        #: (DESIGN.md §14): under the ``"affinity"`` policy this file
        #: lands whole on device ``device_affinity % N``.  ``None`` (and
        #: any hint under ``"stripe"``) means round-robin striping.
        self.device_affinity = device_affinity
        #: DRAM page cache, attached by :class:`~repro.ssd.filesystem.SimFS`
        #: at registration for cacheable storage classes (DESIGN.md §10).
        self.cache: Optional[PageCache] = None
        #: True when the cache takes this file's writes write-back (its
        #: class is in :data:`~repro.mem.pagecache.WRITEBACK_KLASSES`).
        self.writeback = False

    def channels_of(self, page_ids: np.ndarray) -> np.ndarray:
        """Channel id for each page index of this file."""
        return (np.asarray(page_ids, dtype=np.int64) + self.channel_offset) % self.device.channels

    def devices_of(self, page_ids: np.ndarray) -> Optional[np.ndarray]:
        """Device id for each page index; ``None`` on a single device.

        The ``None`` fast path keeps the default configuration's hot
        loops free of any device-array work.
        """
        if self.device.num_devices <= 1:
            return None
        return self.device.place(page_ids, self.channel_offset, self.device_affinity)

    def _charge_read(self, page_ids: np.ndarray, klass: Optional[str] = None, plan=None) -> float:
        """Charge a page-read batch, serving cache hits from DRAM
        (:func:`striped_read` over this one file).

        With ``plan`` (an :class:`~repro.io.plan.IOPlan`), the demand is
        queued for coalesced dispatch instead of charged here; the plan
        consults the cache itself, in this same call order, so hit/miss
        sequences match the unplanned path bit-exactly.  Returns 0.0 in
        that case -- the wave cost is attributed from the plan's outcome.
        """
        ids = np.asarray(page_ids, dtype=np.int64)
        if plan is not None:
            return plan.add(self, ids, klass or self.klass)
        return striped_read([(self, ids)], klass or self.klass)

    def _admit_written(self, page_ids: np.ndarray) -> None:
        """Write-allocate pages whose write was charged (or needs no
        charge) as clean cache entries.

        A write-back file's charged writes never come here:
        :func:`striped_write` admits their pages dirty instead.
        """
        if self.cache is not None:
            self.cache.admit(self.name, page_ids)


class PageFile(SimFileBase):
    """Append-only page log.

    Each page carries an arbitrary Python payload (typically a tuple of
    NumPy arrays holding the records flushed in that page) plus a count
    of useful bytes, used for write-amplification accounting.
    """

    def __init__(
        self,
        device: SimulatedSSD,
        name: str,
        klass: str,
        channel_offset: int = 0,
        device_affinity: Optional[int] = None,
    ) -> None:
        super().__init__(device, name, klass, channel_offset, device_affinity)
        self._payloads: List[Any] = []
        self._useful: List[int] = []

    # -- writes ----------------------------------------------------------

    def append_page(self, payload: Any, useful_bytes: Optional[int] = None, charge: bool = True) -> Tuple[int, float]:
        """Append one page; returns ``(page_id, simulated_write_us)``."""
        useful = None if useful_bytes is None else [useful_bytes]
        ids, t = self.append_pages([payload], useful, charge)
        return int(ids[0]), t

    def stage(self, payloads: List[Any], useful_bytes: Optional[List[int]] = None) -> np.ndarray:
        """Append pages without charging or caching them; returns their ids.

        Staged pages are written by :func:`striped_write`, which charges
        the staged pages of one or several files as one device batch.
        """
        if useful_bytes is None:
            useful_bytes = [self.device.page_size] * len(payloads)
        elif len(useful_bytes) != len(payloads):
            raise StorageError("useful_bytes length mismatch")
        start = len(self._payloads)
        self._payloads.extend(payloads)
        self._useful.extend(int(b) for b in useful_bytes)
        return np.arange(start, len(self._payloads), dtype=np.int64)

    def append_pages(self, payloads: List[Any], useful_bytes: Optional[List[int]] = None, charge: bool = True) -> Tuple[np.ndarray, float]:
        """Append several pages as one write batch."""
        if not payloads:
            return np.empty(0, dtype=np.int64), 0.0
        ids = self.stage(payloads, useful_bytes)
        if not charge:
            # Uncharged appends (a checkpoint's commit page, whose write
            # the checkpoint charges itself) still populate the cache.
            self._admit_written(ids)
            return ids, 0.0
        return ids, striped_write([(self, ids)], self.klass)

    # -- reads -----------------------------------------------------------

    def read_pages(self, page_ids: np.ndarray, charge: bool = True, plan=None) -> Tuple[List[Any], float]:
        """Read specific pages; returns ``(payloads, simulated_read_us)``."""
        ids = np.asarray(page_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self._payloads)):
            raise StorageError(f"page id out of range for file {self.name!r}")
        payloads = [self._payloads[i] for i in ids]
        t = self._charge_read(ids, plan=plan) if charge else 0.0
        return payloads, t

    def read_all(self, charge: bool = True, plan=None) -> Tuple[List[Any], float]:
        """Read the whole file as one interspersed batch."""
        ids = np.arange(len(self._payloads), dtype=np.int64)
        t = self._charge_read(ids, plan=plan) if charge else 0.0
        return list(self._payloads), t

    # -- management --------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self._payloads)

    @property
    def useful_bytes(self) -> int:
        return sum(self._useful)

    def truncate(self) -> None:
        """Discard all pages (log consumed; trim is free in the model)."""
        self._payloads.clear()
        self._useful.clear()
        # Page ids restart at 0 after a truncate; stale cache entries
        # would otherwise hit on a physically different future page.
        if self.cache is not None:
            self.cache.invalidate_file(self.name)

    def truncate_to(self, n_pages: int) -> None:
        """Discard every page past the first ``n_pages`` (recovery trim).

        Stream-store recovery truncates a log back to its last durable
        commit point; like :meth:`truncate`, the trim itself is free in
        the model.  Page ids are reassigned on future appends, so the
        whole file's cache residency is invalidated.
        """
        n = int(n_pages)
        if n < 0 or n > len(self._payloads):
            raise StorageError(
                f"truncate_to({n}) out of range for file {self.name!r} "
                f"with {len(self._payloads)} pages"
            )
        del self._payloads[n:]
        del self._useful[n:]
        if self.cache is not None:
            self.cache.invalidate_file(self.name)


# -- multi-file batches ------------------------------------------------------
#
# ``parts`` is a list of ``(file, page ids)``; a batch's channel and device
# vectors are the parts' concatenated in list order.


def _vectors(parts: List[Tuple[SimFileBase, np.ndarray]]) -> tuple:
    channels = np.concatenate([f.channels_of(ids) for f, ids in parts])
    # devices_of is None for every file on a single device, a full
    # per-page vector on an array -- never mixed.
    devices = [f.devices_of(ids) for f, ids in parts]
    return channels, None if devices[0] is None else np.concatenate(devices)


def striped_read(parts: List[Tuple[SimFileBase, np.ndarray]], klass: str) -> float:
    """Charge page reads across one or several files as **one** batch.

    Cache hits cost nothing and only the missed pages' channels are
    submitted -- an all-hit batch skips the device entirely (no batch
    overhead, no fault check), which is how a real buffer cache avoids
    touching the block layer.
    """
    if not parts:
        return 0.0
    parts = [
        (f, ids[f.cache.access(f.name, ids)] if f.cache is not None and ids.size else ids)
        for f, ids in parts
    ]
    channels, devices = _vectors(parts)
    return parts[0][0].device.read_batch(channels, klass, devices=devices)


def striped_write(parts: List[Tuple[PageFile, np.ndarray]], klass: str) -> float:
    """Charge pages staged on one or several page files as **one** write batch.

    The write stripes over every channel (and device) at once -- the
    paper's §V-A3 concurrent log eviction.  On write-back files (the
    scratch logs under a cache, DESIGN.md §10) the batch is instead
    admitted to the cache as one dirty batch and nothing is charged
    now: the cache charges this same batch, or the part of it still
    dirty, if it ever writes it back.  Otherwise the write is charged
    in full and the pages admitted clean (write-allocate).  A torn
    write persists a prefix of the concatenated vector, so each file
    keeps exactly its share of that prefix, in part order.
    """
    if not parts:
        return 0.0
    channels, devices = _vectors(parts)
    head = parts[0][0]
    if head.writeback:
        head.cache.admit_dirty(
            [(f.name, ids) for f, ids in parts], head.device, klass, channels, devices
        )
        return 0.0
    try:
        t = head.device.write_batch(channels, klass, devices=devices)
    except SimulatedCrashError as crash:
        left = max(0, crash.pages_persisted)
        lost: Dict[PageFile, int] = {}
        for f, ids in parts:
            kept = min(left, int(ids.size))
            left -= kept
            lost[f] = lost.get(f, 0) + int(ids.size) - kept
        for f, n in lost.items():
            if n:
                f.truncate_to(f.n_pages - n)
        raise
    for f, ids in parts:
        f._admit_written(ids)
    return t


def pages_for_ranges(
    starts: np.ndarray,
    stops: np.ndarray,
    entries_per_page: int,
    entry_bytes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map half-open entry ranges to the pages they touch.

    Parameters
    ----------
    starts, stops:
        Half-open ranges ``[start, stop)`` in *entries*.  Empty ranges
        (``stop <= start``) are ignored.
    entries_per_page:
        Fixed-size entries per SSD page.
    entry_bytes:
        Size of one entry, for useful-byte accounting.

    Returns
    -------
    (page_ids, useful_bytes):
        ``page_ids`` -- sorted unique page indices touched;
        ``useful_bytes`` -- per returned page, how many of its bytes the
        ranges actually need.  This is the quantity behind the paper's
        page-utilization analysis (Fig. 3) and the edge-log optimizer's
        efficient-page test (§V-C).

    Notes
    -----
    Fully vectorised and O(total pages touched), not O(entries): each
    range expands to its (range, page) pairs, the pairs are stably
    sorted by page only when their page ids are not already
    non-decreasing, and equal adjacent pages merge into one output page
    with its useful bytes summed.  Ascending ranges -- disjoint
    adjacency ranges, or the row-pointer ranges ``[v, v + 2)`` of
    ascending vertices, which share entries -- already come out
    non-decreasing, so engine callers never pay for the sort.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if starts.shape != stops.shape:
        raise StorageError("starts/stops shape mismatch")
    mask = stops > starts
    if not mask.all():
        starts = starts[mask]
        stops = stops[mask]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    epp = int(entries_per_page)
    first = starts // epp
    counts = (stops - 1) // epp - first + 1
    total = int(counts.sum())
    # Expand each range into its page list: repeat(first) + within-range offset.
    cum = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    page_ids = np.repeat(first, counts) + offsets
    # Overlap of each (range, page) pair, in entries.
    page_lo = page_ids * epp
    overlap = np.minimum(np.repeat(stops, counts), page_lo + epp) - np.maximum(
        np.repeat(starts, counts), page_lo
    )
    if total > 1 and (page_ids[1:] < page_ids[:-1]).any():
        order = np.argsort(page_ids, kind="stable")
        page_ids = page_ids[order]
        overlap = overlap[order]
    heads = np.empty(total, dtype=bool)
    heads[0] = True
    np.not_equal(page_ids[1:], page_ids[:-1], out=heads[1:])
    heads = np.flatnonzero(heads)
    return page_ids[heads], np.add.reduceat(overlap, heads) * entry_bytes


class ArrayFile(SimFileBase):
    """Fixed-entry-size file backed by a host-side NumPy array.

    The backing array holds the *data*; the file object computes which
    pages an access pattern touches and charges the device.  Engines
    read their actual values straight from ``self.array`` after paying
    for the corresponding pages, which keeps the simulation fast while
    the I/O accounting stays page-exact.
    """

    def __init__(
        self,
        device: SimulatedSSD,
        name: str,
        klass: str,
        array: np.ndarray,
        entry_bytes: int,
        channel_offset: int = 0,
        device_affinity: Optional[int] = None,
    ) -> None:
        super().__init__(device, name, klass, channel_offset, device_affinity)
        if entry_bytes <= 0:
            raise StorageError("entry_bytes must be positive")
        if entry_bytes > device.page_size:
            raise StorageError("entry larger than a page is not supported")
        self.array = array
        self.entry_bytes = int(entry_bytes)
        self.entries_per_page = max(1, device.page_size // self.entry_bytes)

    # -- geometry -----------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return int(self.array.shape[0])

    @property
    def n_pages(self) -> int:
        return -(-self.n_entries // self.entries_per_page) if self.n_entries else 0

    def set_array(self, array: np.ndarray) -> None:
        """Replace backing data (used after structural-update merges)."""
        self.array = array
        if self.cache is not None:
            self.cache.invalidate_file(self.name)

    # -- access-pattern costing ----------------------------------------------

    def pages_for(self, starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pages (and useful bytes) touched by the given entry ranges."""
        return pages_for_ranges(starts, stops, self.entries_per_page, self.entry_bytes)

    def read_ranges(self, starts: np.ndarray, stops: np.ndarray, klass: Optional[str] = None, plan=None) -> Tuple[float, np.ndarray, np.ndarray]:
        """Charge reads for entry ranges.

        Returns ``(simulated_us, page_ids, useful_bytes_per_page)``.
        """
        pages, useful = self.pages_for(starts, stops)
        t = self._charge_read(pages, klass, plan=plan)
        return t, pages, useful

    def write_ranges(self, starts: np.ndarray, stops: np.ndarray, klass: Optional[str] = None) -> Tuple[float, np.ndarray]:
        """Charge writes for the pages covering the given entry ranges."""
        pages, _ = self.pages_for(starts, stops)
        t = self.device.write_batch(
            self.channels_of(pages), klass or self.klass, devices=self.devices_of(pages)
        )
        self._admit_written(pages)
        return t, pages

    def read_all(self, klass: Optional[str] = None, plan=None) -> float:
        """Charge a sequential read of the whole file."""
        ids = np.arange(self.n_pages, dtype=np.int64)
        return self._charge_read(ids, klass, plan=plan)

    def write_all(self, klass: Optional[str] = None) -> float:
        """Charge a sequential write of the whole file."""
        ids = np.arange(self.n_pages, dtype=np.int64)
        t = self.device.write_batch(
            self.channels_of(ids), klass or self.klass, devices=self.devices_of(ids)
        )
        self._admit_written(ids)
        return t
