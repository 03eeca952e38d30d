"""Page-granular in-memory staging buffers.

Two staging primitives shared by the logging components:

* :class:`RecordPageBuffer` -- fixed-size records (GraFBoost's
  single-log entries).  Records accumulate in a *top page*; when the
  top page fills it is *sealed* into immutable NumPy arrays and a fresh
  top page starts (paper §V-A3 "a top page is maintained in the buffer
  ... a new page is allocated and becomes the top page").  The
  multi-log keeps the same page geometry arithmetically, on columnar
  runs (:mod:`repro.core.multilog`).

* :class:`ByteStreamPager` -- variable-size entries packed by byte count
  (the edge log, where a vertex contributes a header plus one entry per
  out-edge).

Neither knows about the SSD: owners pop sealed pages and append them to
a :class:`~repro.ssd.file.PageFile` when eviction policy says so.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from ..errors import BudgetExceededError


class RecordPageBuffer:
    """Staging buffer for fixed-size records of one log.

    Parameters
    ----------
    fields:
        Names of the record columns (e.g. ``("dest", "src", "data")``).
    dtypes:
        NumPy dtypes per column, used when sealing pages.
    records_per_page:
        Capacity of one SSD page in records.
    """

    def __init__(self, fields: Sequence[str], dtypes: Sequence[Any], records_per_page: int) -> None:
        if records_per_page < 1:
            raise BudgetExceededError("a page must hold at least one record")
        if len(fields) != len(dtypes):
            raise ValueError("fields/dtypes length mismatch")
        self.fields = tuple(fields)
        self.dtypes = tuple(np.dtype(d) for d in dtypes)
        self.records_per_page = int(records_per_page)
        self._top: List[List[Any]] = [[] for _ in self.fields]
        self._sealed: List[Tuple[np.ndarray, ...]] = []

    # -- appends -----------------------------------------------------------

    def _seal_top(self) -> None:
        page = tuple(
            np.asarray(col, dtype=dt) for col, dt in zip(self._top, self.dtypes)
        )
        self._sealed.append(page)
        self._top = [[] for _ in self.fields]

    def append(self, *values: Any) -> bool:
        """Append one record; returns True if this filled (sealed) a page."""
        for col, v in zip(self._top, values):
            col.append(v)
        if len(self._top[0]) >= self.records_per_page:
            self._seal_top()
            return True
        return False

    def append_many(self, *columns: np.ndarray) -> int:
        """Append a batch of records; returns number of pages sealed."""
        n = len(columns[0])
        if n == 0:
            return 0
        sealed = 0
        rpp = self.records_per_page
        pos = 0
        # Top-up a partially filled top page first.
        if self._top[0]:
            take = min(rpp - len(self._top[0]), n)
            for col, src in zip(self._top, columns):
                col.extend(src[:take].tolist())
            pos = take
            if len(self._top[0]) >= rpp:
                self._seal_top()
                sealed += 1
        # Whole pages seal as direct page-sized array copies, skipping
        # the per-record list round-trip.
        while n - pos >= rpp:
            page = tuple(
                np.array(src[pos : pos + rpp], dtype=dt)
                for src, dt in zip(columns, self.dtypes)
            )
            self._sealed.append(page)
            sealed += 1
            pos += rpp
        if pos < n:
            for col, src in zip(self._top, columns):
                col.extend(src[pos:].tolist())
        return sealed

    # -- observability ------------------------------------------------------

    def register_metrics(self, registry, prefix: str) -> None:
        """Register occupancy gauges under ``<prefix>.*``.

        Gauges are sampled only at snapshot time, so a registered
        buffer costs nothing on the append hot path.  ``registry`` is a
        :class:`repro.obs.MetricsRegistry` (duck-typed to avoid a
        package dependency from ``mem`` to ``obs``).
        """
        registry.gauge(f"{prefix}.pages_used", lambda: self.pages_used)
        registry.gauge(f"{prefix}.sealed_pages", lambda: self.sealed_pages)
        registry.gauge(f"{prefix}.records", lambda: self.n_records)

    # -- geometry -----------------------------------------------------------

    @property
    def top_records(self) -> int:
        return len(self._top[0])

    @property
    def sealed_pages(self) -> int:
        return len(self._sealed)

    @property
    def pages_used(self) -> int:
        """Buffer pages occupied: sealed pages plus a partial top page."""
        return self.sealed_pages + (1 if self.top_records else 0)

    @property
    def n_records(self) -> int:
        return self.sealed_pages * self.records_per_page + self.top_records

    # -- draining -------------------------------------------------------------

    def pop_sealed(self, max_pages: int | None = None) -> List[Tuple[np.ndarray, ...]]:
        """Remove and return up to ``max_pages`` sealed pages (oldest first)."""
        k = self.sealed_pages if max_pages is None else min(max_pages, self.sealed_pages)
        out = self._sealed[:k]
        del self._sealed[:k]
        return out

    def force_seal(self) -> None:
        """Seal a partial top page (used when flushing everything)."""
        if self.top_records:
            self._seal_top()


class ByteStreamPager:
    """Byte-offset bookkeeping for an append-only page stream.

    Used by the edge log: variable-size entries (a vertex header plus
    its out-edge list) are appended to a conceptually infinite byte
    stream.  The pager maps each entry to the half-open *page* range it
    occupies and tells the caller which pages just became complete (full
    pages ready to be evicted to the SSD).  A high-degree vertex's entry
    may span multiple pages.
    """

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = int(page_size)
        self._offset = 0
        self._flushed_pages = 0

    @property
    def offset(self) -> int:
        """Total bytes appended so far."""
        return self._offset

    @property
    def current_page(self) -> int:
        """Page index the next appended byte lands on."""
        return self._offset // self.page_size

    @property
    def buffered_pages(self) -> int:
        """Pages touched but not yet reported complete (incl. partial)."""
        total = -(-self._offset // self.page_size) if self._offset else 0
        return total - self._flushed_pages

    def append(self, nbytes: int) -> Tuple[int, int, range]:
        """Append ``nbytes``; returns ``(first_page, last_page, completed)``.

        ``completed`` is the range of page indices that became *full*
        because of this append (ready for eviction, oldest first).
        """
        if nbytes <= 0:
            raise ValueError("entry must have positive size")
        first = self._offset // self.page_size
        self._offset += int(nbytes)
        last = (self._offset - 1) // self.page_size
        newly_full = self._offset // self.page_size  # pages fully behind offset
        completed = range(self._flushed_pages, newly_full)
        self._flushed_pages = newly_full
        return first, last, completed

    def append_many(self, nbytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Append entries in order; returns ``(firsts, lasts, ends)`` per entry.

        ``ends`` is the stream offset just past each entry, so entry
        ``j`` completes the pages below ``ends[j] // page_size`` and
        ``firsts[j]`` is also the count of pages complete before it.
        """
        sizes = np.asarray(nbytes, dtype=np.int64)
        if sizes.size and sizes.min() <= 0:
            raise ValueError("entry must have positive size")
        ends = self._offset + np.cumsum(sizes)
        firsts = (ends - sizes) // self.page_size
        lasts = (ends - 1) // self.page_size
        if sizes.size:
            self._offset = int(ends[-1])
            self._flushed_pages = self._offset // self.page_size
        return firsts, lasts, ends

    def final_partial_page(self) -> int | None:
        """Index of the trailing partial page, if any bytes remain on it."""
        if self._offset % self.page_size:
            return self._offset // self.page_size
        return None

    def reset(self) -> None:
        self._offset = 0
        self._flushed_pages = 0
