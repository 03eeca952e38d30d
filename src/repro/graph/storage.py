"""Interval-partitioned CSR graph stored on the simulated SSD (paper §V-E).

MultiLogVC keeps each vertex interval's CSR data as separate files so
that graph *structural updates* can be merged per interval without
reshuffling the whole column vector.  This module materialises that
layout: per interval ``i`` three array files --

* ``{name}.i{i}.rowptr`` -- local row pointers (8-byte entries),
* ``{name}.i{i}.col``    -- neighbor ids (4-byte entries),
* ``{name}.i{i}.val``    -- edge values (8-byte entries, optional).

The backing NumPy arrays are *views into the global CSR arrays* until a
structural merge replaces an interval's slice.  Engines read data from
the arrays directly and pay simulated I/O through the file objects.

A group of intervals is mapped to pages in one pass per file class
(DESIGN.md §6): :meth:`GraphOnSSD.group_ranges` gives every vertex of a
sorted, multi-interval vertex array its interval, local id and local
edge range, and :meth:`GraphOnSSD.group_pages` maps those ranges with a
single :func:`~repro.ssd.file.pages_for_ranges` call.  Each interval's
file of a class sits at a page-aligned entry base (the pages of the
files before it), so one interval's pages never mix with another's and
the result splits back per interval with one ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..errors import GraphFormatError
from ..ssd.file import ArrayFile, pages_for_ranges
from ..ssd.filesystem import SimFS
from .csr import CSRGraph
from .partition import VertexIntervals

#: Storage-class labels used for I/O accounting.
KLASS_ROWPTR = "csr_row"
KLASS_COLIDX = "csr_col"
KLASS_VALUES = "csr_val"


@dataclass
class IntervalFiles:
    """The three array files of one vertex interval."""

    lo: int
    hi: int
    rowptr: ArrayFile  # local rowptr, entries = (hi - lo) + 1, rowptr[0] == 0
    colidx: ArrayFile
    values: Optional[ArrayFile]

    @property
    def n_vertices(self) -> int:
        return self.hi - self.lo

    @property
    def n_edges(self) -> int:
        return int(self.rowptr.array[-1])


@dataclass(frozen=True)
class GroupRanges:
    """Per-vertex CSR ranges of a sorted vertex array spanning intervals."""

    vertices: np.ndarray
    #: the partition's interval boundaries
    bounds: np.ndarray
    #: ``vertices[cut[i]:cut[i + 1]]`` lie in interval ``i``
    cut: np.ndarray
    #: local ``[start, stop)`` into the interval's colidx/val files
    starts: np.ndarray
    stops: np.ndarray

    @property
    def interval(self) -> np.ndarray:
        """Each vertex's interval."""
        return np.repeat(np.arange(self.cut.size - 1, dtype=np.int64), np.diff(self.cut))

    def local(self, interval: np.ndarray) -> np.ndarray:
        """Each vertex's local id, given :attr:`interval`."""
        return self.vertices - self.bounds[interval]

    def spans(self) -> List[Tuple[int, int, int]]:
        """``(interval, s, e)`` for each interval holding vertices, ascending."""
        cut = self.cut
        return [(int(i), int(cut[i]), int(cut[i + 1])) for i in np.flatnonzero(cut[1:] > cut[:-1])]


@dataclass(frozen=True)
class GroupPages:
    """One file class's pages for a group: global ids, split per interval.

    Global page ``p`` of interval ``i`` is its local page ``p - base[i]``.
    """

    pages: np.ndarray
    useful: np.ndarray
    #: ``pages[cut[i]:cut[i + 1]]`` belong to interval ``i``
    cut: np.ndarray
    local: np.ndarray
    #: page base of each interval's file (``n_intervals + 1`` entries)
    base: np.ndarray
    entries_per_page: int

    def of(self, i: int) -> np.ndarray:
        """Interval ``i``'s local page ids, sorted and unique."""
        return self.local[self.cut[i] : self.cut[i + 1]]

    def page_of(self, interval: np.ndarray, entry: np.ndarray) -> np.ndarray:
        """Global page id holding local ``entry`` of ``interval``'s file."""
        return self.base[interval] + entry // self.entries_per_page


class GraphOnSSD:
    """A CSR graph laid out on the simulated SSD, one slice per interval."""

    def __init__(
        self,
        graph: CSRGraph,
        intervals: VertexIntervals,
        fs: SimFS,
        config: SimConfig,
        name: str = "graph",
        with_weights: Optional[bool] = None,
    ) -> None:
        if intervals.n_vertices != graph.n:
            raise GraphFormatError(
                f"interval partition covers {intervals.n_vertices} vertices, graph has {graph.n}"
            )
        self.graph = graph
        self.intervals = intervals
        self.fs = fs
        self.config = config
        self.name = name
        if with_weights is None:
            with_weights = graph.weights is not None
        if with_weights and graph.weights is None:
            graph = graph.with_unit_weights()
            self.graph = graph
        self.with_weights = with_weights
        self._intervals_files: List[IntervalFiles] = []
        rec = config.records
        for i, lo, hi in intervals:
            estart, estop = int(graph.rowptr[lo]), int(graph.rowptr[hi])
            local_rowptr = (graph.rowptr[lo : hi + 1] - graph.rowptr[lo]).astype(np.int64)
            rowptr_f = fs.create_array_file(
                f"{name}.i{i}.rowptr", KLASS_ROWPTR, local_rowptr, rec.rowptr_bytes
            )
            colidx_f = fs.create_array_file(
                f"{name}.i{i}.col", KLASS_COLIDX, graph.colidx[estart:estop], rec.vid_bytes
            )
            values_f = None
            if with_weights:
                values_f = fs.create_array_file(
                    f"{name}.i{i}.val", KLASS_VALUES, graph.weights[estart:estop], rec.weight_bytes
                )
            self._intervals_files.append(IntervalFiles(lo, hi, rowptr_f, colidx_f, values_f))
        #: every interval's local rowptr, concatenated (interval ``i``'s
        #: entry ``v - lo`` sits at ``v + i``), and each file class's
        #: page bases; rebuilt by :meth:`replace_interval`
        self._geometry = self._build_geometry()

    # -- lookup ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def n_intervals(self) -> int:
        return self.intervals.n_intervals

    def interval_files(self, i: int) -> IntervalFiles:
        return self._intervals_files[i]

    def local_ranges(self, i: int, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-vertex local edge ranges within interval ``i``.

        ``vertices`` must all belong to interval ``i``.  Returns
        ``(local_ids, starts, stops)`` where starts/stops index the
        interval's local colidx/val files.
        """
        f = self._intervals_files[i]
        v = np.asarray(vertices, dtype=np.int64)
        if v.size and (v.min() < f.lo or v.max() >= f.hi):
            raise GraphFormatError(f"vertex outside interval {i} [{f.lo}, {f.hi})")
        local = v - f.lo
        starts = f.rowptr.array[local]
        stops = f.rowptr.array[local + 1]
        return local, starts, stops

    def _build_geometry(self) -> tuple:
        files = self._intervals_files
        rowptr = np.concatenate([f.rowptr.array for f in files])
        bases = {}
        kinds = ("rowptr", "colidx", "values") if self.with_weights else ("rowptr", "colidx")
        for kind in kinds:
            per = [getattr(f, kind) for f in files]
            base = np.zeros(len(per) + 1, dtype=np.int64)
            base[1:] = np.cumsum([a.n_pages for a in per])
            bases[kind] = (base, per[0].entries_per_page, per[0].entry_bytes)
        return rowptr, bases

    def group_ranges(self, vertices: np.ndarray) -> GroupRanges:
        """:meth:`local_ranges` of a sorted vertex array over every interval."""
        v = np.asarray(vertices, dtype=np.int64)
        if v.size and (v[0] < 0 or v[-1] >= self.n):
            raise GraphFormatError(f"vertex outside [0, {self.n})")
        rowptr, _ = self._geometry
        bounds = self.intervals.boundaries
        cut = np.searchsorted(v, bounds)
        at = v + np.repeat(np.arange(self.n_intervals, dtype=np.int64), np.diff(cut))
        return GroupRanges(v, bounds, cut, rowptr[at], rowptr[at + 1])

    def group_pages(
        self, kind: str, interval: np.ndarray, starts: np.ndarray, stops: np.ndarray
    ) -> GroupPages:
        """Pages of ``kind`` (``"rowptr"``, ``"colidx"`` or ``"values"``)
        that local ranges touch across intervals, in one mapping.

        Range ``j`` is ``[starts[j], stops[j])`` of interval
        ``interval[j]``'s file.  Pass ranges in ascending (interval,
        start) order and the mapping never sorts.
        """
        _, bases = self._geometry
        base, epp, entry_bytes = bases[kind]
        off = base[interval] * epp
        pages, useful = pages_for_ranges(starts + off, stops + off, epp, entry_bytes)
        cut = np.searchsorted(pages, base)
        local = pages - np.repeat(base[:-1], np.diff(cut))
        return GroupPages(pages, useful, cut, local, base, epp)

    # -- data access (host side; I/O is charged by the loader) -------------

    def neighbors(self, v: int) -> np.ndarray:
        i = self.intervals.interval_of_one(v)
        f = self._intervals_files[i]
        local = v - f.lo
        s, e = int(f.rowptr.array[local]), int(f.rowptr.array[local + 1])
        return f.colidx.array[s:e]

    def weights(self, v: int) -> Optional[np.ndarray]:
        if not self.with_weights:
            return None
        i = self.intervals.interval_of_one(v)
        f = self._intervals_files[i]
        local = v - f.lo
        s, e = int(f.rowptr.array[local]), int(f.rowptr.array[local + 1])
        return f.values.array[s:e]

    def out_degree(self, v: int) -> int:
        i = self.intervals.interval_of_one(v)
        f = self._intervals_files[i]
        local = v - f.lo
        return int(f.rowptr.array[local + 1] - f.rowptr.array[local])

    # -- totals ---------------------------------------------------------------

    def total_pages(self) -> int:
        """Total pages the graph occupies on flash."""
        total = 0
        for f in self._intervals_files:
            total += f.rowptr.n_pages + f.colidx.n_pages
            if f.values is not None:
                total += f.values.n_pages
        return total

    def colidx_pages(self) -> int:
        return sum(f.colidx.n_pages for f in self._intervals_files)

    # -- structural updates (invoked by core.mutation) -------------------------

    def replace_interval(
        self,
        i: int,
        local_rowptr: np.ndarray,
        colidx: np.ndarray,
        values: Optional[np.ndarray],
    ) -> None:
        """Swap in rebuilt CSR arrays for interval ``i`` after a merge.

        The caller (the mutation buffer) is responsible for charging the
        read-old/write-new I/O of the merge.
        """
        f = self._intervals_files[i]
        if local_rowptr.shape[0] != f.n_vertices + 1 or local_rowptr[0] != 0:
            raise GraphFormatError("bad local rowptr for interval replacement")
        if int(local_rowptr[-1]) != colidx.shape[0]:
            raise GraphFormatError("rowptr/colidx mismatch in interval replacement")
        f.rowptr.set_array(np.ascontiguousarray(local_rowptr, dtype=np.int64))
        f.colidx.set_array(np.ascontiguousarray(colidx, dtype=np.int32))
        if self.with_weights:
            if values is None or values.shape[0] != colidx.shape[0]:
                raise GraphFormatError("values required and must match colidx length")
            f.values.set_array(np.ascontiguousarray(values, dtype=np.float64))
        self._geometry = self._build_geometry()

    def rebuild_csr(self) -> CSRGraph:
        """Reassemble a global CSR from the (possibly mutated) intervals."""
        rowptr = [np.zeros(1, dtype=np.int64)]
        cols = []
        vals = [] if self.with_weights else None
        offset = 0
        for f in self._intervals_files:
            rowptr.append(f.rowptr.array[1:] + offset)
            offset += int(f.rowptr.array[-1])
            cols.append(f.colidx.array)
            if vals is not None:
                vals.append(f.values.array)
        return CSRGraph(
            np.concatenate(rowptr),
            np.concatenate(cols) if cols else np.empty(0, np.int32),
            np.concatenate(vals) if vals else None,
        )
