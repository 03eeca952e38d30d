"""Buffered graph structural updates (paper §V-E).

Vertex programs may add or remove out-edges during processing.  Merging
each update straight into CSR would reshuffle whole column vectors, so
MultiLogVC (1) partitions the CSR per vertex interval and (2) buffers
each interval's structural updates in memory, merging them into the
interval's files only after a threshold count.  The graph loader always
consults the buffer so programs observe the most current topology.

Merging an interval is charged as a sequential read of the interval's
old colidx/val pages plus a sequential write of the rebuilt ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..config import SimConfig
from ..errors import ProgramError
from ..graph.storage import GraphOnSSD


@dataclass
class _IntervalEdits:
    adds: List[Tuple[int, int, float]] = field(default_factory=list)  # (src, dst, w)
    removes: Set[Tuple[int, int]] = field(default_factory=set)

    @property
    def count(self) -> int:
        return len(self.adds) + len(self.removes)


class MutationBuffer:
    """Per-interval buffered add/remove edge operations."""

    def __init__(self, storage: GraphOnSSD, config: SimConfig) -> None:
        self.storage = storage
        self.config = config
        self._edits: Dict[int, _IntervalEdits] = {}
        self.merges = 0

    def _edits_for(self, interval: int) -> _IntervalEdits:
        return self._edits.setdefault(interval, _IntervalEdits())

    # -- buffering -------------------------------------------------------

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        if not (0 <= src < self.storage.n and 0 <= dst < self.storage.n):
            raise ProgramError("add_edge endpoint outside graph")
        i = self.storage.intervals.interval_of_one(src)
        e = self._edits_for(i)
        e.removes.discard((src, dst))
        e.adds.append((src, dst, weight))

    def remove_edge(self, src: int, dst: int) -> None:
        if not (0 <= src < self.storage.n and 0 <= dst < self.storage.n):
            raise ProgramError("remove_edge endpoint outside graph")
        i = self.storage.intervals.interval_of_one(src)
        e = self._edits_for(i)
        e.adds = [a for a in e.adds if (a[0], a[1]) != (src, dst)]
        e.removes.add((src, dst))

    def record(self, op: str, src: int, dst: int, weight: float) -> None:
        """The ``mutate`` callback handed to programs: ``"add"``/``"remove"``."""
        if op == "add":
            self.add_edge(src, dst, weight)
        else:
            self.remove_edge(src, dst)

    def pending(self, interval: int) -> int:
        e = self._edits.get(interval)
        return e.count if e else 0

    @property
    def total_pending(self) -> int:
        return sum(e.count for e in self._edits.values())

    # -- overlay (loader view of the freshest topology) ----------------------

    def overlay_adjacency(
        self, v: int, neighbors: np.ndarray, weights: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Apply buffered edits of vertex ``v`` to its stored adjacency.

        Returns (possibly new) sorted ``(neighbors, weights)`` arrays.
        Cheap no-op when the vertex has no pending edits.
        """
        i = self.storage.intervals.interval_of_one(v)
        e = self._edits.get(i)
        if e is None or e.count == 0:
            return neighbors, weights
        adds = [(d, w) for s, d, w in e.adds if s == v]
        removes = {d for s, d in e.removes if s == v}
        if not adds and not removes:
            return neighbors, weights
        keep = ~np.isin(neighbors, list(removes)) if removes else np.ones(neighbors.shape[0], bool)
        nb = neighbors[keep]
        wt = weights[keep] if weights is not None else None
        if adds:
            add_d = np.asarray([d for d, _ in adds], dtype=nb.dtype)
            nb = np.concatenate([nb, add_d])
            if wt is not None:
                wt = np.concatenate([wt, np.asarray([w for _, w in adds])])
        order = np.argsort(nb, kind="stable")
        return nb[order], (wt[order] if wt is not None else None)

    def overlay_batch(
        self,
        verts: np.ndarray,
        degrees: np.ndarray,
        nb_flat: np.ndarray,
        w_flat: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """:meth:`overlay_adjacency` over a group's flat adjacency.

        ``nb_flat`` / ``w_flat`` hold the stored adjacency of the sorted,
        non-empty ``verts`` back to back (``degrees[i]`` entries each).
        Only vertices with pending edits are touched; returns the inputs
        unchanged when there are none.
        """
        first, last = self.storage.intervals.interval_of(verts[[0, -1]])
        pending = [e for i, e in self._edits.items() if first <= i <= last]
        edited = {op[0] for e in pending for op in (*e.adds, *e.removes)}
        hit = np.flatnonzero(np.isin(verts, list(edited))) if edited else ()
        if len(hit) == 0:
            return degrees, nb_flat, w_flat
        offsets = np.concatenate([[0], np.cumsum(degrees)])
        degrees = degrees.copy()
        nb_parts, w_parts, pos = [], [], 0
        for i in hit:
            lo, hi = offsets[i], offsets[i + 1]
            nb, wt = self.overlay_adjacency(
                int(verts[i]), nb_flat[lo:hi], None if w_flat is None else w_flat[lo:hi]
            )
            nb_parts += [nb_flat[pos:lo], nb]
            if w_flat is not None:
                w_parts += [w_flat[pos:lo], wt]
            degrees[i] = nb.shape[0]
            pos = hi
        nb_parts.append(nb_flat[pos:])
        if w_flat is not None:
            w_flat = np.concatenate(w_parts + [w_flat[pos:]])
        return degrees, np.concatenate(nb_parts), w_flat

    # -- merging ---------------------------------------------------------------

    def merge_interval(self, interval: int) -> None:
        """Rebuild interval files with the buffered edits applied."""
        e = self._edits.pop(interval, None)
        if e is None or e.count == 0:
            return
        files = self.storage.interval_files(interval)
        lo, hi = files.lo, files.hi
        # Charge: read the old interval data, write the new.
        files.colidx.read_all()
        if files.values is not None:
            files.values.read_all()

        # Rebuild local CSR with edits applied.
        old_rowptr = files.rowptr.array
        cols: List[np.ndarray] = []
        wts: List[np.ndarray] = [] if files.values is not None else None
        new_rowptr = np.zeros(hi - lo + 1, dtype=np.int64)
        adds_by_src: Dict[int, List[Tuple[int, float]]] = {}
        for s, d, w in e.adds:
            adds_by_src.setdefault(s, []).append((d, w))
        removes_by_src: Dict[int, Set[int]] = {}
        for s, d in e.removes:
            removes_by_src.setdefault(s, set()).add(d)
        for local in range(hi - lo):
            v = lo + local
            s0, s1 = int(old_rowptr[local]), int(old_rowptr[local + 1])
            nb = files.colidx.array[s0:s1]
            wt = files.values.array[s0:s1] if files.values is not None else None
            rem = removes_by_src.get(v)
            if rem:
                keep = ~np.isin(nb, list(rem))
                nb = nb[keep]
                if wt is not None:
                    wt = wt[keep]
            add = adds_by_src.get(v)
            if add:
                nb = np.concatenate([nb, np.asarray([d for d, _ in add], dtype=np.int32)])
                if wt is not None:
                    wt = np.concatenate([wt, np.asarray([w for _, w in add])])
                order = np.argsort(nb, kind="stable")
                nb = nb[order]
                if wt is not None:
                    wt = wt[order]
            cols.append(nb)
            if wts is not None:
                wts.append(wt)
            new_rowptr[local + 1] = new_rowptr[local] + nb.shape[0]
        new_col = np.concatenate(cols) if cols else np.empty(0, np.int32)
        new_val = np.concatenate(wts) if wts else None
        self.storage.replace_interval(interval, new_rowptr, new_col, new_val)
        files.colidx.write_all()
        files.rowptr.write_all()
        if files.values is not None:
            files.values.write_all()
        self.merges += 1

    def merge_ready(self) -> None:
        """Merge every interval whose pending count reached the threshold."""
        for i in list(self._edits):
            if self._edits[i].count >= self.config.mutation_merge_threshold:
                self.merge_interval(i)

    def merge_all(self) -> None:
        """Merge everything (end of run, or forced consistency point)."""
        for i in list(self._edits):
            self.merge_interval(i)
