"""GraphChi shard structure (paper §II-A, Fig. 1b) on the simulated SSD.

GraphChi partitions vertices into intervals and stores, per interval,
one *shard* holding all in-edges of that interval **sorted by source
vertex**.  Processing interval ``i`` loads shard ``i`` entirely (the
"memory shard") plus, from every other shard ``j``, the contiguous
*sliding window* of rows whose source lies in interval ``i`` -- that
window contains the out-edges of interval ``i``'s vertices stored in
shard ``j``.

Edge records are ``(src, dst, value)`` (16 bytes, §VI record sizes);
the ``value`` field carries messages between supersteps and doubles as
per-edge application state (e.g. CDLP labels), exactly how GraphChi
programs communicate.  A per-edge ``stamp`` records the superstep that
last wrote the value so the engine can distinguish fresh messages from
stale state; the stamp is bookkeeping within the 16-byte record, not
extra storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..errors import GraphFormatError
from ..ssd.file import ArrayFile
from ..ssd.filesystem import SimFS
from .csr import CSRGraph
from .partition import VertexIntervals, partition_by_edge_volume

KLASS_SHARD = "shard"


@dataclass
class Shard:
    """All in-edges of one vertex interval, sorted by source."""

    interval: int
    lo: int
    hi: int
    src: np.ndarray  # int64, sorted (ties broken by dst)
    dst: np.ndarray  # int64
    value: np.ndarray  # float64 persistent per-edge application state
    #: two parity-indexed message slots; slot ``s % 2`` carries the
    #: message delivered at superstep ``s`` (BSP edge-data versioning,
    #: so a superstep-s message survives the sender rewriting the edge
    #: for superstep s+1 before the receiver's interval is processed)
    msg_value: np.ndarray  # float64[2, m]
    msg_stamp: np.ndarray  # int64[2, m], -1 = never written
    weight: Optional[np.ndarray]  # static input weight, or None
    file: ArrayFile = field(repr=False)
    #: row range in this shard for each source interval (sliding windows)
    window_rows: np.ndarray = field(repr=False)  # int64[k + 1]
    #: permutation sorting rows by dst, plus dst group offsets, for
    #: gathering the in-edges of one destination vertex.
    dst_order: np.ndarray = field(repr=False)
    dst_rowptr: np.ndarray = field(repr=False)  # local per-dst offsets (hi-lo+1)

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])

    def window(self, src_interval: int) -> Tuple[int, int]:
        """Row range of edges whose source lies in ``src_interval``."""
        return int(self.window_rows[src_interval]), int(self.window_rows[src_interval + 1])

    def in_edge_rows(self, v: int) -> np.ndarray:
        """Row indices (into shard arrays) of in-edges of vertex ``v``."""
        local = v - self.lo
        s, e = int(self.dst_rowptr[local]), int(self.dst_rowptr[local + 1])
        return self.dst_order[s:e]

    def out_edge_rows(self, v: int) -> Tuple[int, int]:
        """Row range of edges with source ``v`` (binary search)."""
        s = int(np.searchsorted(self.src, v, side="left"))
        e = int(np.searchsorted(self.src, v, side="right"))
        return s, e

    def edge_row(self, u: int, w: int) -> int:
        """Row of the specific edge ``u -> w``; -1 if absent."""
        s, e = self.out_edge_rows(u)
        sub = self.dst[s:e]
        k = int(np.searchsorted(sub, w))
        if k < sub.shape[0] and sub[k] == w:
            return s + k
        return -1


class ShardedGraph:
    """A graph in GraphChi shard format on the simulated SSD."""

    def __init__(
        self,
        graph: CSRGraph,
        fs: SimFS,
        config: SimConfig,
        intervals: Optional[VertexIntervals] = None,
        name: str = "shards",
    ) -> None:
        self.graph = graph
        self.fs = fs
        self.config = config
        if intervals is None:
            intervals = partition_by_edge_volume(
                graph, config.memory.sort_bytes, config.records.edge_record_bytes
            )
        if intervals.n_vertices != graph.n:
            raise GraphFormatError("interval partition does not cover the graph")
        self.intervals = intervals
        self.shards: List[Shard] = []
        src_all, dst_all = graph.edge_array()
        w_all = graph.weights
        dst_interval = intervals.interval_of(dst_all)
        rec = config.records
        for i, lo, hi in intervals:
            mask = dst_interval == i
            s = src_all[mask]
            d = dst_all[mask]
            w = w_all[mask] if w_all is not None else None
            order = np.lexsort((d, s))
            s, d = s[order], d[order]
            if w is not None:
                w = w[order]
            window_rows = np.searchsorted(s, intervals.boundaries).astype(np.int64)
            dst_order = np.argsort(d, kind="stable").astype(np.int64)
            local_dst = d[dst_order] - lo
            dst_rowptr = np.zeros(hi - lo + 1, dtype=np.int64)
            np.add.at(dst_rowptr, local_dst + 1, 1)
            np.cumsum(dst_rowptr, out=dst_rowptr)
            f = fs.create_array_file(
                f"{name}.{i}", KLASS_SHARD, np.empty(s.shape[0]), rec.edge_record_bytes
            )
            self.shards.append(
                Shard(
                    interval=i,
                    lo=lo,
                    hi=hi,
                    src=s,
                    dst=d,
                    value=np.zeros(s.shape[0], dtype=np.float64),
                    msg_value=np.zeros((2, s.shape[0]), dtype=np.float64),
                    msg_stamp=np.full((2, s.shape[0]), -1, dtype=np.int64),
                    weight=w,
                    file=f,
                    window_rows=window_rows,
                    dst_order=dst_order,
                    dst_rowptr=dst_rowptr,
                )
            )

    # -- geometry -------------------------------------------------------

    @property
    def n_intervals(self) -> int:
        return self.intervals.n_intervals

    def shard_of(self, v: int) -> Shard:
        return self.shards[self.intervals.interval_of_one(v)]

    def total_pages(self) -> int:
        return sum(s.file.n_pages for s in self.shards)

    # -- message plumbing -------------------------------------------------

    def deliver(self, u: int, w: int, data: float, stamp: int) -> bool:
        """Write message ``data`` on edge ``u -> w`` (returns False if absent)."""
        return self.deliver_many([u], [w], [data], stamp) < 0

    def deliver_many(self, src, dst, data, stamp: int) -> int:
        """Write message ``data[k]`` on edge ``src[k] -> dst[k]``, in order.

        A later message on an edge overwrites an earlier one.  Returns -1,
        or the position of the first message whose edge is absent (then
        nothing is written).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        n = self.graph.n
        iv = self.intervals.interval_of(dst)
        found, missing = [], []
        for i, shard in enumerate(self.shards):
            sel = np.flatnonzero(iv == i)
            if sel.size == 0:
                continue
            # Rows are sorted by (src, dst): the first row with the key
            # is the edge (the first of any parallel edges).
            keys = shard.src * n + shard.dst
            q = src[sel] * n + dst[sel]
            rows = np.searchsorted(keys, q)
            hit = rows < keys.shape[0]
            hit[hit] = keys[rows[hit]] == q[hit]
            if not hit.all():
                missing.append(int(sel[~hit][0]))
            found.append((shard, sel, rows))
        if missing:
            return min(missing)
        slot = stamp & 1
        for shard, sel, rows in found:
            last = rows.shape[0] - 1 - np.unique(rows[::-1], return_index=True)[1]
            shard.msg_value[slot, rows[last]] = data[sel[last]]
            shard.msg_stamp[slot, rows[last]] = stamp
        return -1

    def fresh_in_edges(self, v: int, stamp: int) -> Tuple[np.ndarray, np.ndarray]:
        """In-edges of ``v`` whose value was written at ``stamp``.

        Returns ``(sources, values)`` -- the messages ``v`` receives.
        """
        shard = self.shard_of(v)
        rows = shard.in_edge_rows(v)
        slot = stamp & 1
        fresh = rows[shard.msg_stamp[slot, rows] == stamp]
        return shard.src[fresh], shard.msg_value[slot, fresh]

    def in_edge_state(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """All in-edge ``(sources, values)`` of ``v`` (persistent state)."""
        shard = self.shard_of(v)
        rows = shard.in_edge_rows(v)
        return shard.src[rows], shard.value[rows]
