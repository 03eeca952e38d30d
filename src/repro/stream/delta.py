"""Columnar edge-update batches.

An :class:`EdgeDelta` is the stream layer's unit of ingestion: a batch
of timestamped edge insertions and deletions in arrival order.  Like
:class:`~repro.core.update.UpdateBatch` it is columnar NumPy so
bucketing by interval and packing into log pages stay vectorised.

Semantics (DESIGN.md §12):

* ``add``   -- append a directed edge ``src -> dst`` (parallel edges
  allowed, matching :meth:`CSRGraph.from_edges` without ``dedup``);
* ``delete`` -- tombstone **every** live instance of ``(src, dst)``,
  whether it came from the base graph or an earlier insertion.
  Deleting an absent edge is a no-op (counted in ``ingest_stats``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.update import stable_argsort_bounded
from ..errors import GraphFormatError
from ..graph.partition import VertexIntervals

#: Operation codes stored in the ``op`` column.
OP_ADD = np.uint8(0)
OP_DELETE = np.uint8(1)

#: Bytes one logged update record occupies on flash: op(1) + src(4) +
#: dst(4) + weight(8) + timestamp(8).  Used for log-page packing and
#: useful-byte accounting.
RECORD_BYTES = 25


@dataclass
class EdgeDelta:
    """A columnar batch of edge insertions/deletions, in arrival order."""

    op: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    ts: np.ndarray

    @classmethod
    def empty(cls) -> "EdgeDelta":
        return cls(
            np.empty(0, np.uint8),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.float64),
            np.empty(0, np.int64),
        )

    @classmethod
    def of(cls, op, src, dst, w=None, ts=None) -> "EdgeDelta":
        o = np.asarray(op, np.uint8)
        s = np.asarray(src, np.int64)
        d = np.asarray(dst, np.int64)
        x = np.ones(o.shape, np.float64) if w is None else np.asarray(w, np.float64)
        t = np.zeros(o.shape, np.int64) if ts is None else np.asarray(ts, np.int64)
        if not (o.shape == s.shape == d.shape == x.shape == t.shape) or o.ndim != 1:
            raise GraphFormatError("delta columns must be equal-length 1-D arrays")
        if o.size and o.max() > 1:
            raise GraphFormatError("op codes must be 0 (add) or 1 (delete)")
        return cls(o, s, d, x, t)

    @classmethod
    def concat(cls, deltas: Iterable["EdgeDelta"]) -> "EdgeDelta":
        parts = [d for d in deltas if d.n]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([d.op for d in parts]),
            np.concatenate([d.src for d in parts]),
            np.concatenate([d.dst for d in parts]),
            np.concatenate([d.w for d in parts]),
            np.concatenate([d.ts for d in parts]),
        )

    @property
    def n(self) -> int:
        return int(self.op.shape[0])

    @property
    def n_adds(self) -> int:
        return int(np.count_nonzero(self.op == OP_ADD))

    @property
    def n_deletes(self) -> int:
        return int(np.count_nonzero(self.op == OP_DELETE))

    def take(self, idx) -> "EdgeDelta":
        """Row subset (preserving the given order); a slice gives views."""
        return EdgeDelta(self.op[idx], self.src[idx], self.dst[idx], self.w[idx], self.ts[idx])

    def sorted_by_interval(self, intervals: VertexIntervals) -> "EdgeDelta":
        """The batch sorted by source-vertex interval, ascending, each
        interval's records in arrival order (one stable sort)."""
        iv = intervals.interval_of(self.src)
        return self.take(stable_argsort_bounded(iv, intervals.n_intervals))

    def validate(self, n: int) -> None:
        """Check all endpoints lie in ``[0, n)``."""
        if self.n and (
            min(self.src.min(), self.dst.min()) < 0
            or max(self.src.max(), self.dst.max()) >= n
        ):
            raise GraphFormatError(f"delta endpoint out of range [0, {n})")

    def to_records(self) -> list:
        """Plain-dict rows (JSONL export / CLI display)."""
        return [
            {
                "op": "delete" if o else "add",
                "src": int(s),
                "dst": int(d),
                "w": float(x),
                "ts": int(t),
            }
            for o, s, d, x, t in zip(self.op, self.src, self.dst, self.w, self.ts)
        ]

    @classmethod
    def from_records(cls, rows: Iterable[dict]) -> "EdgeDelta":
        """Parse rows as produced by :meth:`to_records` (JSONL import)."""
        ops, src, dst, w, ts = [], [], [], [], []
        for i, row in enumerate(rows):
            op = row.get("op")
            if op not in ("add", "delete"):
                raise GraphFormatError(f"record {i}: op must be 'add' or 'delete', got {op!r}")
            if "src" not in row or "dst" not in row:
                raise GraphFormatError(f"record {i}: missing src/dst")
            ops.append(1 if op == "delete" else 0)
            src.append(int(row["src"]))
            dst.append(int(row["dst"]))
            w.append(float(row.get("w", 1.0)))
            ts.append(int(row.get("ts", i)))
        return cls.of(ops, src, dst, w, ts)


def random_delta(
    rng: np.random.Generator,
    n: int,
    live_src: np.ndarray,
    live_dst: np.ndarray,
    n_ops: int,
    p_delete: float = 0.3,
    weighted: bool = False,
    ts0: int = 0,
) -> EdgeDelta:
    """Generate a seeded random update batch against the live edge set.

    Deletions target existing edges when any are live (plus an
    occasional absent pair, exercising the no-op path); insertions pick
    uniform endpoints, so self-loops and parallel edges occur -- the
    same adversarial surface the conformance fuzzer uses for graphs.
    """
    live_src = np.asarray(live_src, np.int64)
    live_dst = np.asarray(live_dst, np.int64)
    ops = (rng.random(n_ops) < p_delete).astype(np.uint8)
    src = rng.integers(0, n, n_ops, dtype=np.int64)
    dst = rng.integers(0, n, n_ops, dtype=np.int64)
    dels = np.flatnonzero(ops == OP_DELETE)
    if live_src.size:
        # ~7/8 of deletes hit a live edge; the rest keep their random
        # (likely absent) pair.
        hit = dels[rng.random(dels.size) < 0.875]
        pick = rng.integers(0, live_src.size, hit.size)
        src[hit] = live_src[pick]
        dst[hit] = live_dst[pick]
    w = rng.uniform(0.5, 4.0, n_ops) if weighted else np.ones(n_ops)
    ts = ts0 + np.arange(n_ops, dtype=np.int64)
    return EdgeDelta.of(ops, src, dst, w, ts)
