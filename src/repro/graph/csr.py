"""Compressed-sparse-row graph representation (paper §III).

The CSR layout is the paper's foundational choice: the out-edges of a
vertex are contiguous, so loading one active vertex's adjacency touches
a minimal set of SSD pages.  :class:`CSRGraph` is the in-memory form
used to build the on-flash files (:mod:`repro.graph.storage`), the
GraphChi shards (:mod:`repro.graph.shards`), and as the golden source
for reference algorithm implementations.

Vertex ids are dense ``0..n-1``.  ``rowptr`` is int64 (8-byte row
pointers per paper §VI), ``colidx`` int32 (4-byte vertex ids),
``weights`` float64 or ``None``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import GraphFormatError


def csr_order(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> tuple:
    """``(order, rowptr)`` that lay an edge list out as a CSR.

    ``order`` is ``np.lexsort((cols, rows))`` element for element, taken
    as one stable argsort of the packed ``row * n_cols + col`` key:
    several times cheaper, nearly free on presorted input.  Ids fit
    int32 (``colidx`` does), so the int64 key cannot overflow.
    """
    key = rows * np.int64(n_cols)
    key += cols
    order = np.argsort(key, kind="stable")
    rowptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=rowptr[1:])
    return order, rowptr


class CSRGraph:
    """An immutable-by-convention CSR adjacency structure.

    Attributes
    ----------
    n:
        Number of vertices.
    rowptr:
        ``int64[n + 1]``; out-edges of ``v`` are
        ``colidx[rowptr[v]:rowptr[v+1]]``.
    colidx:
        ``int32[m]`` neighbor ids.
    weights:
        Optional ``float64[m]`` edge values, aligned with ``colidx``.
        Vertex programs that declare ``mutates_weights`` may write to
        (a copy of) this vector through the engine.
    """

    __slots__ = ("n", "rowptr", "colidx", "weights")

    def __init__(
        self,
        rowptr: np.ndarray,
        colidx: np.ndarray,
        weights: Optional[np.ndarray] = None,
        validate: bool = True,
    ) -> None:
        self.rowptr = np.ascontiguousarray(rowptr, dtype=np.int64)
        self.colidx = np.ascontiguousarray(colidx, dtype=np.int32)
        self.weights = None if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        self.n = int(self.rowptr.shape[0]) - 1
        if validate:
            self.validate()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
        symmetrize: bool = False,
        dedup: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Parameters
        ----------
        n:
            Number of vertices; all ids must be in ``[0, n)``.
        src, dst:
            Edge endpoint arrays.
        weights:
            Optional per-edge values (default 1.0 when symmetrizing or
            deduping requires materialisation).
        symmetrize:
            Add the reverse of every edge (paper's datasets are
            undirected: "for an edge, each of its end vertices appears
            in the neighboring list of the other end vertex").
        dedup:
            Drop duplicate ``(src, dst)`` pairs, keeping the first.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphFormatError("src/dst must be equal-length 1-D arrays")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise GraphFormatError(f"vertex id out of range [0, {n})")
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        if w is not None and w.shape != src.shape:
            raise GraphFormatError("weights length mismatch")

        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if w is not None:
                w = np.concatenate([w, w])
        if dedup and src.size:
            keys = src * np.int64(n) + dst
            _, first = np.unique(keys, return_index=True)
            first.sort()
            src, dst = src[first], dst[first]
            if w is not None:
                w = w[first]

        order, rowptr = csr_order(src, dst, n, n)
        return cls(
            rowptr, dst[order].astype(np.int32), None if w is None else w[order], validate=False
        )

    @classmethod
    def from_networkx(cls, g, weight_attr: Optional[str] = None) -> "CSRGraph":
        """Build from a :mod:`networkx` graph with integer nodes ``0..n-1``."""
        n = g.number_of_nodes()
        src, dst, w = [], [], []
        for u, v, data in g.edges(data=True):
            src.append(u)
            dst.append(v)
            if weight_attr is not None:
                w.append(data.get(weight_attr, 1.0))
        weights = np.asarray(w) if weight_attr is not None else None
        return cls.from_edges(
            n,
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            weights,
            symmetrize=not g.is_directed(),
        )

    def to_networkx(self):
        """Export to a directed :mod:`networkx` graph (lazy import)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        for v in range(self.n):
            for j in range(self.rowptr[v], self.rowptr[v + 1]):
                u = int(self.colidx[j])
                if self.weights is not None:
                    g.add_edge(v, u, weight=float(self.weights[j]))
                else:
                    g.add_edge(v, u)
        return g

    # -- accessors ------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of directed edges (CSR entries)."""
        return int(self.colidx.shape[0])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.rowptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.colidx, minlength=self.n).astype(np.int64)

    def out_degree(self, v: int) -> int:
        return int(self.rowptr[v + 1] - self.rowptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """View of ``v``'s out-neighbor ids."""
        return self.colidx[self.rowptr[v] : self.rowptr[v + 1]]

    def edge_range(self, v: int) -> Tuple[int, int]:
        return int(self.rowptr[v]), int(self.rowptr[v + 1])

    def weight_slice(self, v: int) -> Optional[np.ndarray]:
        if self.weights is None:
            return None
        return self.weights[self.rowptr[v] : self.rowptr[v + 1]]

    def with_unit_weights(self) -> "CSRGraph":
        """Copy of this graph with all-ones weights (no-op if weighted)."""
        if self.weights is not None:
            return self
        return CSRGraph(self.rowptr, self.colidx, np.ones(self.m), validate=False)

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate directed edges as ``(src, dst)`` pairs."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees)
        return zip(src.tolist(), self.colidx.astype(np.int64).tolist())

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Directed edges as ``(src, dst)`` arrays."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees)
        return src, self.colidx.astype(np.int64)

    # -- integrity --------------------------------------------------------------

    def validate(self) -> None:
        """Check CSR invariants; raise :class:`GraphFormatError` if broken."""
        if self.rowptr.ndim != 1 or self.rowptr.shape[0] < 1:
            raise GraphFormatError("rowptr must be 1-D with at least one entry")
        if self.rowptr[0] != 0:
            raise GraphFormatError("rowptr[0] must be 0")
        if np.any(np.diff(self.rowptr) < 0):
            raise GraphFormatError("rowptr must be non-decreasing")
        if self.rowptr[-1] != self.colidx.shape[0]:
            raise GraphFormatError("rowptr[-1] must equal len(colidx)")
        if self.colidx.size and (self.colidx.min() < 0 or self.colidx.max() >= self.n):
            raise GraphFormatError("colidx entry out of range")
        if self.weights is not None and self.weights.shape != self.colidx.shape:
            raise GraphFormatError("weights length mismatch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.m}, weighted={self.weights is not None})"
