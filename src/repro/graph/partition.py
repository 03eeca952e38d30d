"""Vertex-interval partitioning (paper §V-A1).

MultiLogVC statically partitions the vertex id space into contiguous
*intervals* sized by the paper's conservative rule: assume every
incoming edge of every vertex may carry one update, and bound the
interval so that the worst-case update volume -- ``sum(in_degree) *
update_record_bytes`` -- fits in the sort-and-group memory budget.
That guarantees each interval's multi-log can always be sorted fully
in memory, which is the property that eliminates external sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Tuple

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph


@dataclass(frozen=True)
class VertexIntervals:
    """Contiguous partition of ``0..n-1`` into half-open intervals.

    ``boundaries`` has ``k + 1`` entries; interval ``i`` covers vertices
    ``[boundaries[i], boundaries[i+1])``.
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=np.int64)
        if b.ndim != 1 or b.shape[0] < 2:
            raise GraphFormatError("boundaries must be 1-D with >= 2 entries")
        if b[0] != 0 or np.any(np.diff(b) <= 0):
            raise GraphFormatError("boundaries must start at 0 and strictly increase")
        object.__setattr__(self, "boundaries", b)

    @property
    def n_intervals(self) -> int:
        return int(self.boundaries.shape[0]) - 1

    @property
    def n_vertices(self) -> int:
        return int(self.boundaries[-1])

    def span(self, i: int) -> Tuple[int, int]:
        """Half-open vertex range of interval ``i``."""
        return int(self.boundaries[i]), int(self.boundaries[i + 1])

    def size(self, i: int) -> int:
        lo, hi = self.span(i)
        return hi - lo

    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @cached_property
    def dense(self) -> np.ndarray:
        """The vertex -> interval map as one ``int32`` per vertex.

        For the hot paths, where a gather beats :meth:`interval_of`'s
        binary search twenty-fold; built on first use and shared.
        """
        k = self.n_intervals
        return np.repeat(np.arange(k, dtype=np.int32), np.diff(self.boundaries))

    def interval_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised vertex-id -> interval-id map (paper's vId2IntervalMap)."""
        v = np.asarray(vertices)
        out = np.searchsorted(self.boundaries, v, side="right") - 1
        return out.astype(np.int64)

    def interval_of_one(self, v: int) -> int:
        return int(np.searchsorted(self.boundaries, v, side="right")) - 1

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(interval_id, lo, hi)`` triples."""
        for i in range(self.n_intervals):
            lo, hi = self.span(i)
            yield i, lo, hi


def partition_by_update_volume(
    graph: CSRGraph,
    capacity_bytes: int,
    update_bytes: int,
    min_intervals: int = 1,
) -> VertexIntervals:
    """Partition vertices so each interval's worst-case log fits in memory.

    Implements §V-A1: contiguous vertex segments with
    ``sum(in_degree) * update_bytes <= capacity_bytes`` each.  A vertex
    whose in-degree alone exceeds the budget still gets its own interval
    (its log will spill to flash, but sorting one vertex's updates needs
    no grouping, so the in-memory guarantee degrades gracefully -- same
    behaviour as letting an administrator under-provision the VM).

    Parameters
    ----------
    min_intervals:
        Force at least this many intervals (used by tests and by the
        fusing experiments to create interesting interval structure).
    """
    if capacity_bytes <= 0:
        raise GraphFormatError("capacity_bytes must be positive")
    if update_bytes <= 0:
        raise GraphFormatError("update_bytes must be positive")
    n = graph.n
    if n == 0:
        raise GraphFormatError("cannot partition an empty graph")

    budget_updates = max(1, capacity_bytes // update_bytes)
    if min_intervals > 1:
        budget_updates = min(budget_updates, max(1, graph.m // min_intervals))

    indeg = graph.in_degrees
    cum = np.concatenate([[0], np.cumsum(indeg)])
    boundaries = [0]
    lo = 0
    while lo < n:
        # Furthest hi with cum[hi] - cum[lo] <= budget; at least lo+1.
        hi = int(np.searchsorted(cum, cum[lo] + budget_updates, side="right")) - 1
        hi = max(hi, lo + 1)
        hi = min(hi, n)
        boundaries.append(hi)
        lo = hi
    return VertexIntervals(np.asarray(boundaries, dtype=np.int64))


def static_partition(graph: CSRGraph, config, options=None) -> VertexIntervals:
    """MultiLogVC's vertex intervals for ``(graph, config, options)``.

    ``options.intervals`` when given, else the §V-A1 sizing rule over
    the sort budget with ``options.min_intervals`` (``None`` means the
    default options).  A pure function of its arguments: it is also the
    partition the combine tree is defined over
    (:mod:`repro.core.combine`), so the oracle and the baselines call
    this rather than spell the rule again.
    """
    if options is not None and options.intervals is not None:
        return options.intervals
    return partition_by_update_volume(
        graph,
        config.memory.sort_bytes,
        config.records.update_bytes,
        min_intervals=1 if options is None else options.min_intervals,
    )


def uniform_partition(n: int, n_intervals: int) -> VertexIntervals:
    """Equal-width partition, for tests and baselines."""
    if n_intervals < 1 or n < 1:
        raise GraphFormatError("need n >= 1 and n_intervals >= 1")
    n_intervals = min(n_intervals, n)
    bounds = np.linspace(0, n, n_intervals + 1).round().astype(np.int64)
    bounds = np.unique(bounds)
    return VertexIntervals(bounds)


def partition_by_edge_volume(
    graph: CSRGraph,
    capacity_bytes: int,
    edge_record_bytes: int,
) -> VertexIntervals:
    """Partition by *in-edge storage* volume (GraphChi shard sizing).

    GraphChi sizes shards so any one shard (all in-edges of the
    interval) fits in memory; the rule is identical to
    :func:`partition_by_update_volume` but with the shard edge record
    size.
    """
    return partition_by_update_volume(graph, capacity_bytes, edge_record_bytes)
