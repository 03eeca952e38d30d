"""Optional combine (reduction) fast path (paper §V-D).

Algorithms whose updates are associative and commutative may declare a
*combine* operator; the sort-and-group unit then reduces all updates
bound to one destination into a single update before the vertex runs.
Algorithms like CDLP / coloring / MIS / random walk must NOT use this
path -- every update is delivered individually, which is MultiLogVC's
generality claim over GraFBoost.

A combine spec is either one of the named operators (``"add"``,
``"min"``, ``"max"``) -- reduced with vectorised ``ufunc.reduceat`` --
or a callable ``f(data_slice) -> float`` applied per group.

**The combine tree** (DESIGN.md §15).  Float ``add`` is not
associative, so *where* a named combine is applied must not change a
value.  The order is therefore fixed by a two-level tree over a static
vertex partition (``intervals``; the *source interval* of an update is
the interval holding its ``src``, the sending vertex):

* level 1 reduces, per destination, each maximal run of consecutive
  updates (in send order) from one source interval to one partial;
* level 2 reduces a destination's partials in ascending source-interval
  order (stable, so equal intervals keep their arrival order).

:func:`precombine` is level 1 alone: what MultiLogVC applies to a
group's sends before they reach the log.  It sorts the whole batch by
destination once, stably, and reduces the runs with ``reduceat``; that
one sort is what the reduce is charged (DESIGN.md §15).
:func:`combine_sorted` is the whole tree.  A partial is a run of length one, so running the
tree over partials, raw updates or any mix of the two gives the same
bits; nothing about groups, buffers or eviction enters the definition.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..errors import ProgramError
from ..graph.partition import VertexIntervals
from .update import DATA_DTYPE, SRC_DTYPE, UpdateBatch

CombineSpec = Union[str, Callable[[np.ndarray], float]]

_NAMED = {"add": np.add, "min": np.minimum, "max": np.maximum}

#: Source id used for synthesised (combined) updates.
COMBINED_SRC = -1


def validate_combine(spec: CombineSpec) -> None:
    if isinstance(spec, str):
        if spec not in _NAMED:
            raise ProgramError(f"unknown combine {spec!r}; pick from {sorted(_NAMED)} or pass a callable")
    elif not callable(spec):
        raise ProgramError("combine must be a named operator or a callable")


def _source_intervals(src: np.ndarray, intervals: VertexIntervals) -> np.ndarray:
    # Clipped, so any src maps to some bucket (a seed may carry an
    # out-of-graph one).
    return intervals.dense.take(src, mode="clip")


def _reduce_runs(batch: UpdateBatch, ufunc: np.ufunc, intervals: VertexIntervals):
    """Level 1 over a non-empty dest-sorted batch.

    Returns ``(starts, source_intervals, partials)``: the first row, the
    source interval and the reduced payload of every maximal run of
    equal (destination, source interval), in batch order.
    """
    ival = _source_intervals(batch.src, intervals)
    dest = batch.dest
    breaks = np.flatnonzero((dest[1:] != dest[:-1]) | (ival[1:] != ival[:-1])) + 1
    starts = np.concatenate(([0], breaks))
    return starts, ival[starts], ufunc.reduceat(batch.data, starts)


def precombine(batch: UpdateBatch, spec: str, intervals: VertexIntervals) -> UpdateBatch:
    """Level 1 of the tree: one update per (destination, source-interval) run.

    ``batch`` is in send order; the result is dest-sorted, each partial
    carrying its run's first ``src`` (so its source interval survives).
    Column dtypes are kept: range-check destinations before, not after.
    """
    if batch.n == 0:
        return batch
    batch = batch.sort_by_dest()
    starts, _, partials = _reduce_runs(batch, _NAMED[spec], intervals)
    return UpdateBatch(batch.dest[starts], batch.src[starts], partials)


def combine_sorted(
    batch: UpdateBatch,
    uniq: np.ndarray,
    offsets: np.ndarray,
    spec: CombineSpec,
    intervals: Optional[VertexIntervals] = None,
) -> Tuple[UpdateBatch, np.ndarray, np.ndarray]:
    """Reduce a dest-sorted, grouped batch to one update per destination.

    For a named ``spec`` this is the two-level tree over ``intervals``
    (``None``: one source interval, i.e. a flat reduce per destination
    -- the edge-streaming baselines, whose order is their own).  A
    callable is applied to each destination's slice as is.

    Returns the reduced ``(batch, unique_dests, offsets)`` triple in the
    same shape contract as :meth:`UpdateBatch.group`.
    """
    validate_combine(spec)
    k = int(uniq.shape[0])
    if k == 0:
        return batch, uniq, offsets
    if not isinstance(spec, str):
        reduced = np.fromiter(
            (spec(batch.data[offsets[i] : offsets[i + 1]]) for i in range(k)),
            dtype=DATA_DTYPE,
            count=k,
        )
    elif intervals is None:
        reduced = _NAMED[spec].reduceat(batch.data, offsets[:-1])
    else:
        ufunc = _NAMED[spec]
        starts, ival, partials = _reduce_runs(batch, ufunc, intervals)
        # Every destination starts a run, so its first partial is found
        # among the run starts exactly.
        first = np.searchsorted(starts, offsets[:-1])
        # Level 2.  A superstep's sends already arrive in ascending
        # source order (vertices run in id order); seeds need not.
        pdest = batch.dest[starts]
        if ((ival[1:] < ival[:-1]) & (pdest[1:] == pdest[:-1])).any():
            partials = partials[np.lexsort((ival, pdest))]
        reduced = ufunc.reduceat(partials, first)
    out = UpdateBatch(
        uniq.copy(),
        np.full(k, COMBINED_SRC, dtype=SRC_DTYPE),
        np.asarray(reduced, dtype=DATA_DTYPE),
    )
    new_offsets = np.arange(k + 1, dtype=np.int64)
    return out, uniq, new_offsets
