"""Update (message) batches.

A logged update is ``<v_dest, m>`` where the message ``m`` carries the
source vertex id and a numeric payload (paper §V-A).  Batches are
columnar NumPy arrays so sorting and grouping are vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

DEST_DTYPE = np.int32
SRC_DTYPE = np.int32
DATA_DTYPE = np.float64

#: Column layout shared by the multi-log buffers and the batches.
UPDATE_FIELDS = ("dest", "src", "data")
UPDATE_DTYPES = (DEST_DTYPE, SRC_DTYPE, DATA_DTYPE)


def stable_argsort_bounded(keys: np.ndarray, bound: Optional[int] = None) -> np.ndarray:
    """Stable ascending permutation of integer ``keys`` in ``[0, bound)``.

    Equal to ``np.argsort(keys, kind="stable")`` element for element, in
    O(n): NumPy's stable argsort is a radix sort for 8- and 16-bit keys
    and a timsort for wider ones, so the keys are narrowed to the
    smallest of the two that holds ``bound``, and a wider span takes LSD
    passes over 16-bit digits (each pass stable, so it keeps the order
    the lower digits established).  ``bound=None`` is ``keys.max() + 1``.
    """
    if bound is None:
        bound = int(keys.max(initial=0)) + 1
    # An integer cast to the digit dtype keeps the low bits: the first digit.
    order = np.argsort(keys.astype(np.uint8 if bound <= 1 << 8 else np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def natural_runs(keys: np.ndarray) -> int:
    """Number of natural runs in ``keys``: maximal non-decreasing stretches.

    0 for no keys, 1 for sorted keys, ``n`` for strictly descending ones.
    The compute meter charges a sort handed these runs as an idealised
    merge of ``log2(max(runs, 2))`` levels (``ComputeMeter.charge_sort``).
    """
    if keys.shape[0] == 0:
        return 0
    return 1 + int(np.count_nonzero(keys[1:] < keys[:-1]))


@dataclass
class UpdateBatch:
    """A columnar batch of updates."""

    dest: np.ndarray
    src: np.ndarray
    data: np.ndarray

    @classmethod
    def empty(cls) -> "UpdateBatch":
        return cls(*(np.empty(0, dt) for dt in UPDATE_DTYPES))

    def __post_init__(self) -> None:
        if not (self.dest.shape == self.src.shape == self.data.shape):
            raise ValueError("update columns must have equal length")

    @classmethod
    def of(cls, dest, src, data) -> "UpdateBatch":
        """Build a batch from array-likes, narrowed to the column dtypes.

        A destination that does not fit ``DEST_DTYPE`` keeps the
        caller's dtype instead of wrapping into range: the multi-log
        range-checks a batch before it narrows it, so such an id is
        rejected there by its true value.
        """
        d = np.asarray(dest)
        if d.dtype != DEST_DTYPE:
            narrow = d.astype(DEST_DTYPE)
            if (narrow == d).all():
                d = narrow
        return cls(d, np.asarray(src, SRC_DTYPE), np.asarray(data, DATA_DTYPE))

    @classmethod
    def concat(cls, batches: Iterable["UpdateBatch"]) -> "UpdateBatch":
        parts = [b for b in batches if b.n]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([b.dest for b in parts]),
            np.concatenate([b.src for b in parts]),
            np.concatenate([b.data for b in parts]),
        )

    @property
    def n(self) -> int:
        return int(self.dest.shape[0])

    def sort_by_dest(self) -> "UpdateBatch":
        """Stable sort by destination (the sort-and-group unit's sort)."""
        if self.n <= 1:
            return self
        order = stable_argsort_bounded(self.dest - self.dest.min())
        return UpdateBatch(self.dest[order], self.src[order], self.data[order])

    def group(self) -> Tuple[np.ndarray, np.ndarray]:
        """Group a *dest-sorted* batch.

        Returns ``(unique_dests, offsets)`` with ``offsets`` of length
        ``len(unique_dests) + 1``; the updates of ``unique_dests[i]``
        occupy rows ``offsets[i]:offsets[i+1]``.
        """
        if self.n == 0:
            return np.empty(0, DEST_DTYPE), np.zeros(1, np.int64)
        dest = self.dest
        starts = np.concatenate(([0], np.flatnonzero(dest[1:] != dest[:-1]) + 1))
        return dest[starts], np.append(starts, self.n).astype(np.int64)

    def is_sorted(self) -> bool:
        return self.n < 2 or bool(np.all(np.diff(self.dest) >= 0))
