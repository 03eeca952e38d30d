"""A fixed reference kernel: this machine's speed, sampled beside every repetition.

The sandbox this benchmark runs in is a small shared VM whose speed
drifts by 15-25 % over minutes (measured while writing the benchmark:
the same commit's ``pr_dense`` median moved from 0.79 s to 0.98 s within
half an hour, user time and all -- the machine slows down, the process is
not descheduled).  No statistic over one run's repetitions removes a
drift that outlasts the run, so raw seconds cannot be gated tighter than
that drift.

The kernel does a fixed amount of work of the same two kinds the engine
does -- NumPy sort / gather / scan over arrays larger than the cache, and
an interpreter-bound loop -- and none of the code under test, so a change
to the repo cannot move it.  Timed right before and after each timed
segment, it tracks the machine (block-level correlation with the
workloads' wall time 0.8-0.86 in a 9-minute interleaved run) and the
``*_rel`` metrics divide by it: ``wall_rel`` is a repetition's wall time
in units of the reference kernel's time beside it.  Over ten seeds that
cut the run-to-run spread from 9-21 % to 2-10 % and the shift between two
sets from 8-24 % to under 5 %; raw seconds are reported next to every
ratio.
"""

from __future__ import annotations

import time

import numpy as np


class ReferenceKernel:
    """~40 ms of fixed NumPy + interpreter work on seeded private arrays."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210517)
        self._keys = rng.integers(0, 1 << 30, 200_000)
        self._index = rng.integers(0, 1_000_000, 400_000)
        self._table = rng.random(1_000_000)

    def run(self) -> float:
        """Do the fixed work once; returns the seconds it took."""
        t0 = time.perf_counter()
        order = np.argsort(self._keys, kind="stable")
        np.cumsum(self._keys[order])
        self._table[self._index].sum()
        np.unique(self._keys[:50_000])
        acc, kept, seen = 0, [], {}
        for i in range(40_000):
            acc += i * i % 7
            if i % 3 == 0:
                kept.append(i)
            seen[i & 1023] = acc
        return time.perf_counter() - t0
