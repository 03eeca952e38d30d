"""Per-group I/O demand plan: collect, coalesce, dispatch (DESIGN.md §13).

The seed engine's read paths each submit their own device batch: every
interval's rowptr ranges, colidx ranges, value ranges and multi-log
``read_all`` pay a separate ``batch_overhead_us`` and a separate
``max_over_channels`` latency term.  FlashGraph's user-task I/O layer
closes exactly this gap by merging adjacent requests before they reach
the SSD; :class:`IOPlan` is the simulation-side equivalent.

A plan lives for one prepared group.  Read paths call :meth:`add`
*instead of* charging the device; the plan snapshots each path's page
demand (cache-filtered at add time, in the same order the uncoalesced
reads would have consulted the cache, and with the channel placement
captured before any later truncate can move it).  :meth:`execute` then
charges the whole group's demand as one submission per storage class:

* runs of adjacent pages in the same file become **extents**, charged
  through :meth:`SimulatedSSD.read_plan`'s sequential path (contiguous
  pages are interspersed across channels, so an extent of ``L`` pages
  costs ``ceil(L/C)`` latencies -- the same cost
  ``sequential_read_time`` models);
* the remaining scattered pages are reordered **channel-round-robin**
  and dispatched in bounded waves, so each wave's per-channel queue
  depths differ by at most one given the demand's channel multiset.

Because per-class page counts are preserved exactly (only the batching
changes), ``pages_read`` and per-class stats stay bit-identical to the
unplanned engine; only batch counts and simulated time shrink.

Determinism: a plan is built and executed inside one ``prepare()``
call, under the device's deferred-charge queue, so the coalesced
charges commit at the canonical group-order point exactly like
uncoalesced ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from ..core.update import stable_argsort_bounded
from ..errors import StorageError

#: Storage class the read-ahead prefetcher charges under.  Keeping it
#: distinct from the demand classes means ``coalesce`` mode's per-class
#: page counts stay bit-identical to planner-off mode.
KLASS_READAHEAD = "readahead"

#: Minimum run length (in adjacent pages) promoted to an extent; a
#: single page gains nothing from the sequential path.
MIN_EXTENT_PAGES = 2

#: Scattered-dispatch bound: one wave submits at most this many pages
#: per channel, modelling a bounded per-channel submission queue.
WAVE_QUEUE_DEPTH = 64


def split_runs(page_ids: np.ndarray) -> List[Tuple[int, int]]:
    """Split sorted page ids into maximal runs ``(first_page, length)``.

    Input must be sorted and unique (every read path in the tree hands
    over sorted unique page ids); duplicates would silently merge.
    """
    ids = np.asarray(page_ids, dtype=np.int64)
    if ids.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(ids) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [ids.size]))
    return [(int(ids[a]), int(b - a)) for a, b in zip(starts, stops)]


def balance_order(channels: np.ndarray) -> np.ndarray:
    """The permutation :func:`balance_channels` applies.

    Returned as indices into the input so a device-array plan can
    reorder its per-page device vector identically to the channel
    vector (the two must stay aligned through wave slicing).
    """
    ch = np.asarray(channels, dtype=np.int64)
    if ch.size <= 1:
        return np.arange(ch.size, dtype=np.int64)
    order = stable_argsort_bounded(ch)
    sorted_ch = ch[order]
    first = np.searchsorted(sorted_ch, sorted_ch)  # each channel's first page
    rank = np.arange(ch.size, dtype=np.int64) - first
    return order[np.lexsort((sorted_ch, rank))]


def balance_channels(channels: np.ndarray) -> np.ndarray:
    """Reorder a channel vector round-robin across channels.

    Stable-sorts by channel, ranks each page within its channel's queue,
    then orders by ``(rank, channel)``: position ``k`` of the output
    holds the ``k // n_channels``-th page of each channel in turn.  Any
    contiguous wave cut from the result has per-channel queue depths
    within one of the best achievable for the given channel multiset.
    """
    ch = np.asarray(channels, dtype=np.int64)
    return ch[balance_order(ch)]


@dataclass
class PlanOutcome:
    """What one executed plan did, for the ``io.*`` tallies.

    Each wave's time is recorded by the device under the wave's storage
    class, like any read; ``time_us`` is the plan's total, read-ahead
    (``readahead_time_us``, under :data:`KLASS_READAHEAD`) included.
    """

    demand_pages: int = 0
    cache_hit_pages: int = 0
    batches_folded: int = 0
    extents: int = 0
    extent_pages: int = 0
    scattered_pages: int = 0
    waves: int = 0
    time_us: float = 0.0
    baseline_time_us: float = 0.0
    readahead_pages: int = 0
    readahead_time_us: float = 0.0

    @property
    def saved_us(self) -> float:
        """Simulated time the coalesced dispatch saved vs per-path batches.

        Compares demand waves only (read-ahead is extra, speculative
        I/O, not a rebatching of existing demand).  Never negative:
        merging batches drops whole ``batch_overhead_us`` payments and a
        max-of-sums never exceeds the sum-of-maxes.
        """
        return self.baseline_time_us - (self.time_us - self.readahead_time_us)


class IOPlan:
    """Collects one group's page demand, then charges it coalesced."""

    def __init__(self, device) -> None:
        self.device = device
        # One entry per read path:
        # (klass, channel_offset, miss page ids, per-page devices).
        # The device vector is None on a single device (DESIGN.md §14).
        self._demand: List[Tuple[str, int, np.ndarray, Optional[np.ndarray]]] = []
        # Read-ahead queue: (file, page ids) admitted+pinned post-charge.
        self._readahead: List[Tuple[Any, np.ndarray]] = []
        self._executed = False
        self._demand_pages = 0
        self._cache_hit_pages = 0

    # -- demand collection ------------------------------------------------

    def add(self, file, page_ids: np.ndarray, klass: Optional[str] = None) -> float:
        """Queue one read path's demand instead of charging the device.

        Mirrors :meth:`SimFileBase._charge_read` exactly: the cache is
        consulted here, at add time, in the same order the uncoalesced
        read would have -- so hit/miss sequences (and therefore charged
        page counts) are bit-identical to planner-off mode -- and the
        miss pages' channel placement is captured via the file's current
        ``channel_offset``, immune to a later truncate of the same file.

        Returns 0.0: the device records the wave cost when
        :meth:`execute` charges it.
        """
        if self._executed:
            raise StorageError("IOPlan.add() after execute()")
        ids = np.asarray(page_ids, dtype=np.int64)
        self._demand_pages += int(ids.size)
        cache = file.cache
        if cache is not None and ids.size:
            miss = cache.access(file.name, ids)
            self._cache_hit_pages += int(ids.size - np.count_nonzero(miss))
            ids = ids[miss]
        if ids.size:
            self._demand.append(
                (klass or file.klass, int(file.channel_offset), ids, file.devices_of(ids))
            )
        return 0.0

    def add_readahead(self, file, page_ids: np.ndarray) -> None:
        """Queue a prefetch: charged under :data:`KLASS_READAHEAD`, then
        admitted into the file's cache (pinned until the whole prefetch
        set is resident, so a later admission cannot evict an earlier
        one)."""
        if self._executed:
            raise StorageError("IOPlan.add_readahead() after execute()")
        ids = np.asarray(page_ids, dtype=np.int64)
        if ids.size:
            self._readahead.append((file, ids))

    # -- execution --------------------------------------------------------

    def _dispatch(
        self,
        demand: List[Tuple[str, int, np.ndarray, Optional[np.ndarray]]],
        outcome: PlanOutcome,
    ) -> float:
        """Charge one klass-ordered wave set for ``demand``; returns its
        time, summed over the classes in sorted order.

        The whole demand is handled as one concatenated page vector:
        runs of adjacent pages are found in one pass (a run never spans
        two demand entries) and each class's extents and scattered pages
        are selected from it in demand order.  Per-page device vectors
        (device-array runs) stay aligned with the channel vectors
        through that selection, the round-robin balance permutation and
        wave slicing, so each wave's per-device overlay times -- and a
        device-scoped fault plan's view -- see exactly the pages that
        wave carries.
        """
        if not demand:
            return 0.0
        device = self.device
        n = len(demand)
        sizes = np.array([d[2].size for d in demand], dtype=np.int64)
        entry = np.repeat(np.arange(n, dtype=np.int64), sizes)
        ids = np.concatenate([d[2] for d in demand])
        offsets = np.array([d[1] for d in demand], dtype=np.int64)
        ch = (ids + offsets[entry]) % device.channels
        # devices_of is None for every file on a single device.
        devs = None if demand[0][3] is None else np.concatenate([d[3] for d in demand])

        # What each entry would have cost as its own batch, summed in
        # demand order.
        outcome.batches_folded += n
        for t in device.read_batch_times(ch, entry, n).tolist():
            outcome.baseline_time_us += t

        head = np.ones(ids.size, dtype=bool)
        head[1:] = (np.diff(ids) != 1) | (entry[1:] != entry[:-1])
        run_at = np.flatnonzero(head)
        run_len = np.diff(np.append(run_at, ids.size))
        is_extent = run_len >= MIN_EXTENT_PAGES
        in_extent = np.repeat(is_extent, run_len)
        klasses = sorted({d[0] for d in demand})
        page_klass = np.array([klasses.index(d[0]) for d in demand], dtype=np.int64)[entry]
        run_klass = page_klass[run_at]

        times: List[float] = []
        wave_cap = device.channels * WAVE_QUEUE_DEPTH
        no_extents = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        for k, klass in enumerate(klasses):
            ext = is_extent & (run_klass == k)
            extents = (ch[run_at[ext]], run_len[ext])
            outcome.extents += int(np.count_nonzero(ext))
            outcome.extent_pages += int(extents[1].sum())
            mine = page_klass == k
            single = mine & ~in_extent
            perm = balance_order(ch[single])
            sch = ch[single][perm]
            sdv = ext_dv = None
            if devs is not None:
                sdv = devs[single][perm]
                ext_dv = devs[mine & in_extent]
            outcome.scattered_pages += int(sch.size)
            # First wave carries every extent plus the head of the
            # scattered queue; overflow drains in further bounded waves.
            t = device.read_plan(
                klass, extents, sch[:wave_cap],
                extent_devices=ext_dv,
                scattered_devices=None if sdv is None else sdv[:wave_cap],
            )
            outcome.waves += 1
            for at in range(wave_cap, sch.size, wave_cap):
                t += device.read_plan(
                    klass, no_extents, sch[at : at + wave_cap],
                    scattered_devices=None if sdv is None else sdv[at : at + wave_cap],
                )
                outcome.waves += 1
            times.append(t)
        return sum(times)

    def execute(self) -> PlanOutcome:
        """Charge the collected demand; returns its outcome.

        Waves are charged in sorted-klass order (deterministic), then
        the read-ahead wave, then prefetched pages are admitted into
        their caches under a pin that is only released once the whole
        prefetch set is resident.
        """
        if self._executed:
            raise StorageError("IOPlan.execute() called twice")
        self._executed = True
        outcome = PlanOutcome(
            demand_pages=self._demand_pages, cache_hit_pages=self._cache_hit_pages
        )
        demand_time_us = self._dispatch(self._demand, outcome)
        if self._readahead:
            ra_demand = [
                (KLASS_READAHEAD, int(f.channel_offset), ids, f.devices_of(ids))
                for f, ids in self._readahead
            ]
            ra_outcome = PlanOutcome()  # keep demand tallies separate
            outcome.readahead_time_us = self._dispatch(ra_demand, ra_outcome)
            outcome.waves += ra_outcome.waves
            pinned = []
            for f, ids in self._readahead:
                if f.cache is None:
                    continue
                f.cache.admit(f.name, ids)
                f.cache.pin(f.name, ids)
                pinned.append((f.cache, f.name, ids))
                outcome.readahead_pages += int(ids.size)
            for cache, name, ids in pinned:
                cache.unpin(name, ids)
        outcome.time_us = demand_time_us + outcome.readahead_time_us
        return outcome
