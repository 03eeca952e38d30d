"""Deterministic multi-channel SSD timing model.

The paper's performance claims all reduce to *which pages each engine
reads and writes* and *how well those accesses spread over the SSD's
flash channels* (§V-A3: logs are interspersed across all channels so
loads and evictions run at full bandwidth).  This module models exactly
that and nothing more:

* The device has ``C`` independent channels.  A page lives on one
  channel (assignment is the file system's job, see
  :mod:`repro.ssd.filesystem`).
* Operations within one channel are pipelined: ``k`` pages on one
  channel take ``k * latency``.
* Channels operate in parallel, so a *batch* of pages completes in
  ``max_over_channels(pages on that channel) * latency`` plus a fixed
  per-batch submission overhead.

This makes a perfectly interspersed batch of ``P`` pages cost
``ceil(P/C) * latency`` (full bandwidth), while a single random page
costs one full latency -- the asymmetry the paper exploits.

No payload bytes are stored here; the device only does accounting.  File
payloads live in :mod:`repro.ssd.file`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import SimConfig
from ..errors import InjectedFaultError, SimulatedCrashError, StorageError
from ..obs.tracer import NULL_TRACER, Tracer
from .faults import ChannelDegradation, FaultEvent, FaultPlan, RetryPolicy
from .stats import SSDStats

ChannelVector = Union[np.ndarray, Sequence[int]]

#: One deferred charge:
#: ``(is_read, klass, pages, bytes, simulated_us, channel_pages, dev_times)``.
#: ``channel_pages`` is the per-channel page-count histogram of the
#: batch (read charges only; ``None`` for writes and zero-page retry
#: records) -- the lane overlap model (:func:`merge_overlap`) reads it to
#: know which channels a group's preparation kept busy.  ``dev_times``
#: is a :class:`~repro.ssd.array.DeviceArray`'s per-device time vector
#: (DESIGN.md §14), ``None`` when unattributed (the array bills device
#: 0).  :meth:`SimulatedSSD.commit` records neither in the canonical stats.
ChargeOp = Tuple[bool, str, int, int, float, Optional[np.ndarray], Optional[np.ndarray]]


def merge_overlap(lane_times_us: np.ndarray, channel_busy_us: np.ndarray) -> float:
    """Makespan of concurrent worker lanes on a channel-parallel device.

    The lane model reports overlap without perturbing the committed
    (lane-count-invariant) accounting: each simulated worker lane
    accumulates the simulated time of the groups assigned to it, and every
    group's read charges contribute a per-channel busy histogram.  The
    overlapped execution cannot finish faster than the busiest lane
    (compute + its own I/O waits) nor faster than the busiest flash
    channel (pages on one channel are pipelined, never parallel), so
    the makespan is the max of both bounds (DESIGN.md §11).
    """
    lane_max = float(lane_times_us.max()) if lane_times_us.size else 0.0
    chan_max = float(channel_busy_us.max()) if channel_busy_us.size else 0.0
    return max(lane_max, chan_max)


class SimulatedSSD:
    """Accounting-only SSD with a channel-parallel latency model.

    Parameters
    ----------
    config:
        The :class:`~repro.config.SimConfig` whose ``ssd`` section gives
        page size, channel count and latencies.

    Notes
    -----
    The device keeps a single global :class:`SSDStats`; engines snapshot
    and diff it to attribute I/O to supersteps.  All methods return the
    simulated duration of the batch in microseconds so callers can also
    accumulate time directly.
    """

    #: Device-array width; the single device is a degenerate array of 1.
    #: :class:`~repro.ssd.array.DeviceArray` sets an instance attribute.
    num_devices: int = 1

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.stats = SSDStats()
        self._channels = config.ssd.channels
        self._page_size = config.ssd.page_size
        #: armed deferred-charge queue (``None`` outside :meth:`deferred`)
        self._queue: Optional[List[ChargeOp]] = None
        # Fault injection (see repro.ssd.faults).  With no plan installed
        # the hot paths take the exact pre-fault code paths, so timing
        # stays bit-identical to a device without this machinery.
        self.fault_plan: Optional[FaultPlan] = None
        self.retry_policy = RetryPolicy()
        self.degradation = ChannelDegradation()
        self.tracer: Tracer = NULL_TRACER
        self._channel_faults = np.zeros(self._channels, dtype=np.int64)
        self._degraded_mask = np.zeros(self._channels, dtype=bool)
        self._any_degraded = False
        #: Device-scope for the armed fault plan (``install_faults``'s
        #: ``device=``); ``None`` means the plan sees every operation.
        self._fault_device: Optional[int] = None

    # -- geometry -------------------------------------------------------

    @property
    def channels(self) -> int:
        return self._channels

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def now_us(self) -> float:
        """The simulated storage clock: total recorded I/O time so far.

        This is the SSD half of the trace timestamp (engines add their
        compute-meter time).  Deferred charges advance it only when
        committed.
        """
        return self.stats.total_time_us

    # -- fault injection --------------------------------------------------

    def install_faults(
        self,
        plan: FaultPlan,
        retry_policy: Optional[RetryPolicy] = None,
        degradation: Optional[ChannelDegradation] = None,
        device: Optional[int] = None,
    ) -> None:
        """Arm a :class:`~repro.ssd.faults.FaultPlan` on this device.

        ``device`` scopes the plan to one member of a device array: only
        pages placed on that device are visible to the plan (an
        operation touching none of them skips the check entirely, so its
        op counter never advances).  Unattributed operations (checkpoint
        commit pages, retries) count against device 0 by convention.
        """
        self.fault_plan = plan
        if retry_policy is not None:
            self.retry_policy = retry_policy
        if degradation is not None:
            self.degradation = degradation
        if device is not None and not 0 <= device < self.num_devices:
            raise StorageError(
                f"fault device scope {device} out of range [0, {self.num_devices})"
            )
        self._fault_device = device

    def clear_faults(self) -> None:
        """Disarm fault injection and heal all degraded channels."""
        self.fault_plan = None
        self._channel_faults[:] = 0
        self._degraded_mask[:] = False
        self._any_degraded = False
        self._fault_device = None

    @property
    def degraded_channels(self) -> np.ndarray:
        """Channels that crossed the degradation error threshold."""
        return np.flatnonzero(self._degraded_mask)

    def _note_channel_fault(self, channel: int) -> None:
        if not 0 <= channel < self._channels:
            return
        self._channel_faults[channel] += 1
        if (
            not self._degraded_mask[channel]
            and self._channel_faults[channel] >= self.degradation.error_threshold
        ):
            self._degraded_mask[channel] = True
            self._any_degraded = True
            self.tracer.emit(
                "channel_degraded",
                channel=channel,
                faults=int(self._channel_faults[channel]),
                read_latency_multiplier=self.degradation.read_latency_multiplier,
            )

    def _fault_check(
        self,
        is_read: bool,
        klass: str,
        arr: np.ndarray,
        devices: Optional[np.ndarray] = None,
    ) -> Optional[FaultEvent]:
        """Consult the installed plan; retry transient errors in place.

        Returns the torn-write event (so the caller can persist the
        prefix) or None.  Hard errors raise
        :class:`~repro.errors.InjectedFaultError`; crashes raise
        :class:`~repro.errors.SimulatedCrashError`.  Each retry attempt
        is re-checked against the plan, charges its backoff as a 0-page
        record under the ``"retry"`` storage class, and is traced.

        When the plan is device-scoped (``install_faults(device=k)``)
        the check sees only the pages placed on device ``k``; an
        operation touching no such page is invisible to the plan.
        """
        plan = self.fault_plan
        if plan is None:
            return None
        if self._fault_device is not None:
            if devices is None:
                # Unattributed operations count against device 0.
                if self._fault_device != 0:
                    return None
            else:
                mask = np.asarray(devices, dtype=np.int64) == self._fault_device
                if not mask.any():
                    return None
                arr = arr[mask]
        attempt = 0
        while True:
            ev = plan.check(is_read, klass, arr, self.now_us)
            if ev is None:
                return None
            self._note_channel_fault(ev.channel)
            if ev.kind == "crash":
                self.tracer.emit("fault_crash", op=ev.op, klass=klass, channel=ev.channel)
                raise SimulatedCrashError(
                    f"injected power loss during {ev.op} of klass {klass!r}"
                )
            if ev.kind == "torn":
                return ev
            if ev.rule.transient and attempt < self.retry_policy.max_retries:
                attempt += 1
                delay = self.retry_policy.delay_us(attempt)
                self._charge(is_read, "retry", 0, 0, delay)
                self.tracer.emit(
                    "fault_retry",
                    op=ev.op,
                    klass=klass,
                    channel=ev.channel,
                    attempt=attempt,
                    backoff_us=delay,
                )
                continue
            self.tracer.emit(
                "fault_error",
                op=ev.op,
                klass=klass,
                channel=ev.channel,
                transient=ev.rule.transient,
                attempts=attempt,
            )
            raise InjectedFaultError(
                f"injected {ev.op} error on klass {klass!r} channel {ev.channel}"
                + (f" after {attempt} retries" if attempt else ""),
                op=ev.op,
                klass=klass,
                channel=ev.channel,
            )

    # -- timing ----------------------------------------------------------

    def _batch_time_from_counts(self, counts: np.ndarray, latency_us: float, read: bool = False):
        """Batch time of one channel histogram (a float), or one time per
        row of a ``(k, channels)`` stack of histograms (an array)."""
        if read and self._any_degraded:
            # Degraded channels pay an ECC/read-retry latency multiplier.
            counts = counts.astype(np.float64)
            counts[..., self._degraded_mask] *= self.degradation.read_latency_multiplier
        t = self.config.ssd.batch_overhead_us + counts.max(axis=-1) * latency_us
        return float(t) if counts.ndim == 1 else t

    def _extent_channels(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Channel of every page of every extent, concatenated in extent order.

        Contiguous file pages are interspersed across channels (§V-A3
        placement), so an extent of ``L`` pages starting on channel
        ``s`` puts ``L // C`` pages on every channel plus one extra on
        channels ``s, s+1, ... (mod C)`` -- the same distribution
        :meth:`sequential_read_time` charges, which is what makes extent
        reads the cheap path.
        """
        first = np.cumsum(lengths) - lengths
        within = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(first, lengths)
        return (np.repeat(starts, lengths) + within) % self._channels

    def _coerce(self, channel_ids: ChannelVector) -> np.ndarray:
        arr = np.asarray(channel_ids, dtype=np.int64)
        if arr.ndim != 1:
            raise StorageError(f"channel vector must be 1-D, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self._channels):
            raise StorageError(
                f"channel id out of range [0, {self._channels}): "
                f"min={arr.min()}, max={arr.max()}"
            )
        return arr

    # -- deferred charging (group preparation) --------------------------

    @contextmanager
    def deferred(self):
        """Queue charges instead of recording them.

        Timing is still computed and returned to callers (it is a pure
        function of the channel vector), but :class:`SSDStats` is not
        touched.  The caller replays the queue with :meth:`commit`; the
        engine does so right after a group's preparation, which gives it
        the group's I/O as one list (``group_load`` trace roll-up, lane
        overlay) and lands every charge before the group's compute.
        """
        if self._queue is not None:
            raise StorageError("nested deferred() charging is not supported")
        queue: List[ChargeOp] = []
        self._queue = queue
        try:
            yield queue
        finally:
            self._queue = None

    def commit(self, ops: List[ChargeOp]) -> None:
        """Record a queue of deferred charges, in order.

        The channel histogram is overlap metadata only and a device
        array's per-device time vector feeds its overlay via
        :meth:`_note_device_times`; the recorded stats are the same
        without either.
        """
        overlay = self.num_devices > 1
        for is_read, klass, pages, nbytes, t, _, dev_times in ops:
            if is_read:
                self.stats.record_read(klass, pages, nbytes, t)
            else:
                self.stats.record_write(klass, pages, nbytes, t)
            if overlay:
                self._note_device_times(t, dev_times)

    def channel_busy_us(self, ops: List[ChargeOp]) -> np.ndarray:
        """Per-channel busy time (us) implied by a deferred-charge queue.

        Sums ``channel_pages * read_latency`` over every read charge
        carrying a histogram.  Writes and retry records carry none (the
        FTL stripes writes dynamically; commit-side writes are serial
        anyway) and contribute nothing -- a conservative under-estimate
        that can only shrink the modelled overlap win, never inflate it.
        """
        busy = np.zeros(self._channels, dtype=np.float64)
        lat = self.config.ssd.read_latency_us
        for op in ops:
            if op[5] is not None:
                busy += op[5] * lat
        return busy

    def _charge(
        self,
        is_read: bool,
        klass: str,
        pages: int,
        nbytes: int,
        t: float,
        channel_pages: Optional[np.ndarray] = None,
        dev_times: Optional[np.ndarray] = None,
    ) -> None:
        queue = self._queue
        if queue is not None:
            queue.append((is_read, klass, pages, nbytes, t, channel_pages, dev_times))
            return
        if is_read:
            self.stats.record_read(klass, pages, nbytes, t)
        else:
            self.stats.record_write(klass, pages, nbytes, t)
        if self.num_devices > 1:
            self._note_device_times(t, dev_times)

    def _note_device_times(self, t: float, dev_times: Optional[np.ndarray]) -> None:
        """Overlay hook: fold one committed charge into per-device clocks.

        No-op on the single device; :class:`~repro.ssd.array.DeviceArray`
        overrides it.  Called at the canonical commit point only, so the
        overlay does not depend on the lane count.
        """

    # -- device-array hooks (None on the single device) -------------------

    def _device_read_times(
        self, channel_ids: np.ndarray, devices: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Per-device time vector for a read of the given per-page
        channel and device vectors."""
        return None

    def _device_write_times(
        self, devices: Optional[np.ndarray], n_pages: int
    ) -> Optional[np.ndarray]:
        """Per-device time vector for a write batch."""
        return None

    # -- I/O -------------------------------------------------------------

    def read_batch(
        self,
        channel_ids: ChannelVector,
        klass: str,
        useful_bytes: Optional[int] = None,
        devices: Optional[np.ndarray] = None,
    ) -> float:
        """Charge a batch of page reads.

        Parameters
        ----------
        channel_ids:
            One entry per page read, giving the channel that page lives
            on.  Duplicate channels model contention (pipelined, so they
            serialise on that channel).
        klass:
            Storage class label for accounting (e.g. ``"csr_col"``).
        useful_bytes:
            Ignored for timing; reserved for callers that track read
            amplification themselves.
        devices:
            Per-page device placement, aligned with ``channel_ids``.
            Ignored on the single device; a device array derives its
            overlay clocks and fault scoping from it.

        Returns
        -------
        float
            Simulated batch duration in microseconds (0 for an empty
            batch -- empty batches are free and not recorded).
        """
        arr = self._coerce(channel_ids)
        if arr.size == 0:
            return 0.0
        if self.fault_plan is not None:
            self._fault_check(True, klass, arr, devices=devices)  # torn cannot fire on reads
        counts = np.bincount(arr, minlength=self._channels)
        t = self._batch_time_from_counts(counts, self.config.ssd.read_latency_us, read=True)
        dev_times = (
            self._device_read_times(arr, devices) if self.num_devices > 1 else None
        )
        self._charge(True, klass, int(arr.size), int(arr.size) * self._page_size, t, counts, dev_times)
        return t

    def read_batch_time(self, channel_ids: ChannelVector) -> float:
        """Timing preview of :meth:`read_batch`: no charge, no fault check.

        The I/O planner uses this to price what each uncoalesced read
        path *would* have cost, so the ``io.saved_us`` tally compares
        like with like (including any current channel degradation).
        """
        arr = self._coerce(channel_ids)
        if arr.size == 0:
            return 0.0
        counts = np.bincount(arr, minlength=self._channels)
        return self._batch_time_from_counts(counts, self.config.ssd.read_latency_us, read=True)

    def read_batch_times(
        self, channel_ids: ChannelVector, batch_ids: np.ndarray, n_batches: int
    ) -> np.ndarray:
        """:meth:`read_batch_time` of ``n_batches`` batches at once.

        Page ``j`` of ``channel_ids`` belongs to batch ``batch_ids[j]``;
        one histogram per batch comes out of a single ``bincount``.  An
        empty batch costs 0.
        """
        arr = self._coerce(channel_ids)
        c = self._channels
        counts = np.bincount(
            np.asarray(batch_ids, dtype=np.int64) * c + arr, minlength=n_batches * c
        ).reshape(n_batches, c)
        t = self._batch_time_from_counts(counts, self.config.ssd.read_latency_us, read=True)
        t[~counts.any(axis=1)] = 0.0
        return t

    def read_extent(
        self,
        start_channel: int,
        n_pages: int,
        klass: str,
        devices: Optional[np.ndarray] = None,
    ) -> float:
        """Charge one contiguous extent read as a single batch.

        Equivalent to :meth:`read_batch` over the extent's interspersed
        channel vector, without materialising it: the sequential path of
        the I/O planner's coalescing stage.
        """
        extents = (np.array([int(start_channel)]), np.array([int(n_pages)]))
        return self.read_plan(klass, extents, (), extent_devices=devices)

    def read_plan(
        self,
        klass: str,
        extents: Tuple[np.ndarray, np.ndarray],
        scattered_channels: ChannelVector,
        extent_devices: Optional[np.ndarray] = None,
        scattered_devices: Optional[np.ndarray] = None,
    ) -> float:
        """Plan-commit read: extents + one scattered wave, one submission.

        ``extents`` is a pair of aligned arrays ``(start_channels,
        n_pages)``, one entry per run of adjacent file pages;
        ``scattered_channels`` carries the remaining single-page reads.
        ``extent_devices`` (``scattered_devices``) is the per-page device
        vector of the extents' pages, concatenated in extent order (of
        the scattered pages); with neither, the read is unattributed.  The whole set is
        charged as **one** batch: one ``batch_overhead_us`` and the max
        over the *summed* per-channel queues, which is exactly what
        merging I/O requests before submission buys on the
        channel-parallel device.  Composes with everything
        ``read_batch`` composes with: the deferred-charge queue (plans
        built at prepare time commit in canonical group order), fault
        plans (one check per submission, with the expanded channel
        vector: scattered pages, then extents) and the overlap model
        (the histogram rides the :data:`ChargeOp`).
        """
        scattered = self._coerce(scattered_channels)
        starts, lengths = (np.asarray(a, dtype=np.int64) for a in extents)
        if lengths.size and lengths.min() < 0:
            raise StorageError(f"extent length must be non-negative, got {lengths.min()}")
        channels = np.concatenate([scattered, self._extent_channels(starts, lengths)])
        pages = int(channels.size)
        if pages == 0:
            return 0.0
        devices = None
        if extent_devices is not None or scattered_devices is not None:
            devices = np.concatenate([
                np.zeros(scattered.size, dtype=np.int64)
                if scattered_devices is None
                else np.asarray(scattered_devices, dtype=np.int64),
                np.zeros(pages - scattered.size, dtype=np.int64)
                if extent_devices is None
                else np.asarray(extent_devices, dtype=np.int64),
            ])
        if self.fault_plan is not None:
            self._fault_check(True, klass, channels, devices=devices)
        counts = np.bincount(channels, minlength=self._channels)
        t = self._batch_time_from_counts(counts, self.config.ssd.read_latency_us, read=True)
        dev_times = (
            self._device_read_times(channels, devices) if self.num_devices > 1 else None
        )
        self._charge(True, klass, pages, pages * self._page_size, t, counts, dev_times)
        return t

    def write_batch(
        self,
        channel_ids: ChannelVector,
        klass: str,
        devices: Optional[np.ndarray] = None,
    ) -> float:
        """Charge a batch of page writes.

        Unlike reads, writes are **not** bound to the channel implied by
        the logical page position: a log-structured FTL allocates each
        written page dynamically on any free channel (that is precisely
        how SSDs absorb write bursts), so a batch of ``P`` pages stripes
        optimally as ``ceil(P / C)`` per channel.  The channel vector is
        still validated and its length gives the page count.  ``devices``
        (per-page placement, for a device array's overlay and fault
        scoping) is ignored on the single device.
        """
        arr = self._coerce(channel_ids)
        if arr.size == 0:
            return 0.0
        n_pages = int(arr.size)
        if self.fault_plan is not None:
            ev = self._fault_check(False, klass, arr, devices=devices)
            if ev is not None:  # torn write: a strict prefix persists
                persisted = min(ev.pages_persisted, n_pages - 1)
                if persisted > 0:
                    t = self._write_time(persisted)
                    dev_t = (
                        self._device_write_times(
                            None if devices is None else devices[:persisted], persisted
                        )
                        if self.num_devices > 1
                        else None
                    )
                    self._charge(
                        False, klass, persisted, persisted * self._page_size, t,
                        dev_times=dev_t,
                    )
                self.tracer.emit(
                    "fault_torn",
                    op="write",
                    klass=klass,
                    channel=ev.channel,
                    pages_requested=n_pages,
                    pages_persisted=max(0, persisted),
                )
                raise SimulatedCrashError(
                    f"torn write on klass {klass!r}: {max(0, persisted)}/{n_pages} "
                    f"pages persisted before power loss",
                    pages_persisted=max(0, persisted),
                )
        t = self._write_time(n_pages)
        dev_times = (
            self._device_write_times(devices, n_pages) if self.num_devices > 1 else None
        )
        self._charge(False, klass, n_pages, n_pages * self._page_size, t, dev_times=dev_times)
        return t

    def _write_time(self, n_pages: int) -> float:
        """Striped write cost: degraded channels are skipped by the FTL."""
        healthy = self._channels
        if self._any_degraded:
            healthy = max(1, self._channels - int(self._degraded_mask.sum()))
        per_channel = -(-n_pages // healthy)
        return float(self.config.ssd.batch_overhead_us + per_channel * self.config.ssd.write_latency_us)

    # -- convenience ------------------------------------------------------

    def sequential_read_time(self, n_pages: int, klass: str) -> float:
        """Charge ``n_pages`` perfectly interspersed (sequential) reads."""
        if n_pages <= 0:
            return 0.0
        channels = np.arange(n_pages, dtype=np.int64) % self._channels
        return self.read_batch(channels, klass)

    def sequential_write_time(self, n_pages: int, klass: str) -> float:
        """Charge ``n_pages`` perfectly interspersed (sequential) writes."""
        if n_pages <= 0:
            return 0.0
        channels = np.arange(n_pages, dtype=np.int64) % self._channels
        return self.write_batch(channels, klass)

    def achieved_read_bandwidth(self, n_pages: int, duration_us: float) -> float:
        """Observed bandwidth (bytes/us == MB/s) of a completed batch."""
        if duration_us <= 0:
            return 0.0
        return n_pages * self._page_size / duration_us

    def reset_stats(self) -> None:
        self.stats = SSDStats()
