"""Multi-SSD device array: N simulated SSDs behind one device interface.

FlashGraph processes billion-node graphs on an *array* of commodity
SSDs: striping the graph image over N devices multiplies the achievable
bandwidth the same way MultiLogVC's channel interspersing multiplies it
within one device (paper §V-A3).  :class:`DeviceArray` models that one
level up from :class:`~repro.ssd.device.SimulatedSSD`, with the same
determinism contract as the worker-lane overlay (DESIGN.md §11):

* **Canonical accounting is untouched.**  Every read/write still charges
  the single-device batch time into the one global
  :class:`~repro.ssd.stats.SSDStats`, so values, ``SuperstepRecord``s,
  per-class page counts and semantic traces are bit-identical for any
  ``num_devices`` -- ``num_devices=1`` *is* today's behaviour.
* **The array win is an overlay.**  Each charge also carries a
  per-device time vector (the same ``_batch_time_from_counts`` formula
  applied to each device's share of the batch; every member device has
  the full ``C`` channels).  The overlay accumulates per-device busy
  clocks and the array time as each charge lands, in the one in-order
  group loop, so it does not depend on the simulated lane count; the
  serial time and the op count it is compared with are views of the
  canonical stats.  It
  surfaces via ``device.*`` gauges and the per-superstep
  ``device_stats`` trace kind, its clocks are checkpointed with the run
  like every overlay (DESIGN.md §7), and the saving is guaranteed
  non-negative: each device's channel histogram is dominated by the
  full batch's, so the max over devices never exceeds the single-device
  batch time.

Placement is deterministic and derived, never stored:

* ``"stripe"``: device ``((page // C) + channel_offset) % N`` -- one
  channel-intersperse cycle per device, so extents stay sequential on
  each device and the base follows the file's channel offset, which the
  checkpoint already records (resume restores placement for free).
* ``"affinity"`` (the default): files created with an interval-affinity
  hint (multi-log interval logs, stream interval logs) land whole on
  device ``interval % N`` so each log stays sequential on one device;
  everything else (CSR images, edge log, checkpoints) stripes as above.

Unattributed operations (direct ``sequential_*`` convenience calls,
zero-page retry records) bill overlay device 0 by convention.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SimConfig
from ..errors import RecoveryError
from ..obs.metrics import MetricsRegistry
from ..obs.overlay import Overlay
from .device import SimulatedSSD


class DeviceArray(SimulatedSSD, Overlay):
    """N independent simulated SSDs presenting the single-SSD interface."""

    trace_kind = "device_stats"

    def __init__(self, config: SimConfig) -> None:
        super().__init__(config)
        self.num_devices = int(config.num_devices)
        self.placement = config.placement
        #: Overlay state (run-cumulative, monotonically non-decreasing).
        self._dev_busy_us = np.zeros(self.num_devices, dtype=np.float64)
        self.array_us = 0.0

    # -- placement --------------------------------------------------------

    def place(
        self,
        page_ids: np.ndarray,
        channel_offset: int,
        affinity: Optional[int] = None,
    ) -> np.ndarray:
        """Device id per page for a file at ``channel_offset``.

        Pure function of ``(page, channel_offset, affinity)``: a file
        adopted at its recorded offset (and affinity) after a crash
        places exactly as in the uninterrupted run.
        """
        ids = np.asarray(page_ids, dtype=np.int64)
        if affinity is not None and self.placement == "affinity":
            return np.full(ids.shape, int(affinity) % self.num_devices, dtype=np.int64)
        base = int(channel_offset) % self.num_devices
        return ((ids // self._channels) + base) % self.num_devices

    # -- overlay accumulation ---------------------------------------------

    def _note_device_times(self, t: float, dev_times: Optional[np.ndarray]) -> None:
        if dev_times is None:
            self._dev_busy_us[0] += float(t)
            self.array_us += float(t)
        else:
            self._dev_busy_us += dev_times
            self.array_us += float(dev_times.max())

    def _device_read_times(
        self, channel_ids: np.ndarray, devices: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Each device's share of the read's channel histogram, timed;
        all ``N`` histograms come from one ``bincount``."""
        if devices is None:
            return None
        n, c = self.num_devices, self._channels
        flat = np.asarray(devices, dtype=np.int64) * c + channel_ids
        counts = np.bincount(flat, minlength=n * c).reshape(n, c)
        busy = counts.any(axis=1)
        times = np.zeros(n, dtype=np.float64)
        times[busy] = self._batch_time_from_counts(
            counts[busy], self.config.ssd.read_latency_us, read=True
        )
        return times

    def _device_write_times(
        self, devices: Optional[np.ndarray], n_pages: int
    ) -> Optional[np.ndarray]:
        if devices is None:
            return None
        per_dev = np.bincount(
            np.asarray(devices, dtype=np.int64), minlength=self.num_devices
        )
        times = np.zeros(self.num_devices, dtype=np.float64)
        for d in np.flatnonzero(per_dev):
            times[d] = self._write_time(int(per_dev[d]))
        return times

    # -- reporting --------------------------------------------------------

    @property
    def dev_ops(self) -> int:
        """Charged batches, reads and writes: the canonical stats' count."""
        stats = self.stats
        return sum(c.batches for side in (stats.reads, stats.writes) for c in side.values())

    @property
    def serial_us(self) -> float:
        """Storage time charged as one device: the canonical total."""
        return self.stats.total_time_us

    @property
    def saved_us(self) -> float:
        """Simulated time the array saved vs charging one device serially."""
        return max(0.0, self.serial_us - self.array_us)

    @property
    def device_busy_us(self) -> np.ndarray:
        """Per-device cumulative busy clocks (overlay, read-only copy)."""
        return self._dev_busy_us.copy()

    def snapshot(self) -> dict:
        """The ``device_stats`` trace payload (cumulative counters)."""
        return {
            "devices": int(self.num_devices),
            "placement": self.placement,
            "ops": int(self.dev_ops),
            "serial_us": float(self.serial_us),
            "array_us": float(self.array_us),
            "saved_us": float(self.saved_us),
            "busy_us": [float(x) for x in self._dev_busy_us],
        }

    def register_metrics(self, metrics: MetricsRegistry) -> None:
        metrics.gauge("device.devices", lambda: self.num_devices)
        metrics.gauge("device.ops", lambda: self.dev_ops)
        metrics.gauge("device.serial_us", lambda: self.serial_us)
        metrics.gauge("device.array_us", lambda: self.array_us)
        metrics.gauge("device.saved_us", lambda: self.saved_us)
        metrics.gauge("device.busy_max_us", lambda: float(self._dev_busy_us.max()))

    # -- checkpoint/resume ------------------------------------------------

    def overlay_state(self) -> dict:
        """:meth:`snapshot` less what derives from the canonical stats,
        which a checkpoint carries on its own."""
        state = self.snapshot()
        for key in ("ops", "serial_us", "saved_us"):
            del state[key]
        return state

    def restore_overlay(self, state: dict) -> None:
        busy = np.array(state["busy_us"], dtype=np.float64)
        if busy.size != self.num_devices:
            raise RecoveryError(
                f"checkpoint carries {busy.size} device clocks, "
                f"the array being resumed has {self.num_devices} devices"
            )
        self.array_us = float(state["array_us"])
        self._dev_busy_us = busy

    def reset_stats(self) -> None:
        super().reset_stats()
        self._dev_busy_us[:] = 0.0
        self.array_us = 0.0
