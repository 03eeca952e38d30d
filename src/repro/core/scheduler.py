"""Simulated worker lanes over the in-order group loop (DESIGN.md §11).

MultiLogVC's central claim is that concurrent processing of independent
vertex intervals keeps the flash channels saturated (paper §V, Fig. 3).
``num_workers`` models that concurrency in simulated time only: groups
still run one after another on the calling thread, so values, records,
stats and traces cannot depend on the lane count, and the win is
reported *alongside* the canonical accounting.  Each group is assigned
to a lane (``group % workers``); a superstep's overlapped bound is the
busiest lane or the busiest flash channel, whichever is larger
(:func:`repro.ssd.device.merge_overlap`).  The cumulative counters feed
the ``parallel_stats`` trace event and the ``scheduler.*`` gauges; the
bench's ``--workers`` column is computed from them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.overlay import Overlay
from ..ssd.device import SimulatedSSD, merge_overlap
from .pipeline import GroupPipeline, PreparedGroup, PrepareFn
from .results import ComputeMeter


class ParallelGroupScheduler(GroupPipeline, Overlay):
    """The group iterator plus lane/channel overlap accounting.

    Per superstep, each group contributes its preparation I/O plus its
    compute time to a worker lane (``group % workers``) and its reads
    to per-channel busy histograms.  At superstep end the
    overlapped bound is ``max(busiest lane, busiest channel)``; the
    difference to the serial sum is the modelled saving.  All exported
    counters are run-cumulative and monotonically non-decreasing (the
    ``parallel_stats`` trace contract checked by
    ``tools/validate_trace.py``).
    """

    trace_kind = "parallel_stats"
    STATE = ("groups", "spec_us", "saved_us", "makespan_us")

    def __init__(self, device: SimulatedSSD, workers: int, meter: ComputeMeter) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.device = device
        self.workers = workers
        self.meter = meter
        self._lane_us = np.zeros(workers, dtype=np.float64)
        self._busy_us = np.zeros(device.channels, dtype=np.float64)
        #: run-cumulative counters (exported via trace + gauges)
        self.groups = 0
        self.spec_us = 0.0
        self.saved_us = 0.0
        self.makespan_us = 0.0

    def register_metrics(self, metrics: MetricsRegistry) -> None:
        metrics.gauge("scheduler.workers", lambda: self.workers)
        for k in self.STATE:
            metrics.gauge(f"scheduler.{k}", lambda k=k: getattr(self, k))

    def run(self, groups: Iterable[List[int]], prepare: PrepareFn) -> Iterator[PreparedGroup]:
        """:meth:`GroupPipeline.run`, noting each group on its lane.

        A group's I/O is how far the device's ledger advanced while it
        was prepared.  Its compute time is whatever the meter gained
        while the consumer held it, so it is noted when the consumer
        asks for the next group (or exhausts the iterator).
        """
        dev, meter = self.device, self.meter
        for g_index, group in enumerate(groups):
            io_from, pages_from = dev.stats.total_time_us, dev.channel_read_pages.copy()
            prepared = prepare(group)
            io_us = dev.stats.total_time_us - io_from
            read_pages = dev.channel_read_pages - pages_from
            compute_from = meter.time_us
            yield prepared
            self.note_group(g_index, io_us, read_pages, meter.time_us - compute_from)

    def note_group(
        self, g_index: int, io_us: float, read_pages: np.ndarray, compute_us: float
    ) -> None:
        """Record one group's lane time and channel pressure: its
        preparation I/O time and pages read per channel."""
        self._lane_us[g_index % self.workers] += io_us + compute_us
        self._busy_us += read_pages * self.device.config.ssd.read_latency_us
        self.groups += 1

    def end_superstep(self, storage_us: float, compute_us: float) -> float:
        """Fold this superstep into the cumulative counters.

        ``storage_us``/``compute_us`` are the superstep's committed
        (lane-invariant) totals; the overlapped makespan is that total
        minus the modelled saving.  Returns the saving for this
        superstep.  Resets the per-superstep lane/channel state.
        """
        spec = float(self._lane_us.sum())
        bound = merge_overlap(self._lane_us, self._busy_us)
        saved = max(0.0, spec - bound)
        self.spec_us += spec
        self.saved_us += saved
        self.makespan_us += max(0.0, storage_us + compute_us - saved)
        self._lane_us[:] = 0.0
        self._busy_us[:] = 0.0
        return saved

    def snapshot(self) -> dict:
        """The ``parallel_stats`` trace payload (cumulative counters)."""
        return {"workers": int(self.workers), **self.overlay_state()}
