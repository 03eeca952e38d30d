"""Structured tracing for engine runs.

A :class:`Tracer` receives typed *events* from the engines: superstep
begin/end, group plan/load/sort/process, loader page fetches by storage
class, edge-log decisions, multi-log flushes, external-sort passes
(GraFBoost), block streams (GridGraph).  Every event is stamped with

* the **simulated clock** -- storage time from the SSD device plus the
  engine's compute-meter time at the moment of emission, and
* the current **superstep index**.

The base class is a null object: ``enabled`` is False and every method
is a no-op, so engines can keep a tracer reference unconditionally and
guard only the (cheap) field construction with ``if tracer.enabled``.
That is what keeps tracing-off runs byte-identical to and as fast as
untraced runs.

Determinism contract
--------------------
Engines are single-threaded and emit events at the point where the
corresponding work lands in the execution order.  MultiLogVC prepares a
group under the device's deferred-charge queue and emits its
``group_load`` right after the commit in
:meth:`repro.core.engine.MultiLogVC._superstep_loop`, so the event is
stamped with the group's I/O already on the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


#: Every event kind any engine or the device layer may emit.  Consumers
#: (``tools/validate_trace.py``, dashboards) treat an unknown kind as a
#: schema error, so additions here must accompany the emitting code.
TRACE_KINDS = frozenset(
    {
        # run lifecycle (all engines)
        "run_begin",
        "run_resume",
        "run_end",
        "superstep_begin",
        "superstep_end",
        # MultiLogVC superstep internals
        "group_plan",
        "group_load",
        # group, records, natural_runs, unique_dests
        "group_sort",
        "group_process",
        "edgelog_decisions",
        "mlog_rotate",
        "mlog_flush",
        # pages, time_us: one per edge-log write batch
        "elog_flush",
        # simulated worker lanes (DESIGN.md §11): one event per
        # superstep when effective lanes > 1, carrying run-cumulative
        # (monotonically non-decreasing) overlap counters
        "parallel_stats",
        # superstep I/O planner (DESIGN.md §13): one event per superstep
        # when ``io_plan != "off"``, carrying run-cumulative counters
        "io_plan_stats",
        # multi-SSD device array (DESIGN.md §14): one event per superstep
        # when ``num_devices > 1``, carrying run-cumulative overlay
        # counters (per-device busy clocks, serial-vs-array time)
        "device_stats",
        # recovery subsystem
        "checkpoint_write",
        "recovery_load",
        # streaming update subsystem (DESIGN.md §12): one ingest_stats
        # event per ingested/applied batch (carrying a per-session
        # monotonically increasing ``seq``), one compaction event per
        # interval compaction, and one warm_start event (roots, cone,
        # walk_rows, scan, io_us) per incremental recompute's seeding
        "ingest_stats",
        "compaction",
        "warm_start",
        # DRAM page cache (file layer; emitted once per superstep)
        "cache_stats",
        # SSD fault injection (device layer)
        "fault_error",
        "fault_crash",
        "fault_torn",
        "fault_retry",
        "channel_degraded",
        # baseline engines
        "shard_load",
        "vertex_chunks",
        "log_stream",
        "log_flush",
        # raw_pages, run_pages, combined_pages, runs, passes, records,
        # natural_runs
        "extsort",
        "graph_stream",
        "block_stream",
    }
)


@dataclass
class TraceEvent:
    """One emitted trace record."""

    kind: str
    #: simulated time (us) at emission: SSD storage time + compute time
    t_us: float
    #: superstep index the event belongs to (-1 outside any superstep)
    step: int
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "t_us": self.t_us, "step": self.step, **self.fields}


class Tracer:
    """Null-object tracer: zero overhead, nothing recorded."""

    __slots__ = ()

    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Set the simulated-time source for subsequent events."""

    def set_step(self, step: int) -> None:
        """Set the superstep index stamped on subsequent events."""

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event (no-op on the null tracer)."""

    @property
    def events(self) -> List[TraceEvent]:
        return []


#: Shared do-nothing tracer; the default everywhere.
NULL_TRACER = Tracer()


class TraceRecorder(Tracer):
    """In-memory tracer collecting :class:`TraceEvent` records."""

    __slots__ = ("_events", "_clock", "_step")

    enabled = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._clock: Optional[Callable[[], float]] = None
        self._step = -1

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def set_step(self, step: int) -> None:
        self._step = step

    def emit(self, kind: str, **fields: Any) -> None:
        t = self._clock() if self._clock is not None else 0.0
        self._events.append(TraceEvent(kind, t, self._step, fields))

    @property
    def events(self) -> List[TraceEvent]:
        return self._events
