"""The overlay protocol (DESIGN.md §7).

An *overlay* is a run-cumulative tally that reports a saving beside the
canonical accounting and never changes it: the page cache, the simulated
worker lanes, the superstep I/O planner and the device array.  The
engine keeps one list of a run's overlays and iterates it to register
their gauges, to emit their trace kinds once per superstep, and to
checkpoint and restore their exact counters.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


class Overlay:
    """Mixin for one overlay: its trace kind and checkpointable counters.

    A subclass names its trace kind, lists the attributes that hold its
    exact run-cumulative counters in :attr:`STATE`, and implements
    ``snapshot()`` (the trace payload) and ``register_metrics(reg)``.
    """

    trace_kind: str = ""
    STATE: Tuple[str, ...] = ()

    def overlay_state(self) -> Dict[str, Any]:
        """The counters at a checkpoint cut, unrounded."""
        return {k: getattr(self, k) for k in self.STATE}

    def restore_overlay(self, state: Dict[str, Any]) -> None:
        """Continue from a checkpointed :meth:`overlay_state`."""
        for k in self.STATE:
            setattr(self, k, state[k])
