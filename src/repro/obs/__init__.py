"""Engine observability: structured tracing + metrics registry.

Two independent, individually-optional instruments threaded through all
four engines (MultiLogVC, GraphChi, GraFBoost, GridGraph/X-Stream):

* :class:`Tracer` / :class:`TraceRecorder` -- typed event stream
  stamped with simulated time (deterministic and bit-identical across
  pipeline depths); serialised to JSONL by :func:`write_jsonl` and
  rolled up by :func:`trace_summary`.
* :class:`MetricsRegistry` -- named counters/gauges that the engine
  units (multi-log, loader, edge-log, sort/group, page buffers)
  register into; snapshotted into ``RunResult.metrics``.

Both default to null objects with zero overhead.  The
:func:`repro.run` facade wires them up; :func:`use_tracer` installs an
ambient tracer for code paths (CLI, experiments) that construct engines
internally.
"""

from .context import current_tracer, use_tracer
from .metrics import NULL_METRICS, Counter, MetricsRegistry, NullMetricsRegistry
from .overlay import Overlay
from .tracer import NULL_TRACER, TRACE_KINDS, TRACE_SCHEMA, TraceEvent, Tracer, TraceRecorder
from .writer import load_jsonl, trace_summary, write_jsonl

__all__ = [
    "Tracer",
    "TraceRecorder",
    "TraceEvent",
    "TRACE_KINDS",
    "TRACE_SCHEMA",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Counter",
    "NULL_METRICS",
    "Overlay",
    "current_tracer",
    "use_tracer",
    "write_jsonl",
    "load_jsonl",
    "trace_summary",
]
