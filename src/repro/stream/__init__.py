"""Streaming graph updates (DESIGN.md §12).

MultiLogVC's log-structured multi-log layout is a natural substrate for
*evolving* graphs: edge insertions and deletions arrive as timestamped
records, are appended to per-interval logs on the simulated SSD whose
applied prefix is the graph's delta log, with tombstones for deletions
(:class:`StreamStore`, compacted when garbage exceeds a threshold), and
analytics are kept
fresh by incremental recomputation -- warm-starting the engine from the
previous converged values and seeding only the vertices touched by the
delta (:mod:`repro.stream.incremental`), with a full-recompute fallback
when the delta fraction exceeds a knob.

:class:`StreamSession` ties the pieces together and is the entry behind
``repro ingest`` and ``repro compute --updates``.
"""

from .delta import EdgeDelta, random_delta
from .incremental import descendants, minprop_warm_start
from .session import RecomputeResult, StreamSession
from .store import StreamStore

__all__ = [
    "EdgeDelta",
    "random_delta",
    "descendants",
    "minprop_warm_start",
    "RecomputeResult",
    "StreamSession",
    "StreamStore",
]
