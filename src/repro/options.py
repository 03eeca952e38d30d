"""Per-engine options for the :func:`repro.run` facade.

:class:`EngineOptions` holds what an *engine* consumes -- computation
model, ablation toggles, partitioning, checkpointing -- in one frozen
dataclass, so any workload runs on any engine through the same call::

    repro.run(graph, program, engine="grafboost",
              options=EngineOptions(adapted=True))

Each engine validates that the non-default options it received actually
apply to it (asking GraphChi for ``adapted=True`` is an error, not a
silent no-op).

What is *not* here: the storage-stack knobs (page cache, worker lanes,
I/O planner, device array).  They describe the machine below every
engine and are declared once, on :class:`~repro.config.SimConfig`
(:data:`~repro.config.KNOBS`); set them with the config's
``with_*`` helpers (README "Knobs").  The streaming recompute policy is a
:class:`~repro.stream.StreamSession` keyword.  Both spellings used to
exist on this class too and now raise ``TypeError``, as do the still
older per-engine keyword arguments (``MultiLogVC(..., mode=)``); README
"API v1 migration" maps old spellings to new.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional

from .errors import EngineError

if TYPE_CHECKING:  # circular-import guard; only for annotations
    from .graph.partition import VertexIntervals

@dataclass(frozen=True)
class EngineOptions:
    """Every knob an engine itself consumes.

    Only the subset relevant to the chosen engine may differ from the
    defaults; see :data:`RELEVANT_OPTIONS`.

    mode:
        ``"sync"`` (default) or ``"async"`` computation model
        (MultiLogVC §V-F).
    enable_edgelog:
        Toggle for the §V-C edge-log optimizer (MultiLogVC ablations).
    enable_fusing:
        Toggle for §V-A2 interval fusing (MultiLogVC ablations).
    enable_precombine:
        Toggle for the send-side combine (MultiLogVC ablations): with a
        named ``combine`` a group's sends are reduced to one record per
        (destination, source interval) before they are logged.  Off is
        the paper's §V-D, which combines only after the log is read
        back.  Values and activity records are identical either way
        (DESIGN.md §15); log traffic and simulated time are not.
    min_intervals:
        Force at least this many vertex intervals (MultiLogVC
        testing/ablation; the oracle takes it to reduce ``add`` over
        the same partition).
    intervals:
        Explicit vertex-interval partition overriding the automatic
        sizing rule (MultiLogVC, GridGraph, and the oracle as above).
    adapted:
        GraFBoost §VIII adaptation: keep all updates, no combine.
    merge_fanout:
        Width of GraFBoost's external merge (16-way in ISCA'18).
    grid_p:
        GridGraph grid dimension: partition vertices into ``p`` uniform
        intervals (``p x p`` edge blocks) instead of the edge-volume
        sizing rule.
    checkpoint_every:
        Write a crash-consistent checkpoint every N supersteps
        (MultiLogVC only; 0 disables checkpointing).  See
        :mod:`repro.recovery` and DESIGN.md §8.
    """

    mode: str = "sync"
    enable_edgelog: bool = True
    enable_fusing: bool = True
    enable_precombine: bool = True
    min_intervals: int = 1
    intervals: Optional["VertexIntervals"] = None
    adapted: bool = False
    merge_fanout: int = 16
    grid_p: Optional[int] = None
    checkpoint_every: int = 0

    def replace(self, **changes) -> "EngineOptions":
        """Return a copy with the given fields replaced.

        Sugar over :func:`dataclasses.replace` so callers tweaking a
        shared base options object do not need the dataclasses import::

            base = EngineOptions(checkpoint_every=4)
            unfused = base.replace(enable_fusing=False)
        """
        return dataclasses.replace(self, **changes)

    def validate_for(self, engine: str) -> None:
        """Reject non-default options the named engine does not consume."""
        relevant = RELEVANT_OPTIONS.get(engine)
        if relevant is None:
            raise EngineError(
                f"unknown engine {engine!r}; choose from {sorted(RELEVANT_OPTIONS)}"
            )
        defaults = EngineOptions()
        stray = [
            f.name
            for f in dataclasses.fields(self)
            if f.name not in relevant
            and getattr(self, f.name) != getattr(defaults, f.name)
        ]
        if stray:
            raise EngineError(
                f"option(s) {', '.join(stray)} do not apply to engine {engine!r} "
                f"(it honours: {', '.join(sorted(relevant)) or 'none'})"
            )
        if self.mode not in ("sync", "async"):
            raise EngineError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if self.merge_fanout < 2:
            raise EngineError("merge_fanout must be >= 2")
        if self.min_intervals < 1:
            raise EngineError("min_intervals must be >= 1")
        if self.grid_p is not None and self.grid_p < 1:
            raise EngineError("grid_p must be >= 1")
        if self.checkpoint_every < 0:
            raise EngineError("checkpoint_every must be >= 0")


#: Which :class:`EngineOptions` fields each engine consumes.
RELEVANT_OPTIONS: Dict[str, FrozenSet[str]] = {
    "multilogvc": frozenset(
        {
            "mode",
            "enable_edgelog",
            "enable_fusing",
            "enable_precombine",
            "min_intervals",
            "intervals",
            "checkpoint_every",
        }
    ),
    "graphchi": frozenset(),
    # The in-memory golden oracle (repro.verify) has no tuning knobs; it
    # takes the partition because the combine tree is defined over it.
    "oracle": frozenset({"min_intervals", "intervals"}),
    "grafboost": frozenset({"adapted", "merge_fanout"}),
    "gridgraph": frozenset({"intervals", "grid_p"}),
    "xstream": frozenset({"intervals", "grid_p"}),
}


def resolve_options(engine: str, options: Optional[EngineOptions]) -> EngineOptions:
    """Validate (and default) the options object for ``engine``."""
    if options is None:
        options = EngineOptions()
    options.validate_for(engine)
    return options
