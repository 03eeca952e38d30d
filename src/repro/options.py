"""Unified engine options for the :func:`repro.run` facade.

The four engines historically diverged in constructor signatures
(``MultiLogVC(..., mode=, enable_edgelog=, enable_fusing=,
min_intervals=, intervals=)`` vs ``GraFBoost(..., adapted=,
merge_fanout=)`` vs bare ``GraphChi`` vs ``GridGraph(...,
intervals=)``).  :class:`EngineOptions` consolidates every knob into one
frozen dataclass so any workload runs on any engine through the same
call::

    repro.run(graph, program, engine="grafboost",
              options=EngineOptions(adapted=True))

Each engine validates that the non-default options it received actually
apply to it (asking GraphChi for ``adapted=True`` is an error, not a
silent no-op).  The old per-engine keyword arguments were deprecated in
the options consolidation and are **removed** as of API v1: passing one
raises :class:`~repro.errors.EngineError` with a migration hint (see
README "v1 API migration").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional

from .config import IO_PLAN_MODES, PLACEMENTS
from .errors import EngineError

if TYPE_CHECKING:  # circular-import guard; only for annotations
    from .config import SimConfig
    from .graph.partition import VertexIntervals
    from .ssd.filesystem import SimFS

#: Sentinel distinguishing "not passed" from an explicit value in the
#: deprecated per-engine keyword arguments.
_UNSET = object()


@dataclass(frozen=True)
class EngineOptions:
    """Every engine-tuning knob, consolidated.

    Only the subset relevant to the chosen engine may differ from the
    defaults; see :data:`RELEVANT_OPTIONS`.

    mode:
        ``"sync"`` (default) or ``"async"`` computation model
        (MultiLogVC §V-F).
    enable_edgelog:
        Toggle for the §V-C edge-log optimizer (MultiLogVC ablations).
    enable_fusing:
        Toggle for §V-A2 interval fusing (MultiLogVC ablations).
    min_intervals:
        Force at least this many vertex intervals (MultiLogVC
        testing/ablation).
    intervals:
        Explicit vertex-interval partition overriding the automatic
        sizing rule (MultiLogVC and GridGraph).
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
    checkpoint_mode:
        ``"full"`` (default) snapshots the whole value vector each
        time; ``"incremental"`` stores value deltas against the
        previous checkpoint (resolved back to a full baseline at load).
    cache_policy:
        DRAM page-cache policy between the engine and the simulated
        SSD: ``None`` (default) keeps the config's setting, ``"none"``
        forces the cache off, ``"clock"`` enables it (DESIGN.md §10).
        Applies to every engine -- the cache lives in the shared file
        layer, not in any one engine.
    cache_bytes:
        Explicit cache budget in bytes; defaults to the config's
        ``memory.cache_bytes_default`` when the cache is enabled.
    num_workers:
        Simulated worker lanes of MultiLogVC's overlap model
        (DESIGN.md §11).  ``None`` (default) inherits the config's
        ``num_workers``; results are bit-identical at any count.
    io_plan:
        Superstep I/O planner mode (DESIGN.md §13): ``None`` (default)
        inherits the config's ``io_plan``; ``"off"`` forces the seed's
        per-path batches; ``"coalesce"`` enables extent coalescing and
        channel-balanced dispatch waves; ``"coalesce+readahead"``
        additionally prefetches the predicted next group's pages into
        the CLOCK page cache (no-op without a cache).  Values and
        records are bit-identical in every mode.
    readahead_pages:
        Per-superstep page budget for the planner's read-ahead;
        ``None`` inherits the config's ``readahead_pages``.
    num_devices:
        Size of the simulated SSD device array (DESIGN.md §14).
        ``None`` (default) inherits the config's ``num_devices``;
        values, records and semantic traces are bit-identical at any
        count -- only the ``device.*`` overlay accounting changes.
    placement:
        Device-array placement policy: ``None`` (default) inherits the
        config's ``placement``; ``"stripe"`` round-robins
        channel-intersperse cycles across devices; ``"affinity"``
        additionally pins interval-affine logs whole to
        ``interval % num_devices``.
    recompute:
        Streaming-update recompute policy (DESIGN.md §12), consumed by
        :class:`~repro.stream.StreamSession` -- not by the engines
        themselves, so the session strips it back to the default before
        constructing an engine.  ``"auto"`` (default) warm-starts when
        the program supports it and the delta fraction is under
        ``SimConfig.stream_max_delta_fraction``; ``"incremental"``
        warm-starts whenever the program supports it; ``"full"`` always
        recomputes from scratch.
    """

    mode: str = "sync"
    enable_edgelog: bool = True
    enable_fusing: bool = True
    min_intervals: int = 1
    intervals: Optional["VertexIntervals"] = None
    adapted: bool = False
    merge_fanout: int = 16
    grid_p: Optional[int] = None
    checkpoint_every: int = 0
    checkpoint_mode: str = "full"
    cache_policy: Optional[str] = None
    cache_bytes: Optional[int] = None
    num_workers: Optional[int] = None
    io_plan: Optional[str] = None
    readahead_pages: Optional[int] = None
    num_devices: Optional[int] = None
    placement: Optional[str] = None
    recompute: str = "auto"

    def replace(self, **changes) -> "EngineOptions":
        """Return a copy with the given fields replaced.

        Sugar over :func:`dataclasses.replace` so callers tweaking a
        shared base options object do not need the dataclasses import::

            base = EngineOptions(checkpoint_every=4)
            fast = base.replace(num_workers=8)
        """
        return dataclasses.replace(self, **changes)

    def validate_for(self, engine: str, fs: Optional["SimFS"] = None) -> None:
        """Reject non-default options the named engine does not consume.

        ``fs`` is the explicit file system handed to the engine, if any:
        the page cache is constructed by :class:`~repro.ssd.SimFS` from
        its config, so cache knobs combined with an explicit ``fs``
        would be silently ignored -- that combination is an error here.
        """
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
        if fs is not None and (self.cache_policy is not None or self.cache_bytes is not None):
            raise EngineError(
                "cache_policy/cache_bytes cannot be combined with an explicit fs; "
                "enable the cache on the SimConfig the fs was built from instead"
            )
        if fs is not None and (self.num_devices is not None or self.placement is not None):
            raise EngineError(
                "num_devices/placement cannot be combined with an explicit fs; "
                "the device array is constructed by SimFS from its config -- set "
                "them on the SimConfig the fs was built from instead"
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
        if self.checkpoint_mode not in ("full", "incremental"):
            raise EngineError(
                f"checkpoint_mode must be 'full' or 'incremental', got {self.checkpoint_mode!r}"
            )
        if self.cache_policy not in (None, "none", "clock"):
            raise EngineError(
                f"cache_policy must be 'none' or 'clock', got {self.cache_policy!r}"
            )
        if self.cache_bytes is not None and self.cache_bytes <= 0:
            raise EngineError("cache_bytes must be positive")
        if self.num_workers is not None and self.num_workers < 1:
            raise EngineError("num_workers must be >= 1")
        if self.io_plan is not None and self.io_plan not in IO_PLAN_MODES:
            raise EngineError(
                f"io_plan must be one of {IO_PLAN_MODES}, got {self.io_plan!r}"
            )
        if self.readahead_pages is not None and self.readahead_pages < 0:
            raise EngineError("readahead_pages must be non-negative")
        if self.num_devices is not None and self.num_devices < 1:
            raise EngineError("num_devices must be >= 1")
        if self.placement is not None and self.placement not in PLACEMENTS:
            raise EngineError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if self.recompute not in ("auto", "incremental", "full"):
            raise EngineError(
                f"recompute must be 'auto', 'incremental' or 'full', got {self.recompute!r}"
            )


#: The page cache lives in the shared SSD file layer, so its knobs
#: apply to every out-of-core engine.  The in-memory oracle performs no
#: simulated I/O and is excluded.
_CACHE_OPTIONS = frozenset({"cache_policy", "cache_bytes"})

#: The superstep I/O planner (DESIGN.md §13) is wired through the
#: MultiLogVC read paths only; the comparison engines keep the seed's
#: per-path batches.
_IO_PLAN_OPTIONS = frozenset({"io_plan", "readahead_pages"})

#: The device array (DESIGN.md §14) lives below the file layer, so like
#: the cache its knobs apply to every out-of-core engine; the in-memory
#: oracle performs no simulated I/O and is excluded.
_DEVICE_OPTIONS = frozenset({"num_devices", "placement"})

#: Which :class:`EngineOptions` fields each engine consumes.
RELEVANT_OPTIONS: Dict[str, FrozenSet[str]] = {
    "multilogvc": frozenset(
        {
            "mode",
            "enable_edgelog",
            "enable_fusing",
            "min_intervals",
            "intervals",
            "checkpoint_every",
            "checkpoint_mode",
            "num_workers",
        }
    )
    | _CACHE_OPTIONS
    | _IO_PLAN_OPTIONS
    | _DEVICE_OPTIONS,
    "graphchi": _CACHE_OPTIONS | _DEVICE_OPTIONS,
    # The in-memory golden oracle (repro.verify) has no tuning knobs.
    "oracle": frozenset(),
    "grafboost": frozenset({"adapted", "merge_fanout"}) | _CACHE_OPTIONS | _DEVICE_OPTIONS,
    "gridgraph": frozenset({"intervals", "grid_p"}) | _CACHE_OPTIONS | _DEVICE_OPTIONS,
    "xstream": frozenset({"intervals", "grid_p"}) | _CACHE_OPTIONS | _DEVICE_OPTIONS,
}


def apply_config_options(
    config: "SimConfig", options: EngineOptions, fs: Optional["SimFS"]
) -> "SimConfig":
    """Fold the options' config-level knobs (cache, workers) into ``config``.

    The fs-conflict check lives in :meth:`EngineOptions.validate_for`
    (which every engine runs via :func:`resolve_options` before calling
    this), so this helper only folds.  ``fs`` is accepted for signature
    stability and as a belt-and-braces guard for direct callers.
    """
    if options.cache_policy is not None or options.cache_bytes is not None:
        if fs is not None:
            raise EngineError(
                "cache_policy/cache_bytes cannot be combined with an explicit fs; "
                "enable the cache on the SimConfig the fs was built from instead"
            )
        policy = options.cache_policy if options.cache_policy is not None else "clock"
        config = config.with_cache(policy=policy, cache_bytes=options.cache_bytes)
    if options.num_workers is not None:
        config = config.with_workers(options.num_workers)
    if options.io_plan is not None or options.readahead_pages is not None:
        config = config.with_io_plan(
            options.io_plan if options.io_plan is not None else config.io_plan,
            readahead_pages=options.readahead_pages,
        )
    if options.num_devices is not None or options.placement is not None:
        if fs is not None:
            raise EngineError(
                "num_devices/placement cannot be combined with an explicit fs; "
                "set them on the SimConfig the fs was built from instead"
            )
        config = config.with_devices(options.num_devices, options.placement)
    return config


def resolve_options(
    engine: str,
    options: Optional[EngineOptions],
    fs: Optional["SimFS"] = None,
    **legacy,
) -> EngineOptions:
    """Validate (and default) the options object for ``engine``.

    ``legacy`` catches the pre-v1 per-engine keyword arguments
    (``mode=``, ``enable_edgelog=``, ``adapted=``, ...).  They were
    deprecated when :class:`EngineOptions` consolidated the knobs and
    are removed as of API v1: passing any real value (anything but the
    :data:`_UNSET` sentinel) raises :class:`~repro.errors.EngineError`
    with a migration hint.
    """
    passed = {k: v for k, v in legacy.items() if v is not _UNSET}
    if passed:
        ks = sorted(passed)
        raise EngineError(
            f"per-engine keyword argument(s) {', '.join(ks)} were removed in "
            f"API v1; pass options=EngineOptions({', '.join(f'{k}=...' for k in ks)}) "
            f"instead (or use repro.run(..., options=...))"
        )
    if options is None:
        options = EngineOptions()
    options.validate_for(engine, fs=fs)
    return options
