"""The unified cross-engine entry point: :func:`repro.run`.

One call signature for all engines, replacing four divergent
constructor protocols::

    import repro
    from repro import EngineOptions
    from repro.obs import TraceRecorder

    tracer = TraceRecorder()
    result = repro.run(graph, program, engine="multilogvc",
                       options=EngineOptions(mode="async"),
                       tracer=tracer)
    result.trace      # the typed event stream (None when untraced)
    result.metrics    # unit counters/gauges snapshot

The facade owns the observability wiring: it resolves the ambient
tracer (see :mod:`repro.obs.context`), creates a fresh
:class:`~repro.obs.MetricsRegistry` per run unless given one, and
returns the engine's :class:`~repro.core.results.RunResult` with its
``trace`` and ``metrics`` fields populated.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Union

from .baselines import GraFBoost, GraphChi, GridGraph, XStream
from .config import DEFAULT_CONFIG, SimConfig
from .core.api import VertexProgram
from .core.engine import MultiLogVC
from .core.results import RunResult, SuperstepRecord
from .errors import EngineError
from .graph.csr import CSRGraph
from .obs import MetricsRegistry, Tracer
from .options import RELEVANT_OPTIONS, EngineOptions
from .recovery.checkpoint import CheckpointData
from .ssd.filesystem import SimFS
from .verify.oracle import OracleEngine

#: Engine name -> class, the registry behind ``engine="..."``.
#: ``oracle`` is the in-memory golden reference from :mod:`repro.verify`.
ENGINES = {
    "multilogvc": MultiLogVC,
    "graphchi": GraphChi,
    "grafboost": GraFBoost,
    "gridgraph": GridGraph,
    "xstream": XStream,
    "oracle": OracleEngine,
}


@dataclass(frozen=True)
class EngineInfo:
    """Capability descriptor for one registered engine.

    Derived from the engine class and :data:`~repro.options.RELEVANT_OPTIONS`
    -- not hand-maintained, so it cannot drift from what the engine
    actually accepts.

    options:
        The :class:`~repro.options.EngineOptions` field names this
        engine consumes; any other non-default option raises.
    supports_resume:
        Whether ``run(..., resume_from=...)`` is accepted (checkpoint
        restore; MultiLogVC only today).
    supports_checkpoint:
        Whether the engine can write crash-consistent checkpoints
        (``checkpoint_every``).
    in_memory:
        True for engines that perform no simulated I/O (the oracle,
        which says so with an ``in_memory`` class attribute); such
        engines ignore the shared file layer -- and with it the
        storage-stack knobs of :class:`~repro.config.SimConfig` --
        entirely.
    supports_warm_start:
        Whether ``run(..., initial_state=...)`` is accepted (the stream
        subsystem's incremental-recompute entry, DESIGN.md §12).
    """

    options: FrozenSet[str]
    supports_resume: bool
    supports_checkpoint: bool
    in_memory: bool
    supports_warm_start: bool = False


def engines() -> Dict[str, EngineInfo]:
    """Capability map for every registered engine, keyed like :data:`ENGINES`.

    ::

        >>> repro.engines()["multilogvc"].supports_resume
        True
        >>> [n for n, i in repro.engines().items() if i.in_memory]
        ['oracle']
    """
    out: Dict[str, EngineInfo] = {}
    for name, cls in ENGINES.items():
        relevant = RELEVANT_OPTIONS[name]
        out[name] = EngineInfo(
            options=relevant,
            supports_resume="resume_from" in inspect.signature(cls.run).parameters,
            supports_checkpoint="checkpoint_every" in relevant,
            in_memory=getattr(cls, "in_memory", False),
            supports_warm_start="initial_state" in inspect.signature(cls.run).parameters,
        )
    return out

#: Signature of the per-superstep progress hook.
ProgressFn = Callable[[SuperstepRecord], None]


def run(
    graph: CSRGraph,
    program: VertexProgram,
    engine: str = "multilogvc",
    *,
    config: SimConfig = DEFAULT_CONFIG,
    options: Optional[EngineOptions] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[ProgressFn] = None,
    fs: Optional[SimFS] = None,
    max_supersteps: int = 15,
    seed: int = 0,
    resume_from: Optional[CheckpointData] = None,
    initial_state=None,
) -> RunResult:
    """Run ``program`` on ``graph`` with the named engine.

    Parameters
    ----------
    engine:
        One of ``"multilogvc"``, ``"graphchi"``, ``"grafboost"``,
        ``"gridgraph"``, ``"xstream"``.
    options:
        Consolidated engine knobs; non-default options the chosen
        engine does not honour raise :class:`~repro.errors.EngineError`.
    tracer:
        A :class:`~repro.obs.Tracer`; defaults to the ambient tracer
        (the null tracer outside a :func:`~repro.obs.use_tracer` scope).
    metrics:
        A :class:`~repro.obs.MetricsRegistry`; a fresh one is created
        per run when omitted, so ``result.metrics`` is always populated.
    progress:
        Called with each completed :class:`SuperstepRecord` -- the hook
        for long-run progress reporting.
    resume_from:
        A :class:`~repro.recovery.CheckpointData` to restore before the
        first superstep (MultiLogVC only); see :func:`resume` for the
        path-accepting convenience wrapper.
    initial_state:
        An :class:`~repro.core.api.InitialState` to start from instead
        of the program's ``initial()`` -- the stream subsystem's
        warm-start entry (engines with ``supports_warm_start`` only).
        Mutually exclusive with ``resume_from``.
    """
    cls = ENGINES.get(engine)
    if cls is None:
        raise EngineError(f"unknown engine {engine!r}; choose from {sorted(ENGINES)}")
    if resume_from is not None and not engines()[engine].supports_resume:
        capable = sorted(n for n, i in engines().items() if i.supports_resume)
        raise EngineError(
            f"engine {engine!r} does not support resume_from "
            f"(supported by: {', '.join(capable)})"
        )
    if initial_state is not None and not engines()[engine].supports_warm_start:
        capable = sorted(n for n, i in engines().items() if i.supports_warm_start)
        raise EngineError(
            f"engine {engine!r} does not support initial_state "
            f"(supported by: {', '.join(capable)})"
        )
    if metrics is None:
        metrics = MetricsRegistry()
    inst = cls(
        graph,
        program,
        config,
        fs=fs,
        options=options,
        tracer=tracer,
        metrics=metrics,
        progress=progress,
    )
    if resume_from is not None:
        return inst.run(max_supersteps=max_supersteps, seed=seed, resume_from=resume_from)
    if initial_state is not None:
        return inst.run(max_supersteps=max_supersteps, seed=seed, initial_state=initial_state)
    return inst.run(max_supersteps=max_supersteps, seed=seed)


def resume(
    graph: CSRGraph,
    program: VertexProgram,
    checkpoint: Union[CheckpointData, str],
    *,
    config: SimConfig = DEFAULT_CONFIG,
    options: Optional[EngineOptions] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[ProgressFn] = None,
    fs: Optional[SimFS] = None,
    max_supersteps: int = 15,
    seed: int = 0,
) -> RunResult:
    """Resume a MultiLogVC run from a checkpoint.

    ``checkpoint`` is either a :class:`~repro.recovery.CheckpointData`
    (e.g. from :meth:`CheckpointManager.load_latest` on a crashed run's
    file system) or a path to a host-side snapshot written by
    :meth:`CheckpointData.save`.  ``graph``/``program``/``config`` and
    the relevant ``options`` must match the checkpointed run -- the
    checkpoint validates compatibility and raises
    :class:`~repro.errors.RecoveryError` on mismatch.  The resumed run
    continues at superstep ``checkpoint.step + 1`` and is bit-identical
    to an uninterrupted run from that cut.
    """
    if isinstance(checkpoint, (str,)):
        checkpoint = CheckpointData.load(checkpoint)
    return run(
        graph,
        program,
        engine="multilogvc",
        config=config,
        options=options,
        tracer=tracer,
        metrics=metrics,
        progress=progress,
        fs=fs,
        max_supersteps=max_supersteps,
        seed=seed,
        resume_from=checkpoint,
    )
