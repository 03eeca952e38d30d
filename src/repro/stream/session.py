"""Streaming-update sessions: ingest, merge, recompute (DESIGN.md §12).

:class:`StreamSession` ties the pieces together:

* a :class:`~repro.stream.store.StreamStore` on the session's own
  simulated SSD holds the evolving graph (base CSR shards + one dense
  update log, sorted by interval within each batch);
* :meth:`ingest` buffers update batches durably, :meth:`apply_updates`
  merges them, :meth:`recover` replays the log's committed batches
  after a simulated power cut;
* :meth:`recompute` re-runs the vertex program on the updated graph --
  *incrementally* (warm-started from the previous converged values)
  when the program supports it and the delta is small, from scratch
  otherwise.  Either way the final values are bit-exactly those of a
  from-scratch run on the updated graph; the conformance fuzzer
  (:mod:`repro.verify.streamcases`) checks exactly that.

The decision rule (``StreamSession(recompute=...)``):

``"auto"``
    warm-start iff the program declares a ``relax`` and its
    :meth:`warm_start` supports it, prior
    converged values exist, and the changed-edge fraction is at most
    ``SimConfig.stream_max_delta_fraction``;
``"incremental"``
    warm-start whenever the program supports it (no fraction gate);
``"full"``
    always recompute from scratch.

Each engine run gets a **fresh** file system (so consecutive runs never
collide on file names), while the store's SSD lives for the whole
session -- its ingest/merge traffic accumulates in
``session.fs.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..config import DEFAULT_CONFIG, SimConfig
from ..core.api import VertexProgram
from ..core.results import RunResult
from ..errors import EngineError
from ..graph.csr import CSRGraph
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..options import EngineOptions, resolve_options
from ..runner import engines, run as run_engine
from ..ssd.filesystem import SimFS
from .delta import EdgeDelta
from .incremental import descendants
from .store import StreamStore


@dataclass(frozen=True)
class RecomputeResult:
    """Outcome of one :meth:`StreamSession.recompute`.

    mode:
        ``"incremental"`` or ``"full"`` -- the path actually taken.
    requested:
        The policy in force (``"auto"``/``"incremental"``/``"full"``).
    changed_edges:
        Edge identities inserted plus deleted since the previous
        recompute (0 on the first run).
    changed_fraction:
        ``changed_edges`` over the updated graph's edge count.
    seed_io_us:
        Simulated I/O charged on the session SSD to build the warm
        start (the rows of the deleted edges' tails and of the deletion
        cone, plus the in-edge discovery scan when the cone is not
        empty); 0.0 for full recomputes.
    result:
        The engine's :class:`~repro.core.results.RunResult` on the
        updated graph.
    """

    mode: str
    requested: str
    changed_edges: int
    changed_fraction: float
    seed_io_us: float
    result: RunResult


class StreamSession:
    """Ingest edge updates and keep a program's results fresh."""

    def __init__(
        self,
        graph: CSRGraph,
        program: VertexProgram,
        *,
        engine: str = "multilogvc",
        config: SimConfig = DEFAULT_CONFIG,
        options: Optional[EngineOptions] = None,
        recompute: str = "auto",
        fs: Optional[SimFS] = None,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if engine not in engines():
            raise EngineError(f"unknown engine {engine!r}; choose from {sorted(engines())}")
        self.program = program
        self.engine = engine
        self.config = config
        self.options = resolve_options(engine, options)
        #: Session-wide recompute policy; :meth:`recompute` can override
        #: it per call.
        self.recompute_policy = recompute
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The session's SSD: holds the store's logs and shards for the
        #: session's whole lifetime.  Tests install fault plans on
        #: ``fs.device`` to cut power mid-ingest or mid-merge.
        self.fs = fs if fs is not None else SimFS(config)
        self._begin("store_init")
        self.store = StreamStore(
            graph, self.fs, config, tracer=tracer, metrics=self.metrics
        )
        self._end()
        # Converged values from the last recompute and the graph they
        # were computed on (host-side state, like an application keeping
        # its result vector resident between queries).
        self._values: Optional[np.ndarray] = None
        self._prev_graph: Optional[CSRGraph] = None
        self._incremental_runs = 0
        self._full_runs = 0
        self.metrics.gauge("stream.incremental_runs", lambda: self._incremental_runs)
        self.metrics.gauge("stream.full_runs", lambda: self._full_runs)
        if self.fs.device.num_devices > 1:
            # The store SSD's array overlay (DESIGN.md §14).
            self.fs.device.register_metrics(self.metrics)

    # -- trace segments ----------------------------------------------------

    def _begin(self, phase: str) -> None:
        """Open a trace segment for one session-side operation.

        Engine recomputes emit their own ``run_begin``/``run_end`` on
        their own (restarted) clocks; every store-side operation opens a
        fresh segment on the session SSD's clock so per-segment
        timestamp monotonicity holds for the whole concatenated trace.
        """
        if self.tracer.enabled:
            self.tracer.bind_clock(lambda: self.fs.stats.total_time_us)
            self.tracer.set_step(-1)
            self.tracer.emit(
                "run_begin",
                engine="stream",
                program=self.program.name,
                mode=phase,
                n_vertices=int(self.store.n) if hasattr(self, "store") else 0,
                n_intervals=(
                    int(self.store.intervals.n_intervals) if hasattr(self, "store") else 0
                ),
            )

    def _end(self) -> None:
        if self.tracer.enabled:
            self.tracer.emit("run_end", engine="stream", converged=True, supersteps=0)

    # -- the streaming API -------------------------------------------------

    def ingest(self, delta: EdgeDelta) -> Dict[str, float]:
        """Durably buffer one update batch (multi-log append)."""
        self._begin("ingest")
        out = self.store.ingest(delta)
        self._end()
        return out

    def apply_updates(self) -> Dict[str, float]:
        """Merge all pending batches into the graph shards."""
        self._begin("apply")
        out = self.store.apply_updates()
        self._end()
        return out

    def recover(self) -> Dict[str, int]:
        """Rebuild store state from flash after a simulated power cut.

        Previous converged values are discarded: they were host memory,
        which the power cut lost, so the next :meth:`recompute` takes
        the full path.  Batches that were durably ingested but not yet
        applied survive and remain pending -- a merged batch whose
        ``applied`` mark never reached flash among them; the next
        :meth:`apply_updates` merges it once.
        """
        self._begin("recover")
        out = self.store.recover()
        self._end()
        self._values = None
        self._prev_graph = None
        return out

    def recompute(
        self,
        max_supersteps: int = 50,
        seed: int = 0,
        mode: Optional[str] = None,
    ) -> RecomputeResult:
        """Bring the program's values up to date with the stored graph.

        ``mode`` overrides the session policy for this call.  The
        incremental path warm-starts the engine from the previous
        converged values (see :mod:`repro.stream.incremental`); any
        precondition failure -- no prior values, program without a
        warm start, delta too large under ``"auto"`` -- falls back to a
        full run.  Both paths yield bit-identical final values.
        """
        requested = mode if mode is not None else self.recompute_policy
        if requested not in ("auto", "incremental", "full"):
            raise EngineError(
                f"recompute must be 'auto', 'incremental' or 'full', got {requested!r}"
            )
        new_graph = self.store.materialize()
        changed = 0
        fraction = 0.0
        initial_state = None
        seed_io_us = 0.0
        can_warm = (
            requested != "full"
            and self._values is not None
            and self.program.relax is not None
            and engines()[self.engine].supports_warm_start
        )
        if requested != "full" and not engines()[self.engine].supports_warm_start:
            if requested == "incremental":
                capable = sorted(n for n, i in engines().items() if i.supports_warm_start)
                raise EngineError(
                    f"engine {self.engine!r} does not support incremental recompute "
                    f"(supported by: {', '.join(capable)})"
                )
        # The store's net edge delta since the previous recompute: taken
        # every time, so it always spans exactly one recompute window.
        d_src, d_dst, i_src, i_dst, i_w = self.store.take_changes()
        if self._prev_graph is not None:
            changed = int(d_src.size + i_src.size)
            fraction = changed / max(1, new_graph.m)
        if can_warm and self._prev_graph is not None:
            if requested == "auto" and fraction > self.config.stream_max_delta_fraction:
                can_warm = False
        if can_warm and self._prev_graph is not None:
            roots, cone = descendants(
                self._prev_graph, self._values, self.program.relax, d_src, d_dst
            )
            rng = np.random.default_rng(seed)
            initial_state = self.program.warm_start(
                new_graph, self._values, cone,
                i_src, i_dst, i_w, rng,
            )
            if initial_state is not None:
                self._begin("seed")
                # The walk reads the deleted tails' rows (to test each
                # deleted edge's tightness) and the cone's rows.
                walk = np.union1d(cone, d_src)
                seed_io_us = self.store.charge_rows(walk)
                if cone.size:
                    # Finding surviving in-edges into the cone costs one
                    # sweep of edge storage (no reverse index on flash).
                    seed_io_us += self.store.charge_seed_scan()
                self.tracer.emit(
                    "warm_start",
                    roots=int(roots.size),
                    cone=int(cone.size),
                    walk_rows=int(walk.size),
                    scan=bool(cone.size),
                    seeds=0 if initial_state.messages is None else initial_state.messages.n,
                    seeds_dropped=int(initial_state.seeds_dropped),
                    io_us=float(seed_io_us),
                )
                self._end()
        result = run_engine(
            new_graph,
            self.program,
            self.engine,
            config=self.config,
            options=self.options,
            tracer=self.tracer if self.tracer.enabled else None,
            max_supersteps=max_supersteps,
            seed=seed,
            initial_state=initial_state,
        )
        took = "incremental" if initial_state is not None else "full"
        if took == "incremental":
            self._incremental_runs += 1
        else:
            self._full_runs += 1
        # Warm starts require *converged* prior values; a run cut off by
        # max_supersteps is not a fixed point, so do not keep it.
        if result.converged:
            self._values = np.array(result.values, copy=True)
            self._prev_graph = new_graph
        else:
            self._values = None
            self._prev_graph = None
        return RecomputeResult(
            mode=took,
            requested=requested,
            changed_edges=changed,
            changed_fraction=fraction,
            seed_io_us=seed_io_us,
            result=result,
        )
