"""The one superstep loop every engine runs.

MultiLogVC, GraphChi, GraFBoost, GridGraph/X-Stream and the oracle
differ only in how updates travel through storage.  Everything else --
the vertex-program contract, activation, the superstep record and the
trace -- is this module's, written once so the engines cannot drift
apart:

* set-up: options, graph, program, config, file system, tracer, metrics
  registry and progress hook (:meth:`SuperstepEngine.__init__`);
* run start: metric registration, the tracer clock, ``run_begin``, the
  :class:`~repro.core.active.ActiveTracker` and seeding from
  ``initial()`` (:meth:`~SuperstepEngine._start`, :meth:`~SuperstepEngine._run`);
* the superstep loop (:meth:`~SuperstepEngine._run`): the convergence
  test, ``superstep_begin``, the step, ``on_superstep_end``, record
  assembly from the stats delta and ``superstep_end``
  (:meth:`~SuperstepEngine._record`), the progress hook, the
  active-set advance and ``is_converged``;
* the per-vertex step (:meth:`~SuperstepEngine._vertex`, and
  :meth:`~SuperstepEngine._sweep` for engines that deliver a dest-sorted
  batch) and the one range-checked :class:`Outbox`;
* run end: ``run_end`` and the :class:`~repro.core.results.RunResult`.

A baseline engine overrides :meth:`~SuperstepEngine._superstep` -- its
storage traffic, delivery and engine-specific events -- plus, where it
differs from the default, :meth:`~SuperstepEngine._seed` (initial
messages), :meth:`~SuperstepEngine._edge_values` and
:meth:`~SuperstepEngine._begin_fields` (``run_begin`` fields).
MultiLogVC replaces the three steps around it instead:
:meth:`~SuperstepEngine._step` (its group loop),
:meth:`~SuperstepEngine._pending_messages` (the multi-log) and
:meth:`~SuperstepEngine._end_superstep` (overlays, log rotation,
checkpoints), and restores a checkpoint through its own ``_resume``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import EngineError, ProgramError
from ..graph.csr import CSRGraph
from ..obs.context import current_tracer
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import Tracer
from ..options import EngineOptions, resolve_options
from ..ssd.filesystem import SimFS
from ..ssd.stats import SSDStats
from .active import ActiveTracker
from .api import InitialState, VertexContext, VertexProgram
from .combine import combine_sorted
from .results import COMPUTE_SITES, ComputeMeter, RunResult, SuperstepRecord
from .update import DATA_DTYPE, DEST_DTYPE, SRC_DTYPE, UpdateBatch

_EMPTY_SRC = np.empty(0, dtype=SRC_DTYPE)
_EMPTY_DATA = np.empty(0, dtype=DATA_DTYPE)


class Outbox:
    """One superstep's sends in send order, each target checked against ``[0, n)``.

    ``on_send(dests, src, datas)``, when set, sees every accepted send
    as it is made (GraFBoost stages its log pages there).
    """

    __slots__ = ("n", "dest", "src", "data", "on_send")

    def __init__(self, n: int) -> None:
        self.n = n
        self.dest: List[int] = []
        self.src: List[int] = []
        self.data: List[float] = []
        self.on_send: Optional[Callable[[np.ndarray, int, np.ndarray], None]] = None

    def send(self, dest: int, src: int, data: float) -> None:
        if not 0 <= dest < self.n:
            raise ProgramError(f"send target {dest} outside graph")
        self.dest.append(dest)
        self.src.append(src)
        self.data.append(data)
        if self.on_send is not None:
            self.on_send(np.array([dest]), src, np.array([data]))

    def send_many(self, dests: np.ndarray, src: int, datas: np.ndarray) -> None:
        d = np.asarray(dests, dtype=np.int64)
        if d.size == 0:
            return
        if d.min() < 0 or d.max() >= self.n:
            raise ProgramError("send target outside graph")
        x = np.asarray(datas, dtype=np.float64)
        self.dest.extend(d.tolist())
        self.src.extend([src] * d.shape[0])
        self.data.extend(x.tolist())
        if self.on_send is not None:
            self.on_send(d, src, x)

    @property
    def sent(self) -> int:
        return len(self.dest)

    def batch(self) -> UpdateBatch:
        return UpdateBatch(
            np.array(self.dest, dtype=DEST_DTYPE),
            np.array(self.src, dtype=SRC_DTYPE),
            np.array(self.data, dtype=DATA_DTYPE),
        )


class SuperstepEngine:
    """Base class of the engines that share one superstep loop."""

    name = "engine"
    #: No simulated storage (the oracle): no file system, zero I/O.
    in_memory = False
    #: Counter names registered as ``<class name>.<counter>`` per run.
    COUNTERS: tuple = ()

    def __init__(
        self,
        graph: CSRGraph,
        program: VertexProgram,
        config: SimConfig = DEFAULT_CONFIG,
        fs: Optional[SimFS] = None,
        *,
        options: Optional[EngineOptions] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[SuperstepRecord], None]] = None,
    ) -> None:
        self.options = resolve_options(self.name, options)
        if program.uses_edge_state and program.needs_weights:
            raise ProgramError(
                "uses_edge_state and needs_weights are mutually exclusive: "
                "both map to the edge value vector"
            )
        self.graph = graph
        self.program = program
        self.config = config
        self.fs = None if self.in_memory else (fs if fs is not None else SimFS(config))
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics_registry = metrics
        self.progress = progress

    # -- engine hooks ------------------------------------------------------

    def _begin_fields(self) -> Dict[str, object]:
        """``run_begin`` fields after ``engine`` and ``program``."""
        return {"n_vertices": int(self.graph.n), "n_intervals": int(self.intervals.n_intervals)}

    def _edge_values(self) -> Optional[np.ndarray]:
        """Per-edge values in CSR order handed to :meth:`_sweep`'s vertices."""
        return self.graph.with_unit_weights().weights if self.program.needs_weights else None

    def _seed(self, messages: UpdateBatch) -> Optional[UpdateBatch]:
        """The pending batch superstep 0 delivers (``None``: no message log)."""
        return messages

    def _superstep(self, step: int) -> None:
        """Storage traffic, delivery and processing of one superstep.

        Runs every vertex through :meth:`_vertex` (sends land in
        :attr:`outbox`) and leaves the next superstep's messages in
        :attr:`pending` (or on its own storage).
        """
        raise NotImplementedError

    # -- run ----------------------------------------------------------------

    def run(self, max_supersteps: int = 15, seed: int = 0) -> RunResult:
        """Execute up to ``max_supersteps`` supersteps; returns the result."""
        return self._run(max_supersteps, seed)

    def _run(
        self, max_supersteps: int, seed: int,
        initial_state: Optional[InitialState] = None, resume_from=None,
    ) -> RunResult:
        """The superstep loop; ``resume_from`` continues at the checkpoint's
        cut through the engine's ``_resume`` (MultiLogVC only)."""
        if max_supersteps < 0:
            raise EngineError(f"max_supersteps must be >= 0, got {max_supersteps}")
        prog = self.program
        n = self.graph.n
        tracer = self.tracer
        self.rng = rng = np.random.default_rng(seed)
        self.meter = meter = ComputeMeter(self.config.compute)
        self.tracker = tracker = ActiveTracker(n, self.config.edgelog_history_window)
        trace_start = self._start()
        stats_start = self._stats()
        self._edge_vals = self._edge_values()
        self.records = records = []

        start = 0
        if resume_from is not None:
            start = self._resume(resume_from)
        else:
            init = initial_state if initial_state is not None else prog.initial(self.graph, rng)
            self.values = np.array(init.values, dtype=np.float64, copy=True)
            if self.values.shape[0] != n:
                raise ProgramError("initial values must have one entry per vertex")
            active0 = np.asarray(init.active, dtype=np.int64)
            seeds = init.messages if init.messages is not None else UpdateBatch.empty()
            self.pending = self._seed(seeds)
            if seeds.n:
                active0 = np.union1d(active0, seeds.dest.astype(np.int64))
            tracker.seed(active0)

        values = self.values
        converged = False
        for step in range(start, max_supersteps):
            pending = self._pending_messages()
            if tracker.n_current == 0 and not pending:
                converged = True
                break
            stats_before = self._stats()
            compute_before = meter.time_us
            if tracer.enabled:
                tracer.set_step(step)
                extra = {} if pending is None else {"pending_messages": pending}
                tracer.emit("superstep_begin", active=int(tracker.n_current), **extra)
            counts = self._step(step)
            prog.on_superstep_end(step, values, rng)
            rec = self._record(records, step, stats_before, compute_before, **counts)
            self._end_superstep(step, rec)
            if prog.is_converged(values):
                converged = True
                break
        return self._result(values, records, converged, trace_start, stats_start)

    def _step(self, step: int) -> Dict[str, int]:
        """One superstep's work; returns the record's counters."""
        self.outbox = Outbox(self.graph.n)
        self.tally = [0, 0, 0]  # vertices, updates, edges
        self._superstep(step)
        self.tracker.note_messages(self.outbox.dest)
        processed, updates, edges = self.tally
        sent = self.outbox.sent
        return dict(
            active_vertices=processed, updates_processed=updates,
            messages_sent=sent, records_logged=sent, edges_scanned=edges,
        )

    def _pending_messages(self) -> Optional[int]:
        """Messages the next superstep delivers (``None``: no message log)."""
        return None if self.pending is None else self.pending.n

    def _end_superstep(self, step: int, rec: SuperstepRecord) -> None:
        """After ``superstep_end``: the progress hook, then the active-set advance."""
        if self.progress is not None:
            self.progress(rec)
        self.tracker.advance()

    # -- the per-vertex step ---------------------------------------------------

    def _vertex(self, step, v, usrc, udata, nb, out_w, edge_state) -> VertexContext:
        """Run ``process`` on vertex ``v`` and count it in :attr:`tally`."""
        outbox = self.outbox
        ctx = VertexContext(
            v, step, self.values, usrc, udata, nb, out_w, edge_state,
            outbox.send, outbox.send_many, self.rng,
        )
        self.program.process(ctx)
        if not ctx.deactivated:
            self.tracker.note_self_active(v)
        tally = self.tally
        tally[0] += 1
        tally[1] += usrc.shape[0]
        tally[2] += nb.shape[0]
        return ctx

    def _charge(self, since: List[int]) -> None:
        """Charge the compute of the vertices processed since tally ``since``."""
        verts, updates, edges = (a - b for a, b in zip(self.tally, since))
        self.meter.charge_vertices(verts)
        self.meter.charge_updates(updates)
        self.meter.charge_edges(edges)

    def _sweep(self, step: int, batch: UpdateBatch, combine=False, tree=None) -> List[int]:
        """Process the active vertices and every destination of ``batch``.

        ``batch`` is dest-sorted; with ``combine`` a named combine is
        first reduced over ``tree`` (see :func:`repro.core.combine.combine_sorted`).
        Vertices run in ascending id order with their slice of the batch
        and their CSR adjacency.  Returns the vertices that dirtied
        their edge state.
        """
        prog = self.program
        uniq, offsets = batch.group()
        if combine and prog.combine is not None and uniq.shape[0]:
            batch, uniq, offsets = combine_sorted(batch, uniq, offsets, prog.combine, tree)
        verts = np.union1d(uniq.astype(np.int64), self.tracker.current_ids)
        rowptr, colidx, ev = self.graph.rowptr, self.graph.colidx, self._edge_vals
        mark = list(self.tally)
        dirty: List[int] = []
        k = uniq.shape[0]
        upos = np.searchsorted(uniq, verts)
        for idx, v in enumerate(verts.tolist()):
            p = int(upos[idx])
            if p < k and uniq[p] == v:
                s, e = int(offsets[p]), int(offsets[p + 1])
                usrc, udata = batch.src[s:e], batch.data[s:e]
            else:
                usrc, udata = _EMPTY_SRC, _EMPTY_DATA
            lo, hi = int(rowptr[v]), int(rowptr[v + 1])
            vals = ev[lo:hi] if ev is not None else None
            ctx = self._vertex(
                step, v, usrc, udata, colidx[lo:hi],
                vals if prog.needs_weights else None,
                vals if prog.uses_edge_state else None,
            )
            if ctx.edge_state_dirty:
                dirty.append(v)
        self._charge(mark)
        return dirty

    # -- run start / records / run end (shared with MultiLogVC) ------------------

    def _stats(self) -> SSDStats:
        return self.fs.stats.snapshot() if self.fs is not None else SSDStats()

    def _start(self, overlays=None) -> int:
        """Run start: metrics, the tracer clock and ``run_begin``; returns the trace mark.

        ``overlays`` (DESIGN.md §7) register their gauges here; by
        default the file system's page cache, the one every engine has.
        """
        reg = self.metrics_registry if self.metrics_registry is not None else NULL_METRICS
        self.reg = reg
        if overlays is None:
            overlays = [self.fs.cache] if self.fs is not None and self.fs.cache is not None else []
        for ov in overlays:
            ov.register_metrics(reg)
        self.counters = {c: reg.counter(f"{type(self).name}.{c}") for c in self.COUNTERS}
        meter = self.meter
        for site in COMPUTE_SITES:
            reg.gauge(f"compute.{site}_us", lambda site=site: meter.by_site[site])
        tracer = self.tracer
        trace_start = len(tracer.events)
        if tracer.enabled:
            if self.fs is None:
                tracer.bind_clock(lambda: meter.time_us)
            else:
                dev = self.fs.device
                tracer.bind_clock(lambda: dev.now_us + meter.time_us)
            tracer.set_step(-1)
            tracer.emit(
                "run_begin", engine=self.name, program=self.program.name, **self._begin_fields()
            )
        return trace_start

    def _record(self, records, step, stats_before, compute_before, **counts) -> SuperstepRecord:
        """Assemble a superstep's record from its stats delta and emit ``superstep_end``."""
        delta = self._stats() - stats_before
        rec = SuperstepRecord(
            index=step,
            storage_time_us=delta.total_time_us if self.fs is not None else 0.0,
            compute_time_us=self.meter.time_us - compute_before,
            pages_read=delta.pages_read,
            pages_written=delta.pages_written,
            pages_read_by_class={k: c.pages for k, c in delta.reads.items()},
            **counts,
        )
        records.append(rec)
        if self.tracer.enabled:
            self.tracer.emit("superstep_end", **rec.to_dict())
        return rec

    def _result(self, values, records, converged, trace_start, stats_start) -> RunResult:
        """Run end: ``run_end`` and the :class:`RunResult`."""
        tracer = self.tracer
        stats = self._stats() - stats_start
        if tracer.enabled:
            tracer.emit("run_end", engine=self.name, converged=converged, supersteps=len(records))
        return RunResult(
            engine=self.name,
            program=self.program.name,
            values=values,
            supersteps=records,
            converged=converged,
            stats=stats,
            compute_time_us=self.meter.time_us,
            compute_by_site=dict(self.meter.by_site),
            trace=tracer.events[trace_start:] if tracer.enabled else None,
            metrics=self.reg.snapshot() if self.metrics_registry is not None else None,
        )
