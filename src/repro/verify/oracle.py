"""The golden oracle engine: in-memory message passing, nothing else.

Every out-of-core engine in this package moves updates through some
storage machinery -- multi-logs, shards, sort-reduce trees, edge grids.
The oracle moves them through a Python list.  It implements the same
:class:`~repro.core.api.VertexProgram` contract and the same engine
constructor protocol as the real engines, so any (graph, program,
options) triple can be replayed against a trusted reference.

Bit-exactness contract (the property the conformance fuzzer relies on):

* vertices are processed in globally ascending id order, exactly like
  MultiLogVC's interval-ordered groups and GraphChi's interval sweep;
* outgoing updates are collected in send order; delivery stable-sorts
  by destination, so the per-destination update order equals the global
  send order -- the same order the multi-log's FIFO append/consume path
  produces;
* a named combine is reduced over the combine tree of
  :mod:`repro.core.combine` (per destination: runs of one source
  interval in send order, then the partials in ascending interval
  order), not flat in send order.  The tree is defined over
  MultiLogVC's *static* partition -- a pure function of (graph, config,
  ``min_intervals`` / ``intervals``), the oracle's only inputs besides
  the program -- so float ``add`` matches MultiLogVC to the last ulp
  whether or not the engine reduced its sends before logging them, and
  GraphChi / GraFBoost (which use the default partition) likewise;
* activation follows :class:`~repro.core.active.ActiveTracker` -- the
  one piece of engine machinery the oracle reuses, because it is pure
  in-memory bookkeeping and *is* the semantics being verified;
* edge state / edge weights live in a host array laid out exactly like
  the on-SSD interval value files (CSR weight order), initialised from
  the graph weights or unit weights.

The oracle accepts (and ignores) an ``fs`` argument so it can be driven
through :func:`repro.run` with ``engine="oracle"``.  It reports zero
storage time and empty SSD stats; per-superstep activity fields
(``active_vertices``, ``updates_processed``, ``messages_sent``,
``edges_scanned``) are filled with the same counting rules the real
engines use, so superstep records are comparable.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import ProgramError
from ..graph.csr import CSRGraph
from ..graph.partition import static_partition
from ..obs.context import current_tracer
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import Tracer
from ..options import EngineOptions, resolve_options
from ..ssd.stats import SSDStats
from ..core.active import ActiveTracker
from ..core.api import InitialState, VertexContext, VertexProgram
from ..core.combine import combine_sorted
from ..core.results import ComputeMeter, RunResult, SuperstepRecord
from ..core.update import DATA_DTYPE, DEST_DTYPE, SRC_DTYPE, UpdateBatch

_EMPTY_SRC = np.empty(0, dtype=SRC_DTYPE)
_EMPTY_DATA = np.empty(0, dtype=DATA_DTYPE)


class _SendLog:
    """Collects one superstep's outgoing updates in send order."""

    __slots__ = ("dest", "src", "data")

    def __init__(self) -> None:
        self.dest: List[int] = []
        self.src: List[int] = []
        self.data: List[float] = []

    def send(self, dest: int, src: int, data: float) -> None:
        self.dest.append(int(dest))
        self.src.append(int(src))
        self.data.append(float(data))

    def send_many(self, dests: np.ndarray, src: int, datas: np.ndarray) -> None:
        self.dest.extend(int(d) for d in np.asarray(dests))
        self.src.extend([int(src)] * len(dests))
        self.data.extend(float(x) for x in np.asarray(datas))

    @property
    def n(self) -> int:
        return len(self.dest)

    def to_batch(self) -> UpdateBatch:
        return UpdateBatch(
            np.asarray(self.dest, dtype=DEST_DTYPE),
            np.asarray(self.src, dtype=SRC_DTYPE),
            np.asarray(self.data, dtype=DATA_DTYPE),
        )


class OracleEngine:
    """Trusted in-memory reference implementation of the engine contract.

    Parameters mirror the real engines so :func:`repro.run` can construct
    it (``fs`` is accepted and ignored; there is no storage).  Of
    :class:`~repro.options.EngineOptions` only the partition
    (``min_intervals`` / ``intervals``) is accepted: it defines the
    combine tree and nothing else here.  The oracle has no knobs, which
    is the point.
    """

    name = "oracle"
    #: No simulated storage: surfaced as ``repro.engines()[...].in_memory``.
    in_memory = True

    def __init__(
        self,
        graph: CSRGraph,
        program: VertexProgram,
        config: SimConfig = DEFAULT_CONFIG,
        fs=None,
        *,
        options: Optional[EngineOptions] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[SuperstepRecord], None]] = None,
    ) -> None:
        self.options = resolve_options(self.name, options)
        if program.mutates_structure:
            raise ProgramError(
                "the oracle engine does not support structure-mutating programs"
            )
        if program.uses_edge_state and program.needs_weights:
            raise ProgramError(
                "uses_edge_state and needs_weights are mutually exclusive: "
                "both map to the edge value vector"
            )
        self.graph = graph
        self.program = program
        self.config = config
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics_registry = metrics
        self.progress = progress

    # ------------------------------------------------------------------

    def run(
        self,
        max_supersteps: int = 15,
        seed: int = 0,
        *,
        initial_state: Optional[InitialState] = None,
    ) -> RunResult:
        graph = self.graph
        prog = self.program
        n = graph.n
        cfg = self.config
        rng = np.random.default_rng(seed)
        meter = ComputeMeter(cfg.compute)
        tracer = self.tracer
        reg = self.metrics_registry if self.metrics_registry is not None else NULL_METRICS
        _ = reg  # the oracle has no units that export metrics
        trace_start = len(tracer.events)
        if tracer.enabled:
            tracer.bind_clock(lambda: meter.time_us)
            tracer.set_step(-1)
            tracer.emit(
                "run_begin",
                engine=self.name,
                program=prog.name,
                mode="sync",
                n_vertices=int(n),
                n_intervals=1,
            )

        # Edge values in CSR weight order -- the host-side twin of the
        # interval value files (weights for needs_weights programs,
        # mutable per-edge state for uses_edge_state programs).
        edge_vals: Optional[np.ndarray] = None
        if prog.needs_weights or prog.uses_edge_state:
            wsrc = graph.with_unit_weights() if graph.weights is None else graph
            edge_vals = np.array(wsrc.weights, dtype=np.float64, copy=True)

        init = initial_state if initial_state is not None else prog.initial(graph, rng)
        values = np.array(init.values, dtype=np.float64, copy=True)
        if values.shape[0] != n:
            raise ProgramError("initial values must have one entry per vertex")
        tracker = ActiveTracker(n, cfg.edgelog_history_window)
        pending = UpdateBatch.empty()
        active0 = np.asarray(init.active, dtype=np.int64)
        if init.messages is not None and init.messages.n:
            pending = init.messages
            active0 = np.union1d(active0, init.messages.dest.astype(np.int64))
        tracker.seed(active0)
        tree = static_partition(graph, cfg, self.options)

        records: List[SuperstepRecord] = []
        converged = False
        for step in range(max_supersteps):
            if tracker.n_current == 0 and pending.n == 0:
                converged = True
                break
            compute_before = meter.time_us
            if tracer.enabled:
                tracer.set_step(step)
                tracer.emit(
                    "superstep_begin",
                    active=int(tracker.n_current),
                    pending_messages=int(pending.n),
                )

            # Deliver: stable sort by destination preserves send order
            # within each destination, then apply the optional combine.
            batch = pending.sort_by_dest()
            uniq, offsets = batch.group()
            if prog.combine is not None and uniq.shape[0]:
                batch, uniq, offsets = combine_sorted(
                    batch, uniq, offsets, prog.combine, tree
                )
            verts = np.union1d(uniq.astype(np.int64), tracker.current_ids)

            outbox = _SendLog()
            updates_processed = 0
            edges_scanned = 0
            upos = np.searchsorted(uniq, verts)
            k_updates = uniq.shape[0]
            for idx in range(verts.shape[0]):
                v = int(verts[idx])
                p = int(upos[idx])
                if p < k_updates and uniq[p] == v:
                    s, e = int(offsets[p]), int(offsets[p + 1])
                    usrc, udata = batch.src[s:e], batch.data[s:e]
                else:
                    usrc, udata = _EMPTY_SRC, _EMPTY_DATA
                lo, hi = int(graph.rowptr[v]), int(graph.rowptr[v + 1])
                nb = graph.colidx[lo:hi]
                ev = edge_vals[lo:hi] if edge_vals is not None else None
                ctx = VertexContext(
                    vid=v,
                    superstep=step,
                    values=values,
                    updates_src=usrc,
                    updates_data=udata,
                    out_neighbors=nb,
                    out_weights=ev if prog.needs_weights else None,
                    edge_state=ev if prog.uses_edge_state else None,
                    send=outbox.send,
                    send_many=outbox.send_many,
                    rng=rng,
                )
                prog.process(ctx)
                if not ctx.deactivated:
                    tracker.note_self_active(v)
                updates_processed += usrc.shape[0]
                edges_scanned += nb.shape[0]
            meter.charge_vertices(verts.shape[0])
            meter.charge_updates(int(batch.n))
            meter.charge_edges(edges_scanned)

            prog.on_superstep_end(step, values, rng)
            pending = outbox.to_batch()
            tracker.note_messages(pending.dest)

            rec = SuperstepRecord(
                index=step,
                active_vertices=int(verts.shape[0]),
                updates_processed=int(updates_processed),
                messages_sent=int(outbox.n),
                edges_scanned=int(edges_scanned),
                storage_time_us=0.0,
                compute_time_us=meter.time_us - compute_before,
                pages_read=0,
                pages_written=0,
            )
            records.append(rec)
            if tracer.enabled:
                tracer.emit("superstep_end", **rec.to_dict())
            if self.progress is not None:
                self.progress(rec)
            tracker.advance()
            if prog.is_converged(values):
                converged = True
                break

        if tracer.enabled:
            tracer.emit("run_end", engine=self.name, converged=converged, supersteps=len(records))
        return RunResult(
            engine=self.name,
            program=prog.name,
            values=values,
            supersteps=records,
            converged=converged,
            stats=SSDStats(),
            compute_time_us=meter.time_us,
            trace=tracer.events[trace_start:] if tracer.enabled else None,
            metrics=(
                self.metrics_registry.snapshot()
                if self.metrics_registry is not None
                else None
            ),
        )
