"""Vertex-centric programming API (paper §V-F).

A graph application subclasses :class:`VertexProgram` and implements
:meth:`~VertexProgram.process`, which receives a :class:`VertexContext`
carrying the vertex id, its value, its incoming updates, its adjacency
and the ``send`` primitive.  The same program object runs unmodified on
every engine in this package (MultiLogVC, GraphChi, GraFBoost) -- the
engines differ only in how updates travel through storage.

Contract highlights (matching the paper's model):

* ``send`` may target **out-neighbors only** (vertex-centric rule);
* a vertex stays active next superstep unless it calls ``deactivate()``;
  a deactivated vertex is re-activated automatically when it receives an
  update;
* programs declaring ``combine`` get one pre-reduced update per
  superstep instead of the raw update list (§V-D optimisation path);
* programs declaring ``uses_edge_state`` get a persistent per-out-edge
  float array (``ctx.edge_state``) aligned with ``ctx.out_neighbors``
  (how CDLP stores neighbor labels);
* programs declaring ``loads_edges`` say, per group, which active
  vertices will use their adjacency; MultiLogVC reads the edge pages of
  those only (DESIGN.md §6);
* graph mutations (``add_edge`` / ``remove_edge``) are buffered and
  merged at superstep boundaries (§V-E).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ProgramError
from ..graph.csr import CSRGraph
from .batch import BatchContext, GroupView
from .combine import CombineSpec, validate_combine
from .update import UpdateBatch


@dataclass
class InitialState:
    """What a program needs in place before superstep 0.

    Attributes
    ----------
    values:
        Initial per-vertex values (the engine owns this array afterwards).
    active:
        Vertex ids active at superstep 0 (processed even without updates).
    messages:
        Optional updates delivered at superstep 0 (e.g. a BFS seed).
    seeds_dropped:
        Seed messages a warm start left out of ``messages`` because they
        could not improve their destination (observability only).
    """

    values: np.ndarray
    active: np.ndarray
    messages: Optional[UpdateBatch] = None
    seeds_dropped: int = 0


class VertexContext:
    """Per-vertex view handed to :meth:`VertexProgram.process`.

    Engines construct one context per processed vertex.  All array
    attributes are NumPy arrays; ``updates_src``/``updates_data`` are
    empty when a vertex is active without incoming updates.

    ``out_neighbors=None`` marks a vertex whose adjacency was not loaded
    (its program's ``loads_edges`` left it out): ``degree`` is then the
    ``degree`` argument, and reading ``out_neighbors`` or
    ``out_weights`` raises :class:`~repro.errors.ProgramError`.
    """

    __slots__ = (
        "vid",
        "superstep",
        "updates_src",
        "updates_data",
        "_out_neighbors",
        "_out_weights",
        "_degree",
        "edge_state",
        "rng",
        "_values",
        "_send",
        "_send_many",
        "_mutate",
        "deactivated",
        "edge_state_dirty",
    )

    def __init__(
        self,
        vid: int,
        superstep: int,
        values: np.ndarray,
        updates_src: np.ndarray,
        updates_data: np.ndarray,
        out_neighbors: Optional[np.ndarray],
        out_weights: Optional[np.ndarray],
        edge_state: Optional[np.ndarray],
        send: Callable[[int, int, float], None],
        send_many: Callable[[np.ndarray, int, np.ndarray], None],
        rng: np.random.Generator,
        mutate: Optional[Callable[[str, int, int, float], None]] = None,
        degree: int = 0,
    ) -> None:
        self.vid = vid
        self.superstep = superstep
        self._values = values
        self.updates_src = updates_src
        self.updates_data = updates_data
        self._out_neighbors = out_neighbors
        self._out_weights = out_weights
        self._degree = degree
        self.edge_state = edge_state
        self._send = send
        self._send_many = send_many
        self._mutate = mutate
        self.rng = rng
        self.deactivated = False
        self.edge_state_dirty = False

    # -- vertex value -----------------------------------------------------

    @property
    def value(self) -> float:
        return self._values[self.vid]

    @value.setter
    def value(self, v: float) -> None:
        self._values[self.vid] = v

    def value_of(self, u: int) -> float:
        """Read another vertex's value.

        Only sound for values the program itself established (e.g. a
        static per-vertex priority); out-of-core engines do not ship
        remote values, so treat this as read-only auxiliary state.
        """
        return self._values[u]

    # -- updates ------------------------------------------------------------

    @property
    def n_updates(self) -> int:
        return int(self.updates_src.shape[0])

    # -- adjacency -------------------------------------------------------------

    @property
    def out_neighbors(self) -> np.ndarray:
        """Sorted out-neighbor ids."""
        if self._out_neighbors is None:
            self._unloaded()
        return self._out_neighbors

    @property
    def out_weights(self) -> Optional[np.ndarray]:
        """Static edge weights aligned with ``out_neighbors``, or ``None``."""
        if self._out_neighbors is None:
            self._unloaded()
        return self._out_weights

    def _unloaded(self) -> None:
        raise ProgramError(
            f"vertex {self.vid}'s adjacency was not loaded: "
            "the program's loads_edges mask left it out"
        )

    @property
    def degree(self) -> int:
        if self._out_neighbors is None:
            return self._degree
        return int(self._out_neighbors.shape[0])

    def neighbor_index(self, u: int) -> int:
        """Position of neighbor ``u`` in ``out_neighbors`` (sorted)."""
        k = int(np.searchsorted(self.out_neighbors, u))
        if k >= self.out_neighbors.shape[0] or self.out_neighbors[k] != u:
            raise ProgramError(f"vertex {u} is not a neighbor of {self.vid}")
        return k

    def set_edge_state(self, u: int, value: float) -> None:
        """Write persistent per-edge state for neighbor ``u``."""
        if self.edge_state is None:
            raise ProgramError("program must declare uses_edge_state to write edge state")
        self.edge_state[self.neighbor_index(u)] = value
        self.edge_state_dirty = True

    # -- messaging ----------------------------------------------------------------

    def send(self, dest: int, data: float) -> None:
        """Send an update to out-neighbor ``dest`` (delivered next superstep)."""
        self._send(int(dest), self.vid, float(data))

    def send_all(self, data: float) -> None:
        """Send the same update to every out-neighbor (vectorised)."""
        nb = self.out_neighbors
        if nb.shape[0]:
            self._send_many(nb, self.vid, np.full(nb.shape[0], data))

    def send_many(self, dests: np.ndarray, datas: np.ndarray) -> None:
        """Send distinct updates to several out-neighbors (vectorised)."""
        self._send_many(np.asarray(dests), self.vid, np.asarray(datas, dtype=np.float64))

    # -- scheduling ----------------------------------------------------------------

    def deactivate(self) -> None:
        """Vote to halt; re-activated automatically on incoming update."""
        self.deactivated = True

    # -- structural mutation ----------------------------------------------------------

    def add_edge(self, dest: int, weight: float = 1.0) -> None:
        """Buffer addition of out-edge ``self.vid -> dest`` (merged later)."""
        if self._mutate is None:
            raise ProgramError("this engine run does not support structural updates")
        self._mutate("add", self.vid, int(dest), float(weight))

    def remove_edge(self, dest: int) -> None:
        """Buffer removal of out-edge ``self.vid -> dest``."""
        if self._mutate is None:
            raise ProgramError("this engine run does not support structural updates")
        self._mutate("remove", self.vid, int(dest), 0.0)


class VertexProgram(ABC):
    """Base class for vertex-centric graph applications.

    Class attributes declare what the engine must provision:

    ``needs_weights``
        Program reads static edge weights (``ctx.out_weights``).
    ``uses_edge_state``
        Program reads/writes persistent per-edge state
        (``ctx.edge_state``).  On MultiLogVC this is the interval CSR
        value vector (extra val-page I/O, as the paper notes for CDLP);
        on GraphChi it lives in the already-loaded shard edge values.
    ``combine``
        Optional associative+commutative reduction (``"add"``, ``"min"``,
        ``"max"`` or a callable); enables the §V-D fast path and makes
        the program GraFBoost-compatible.
    ``mutates_structure``
        Program calls ``ctx.add_edge`` / ``ctx.remove_edge``.
    ``relax``
        Monotone min-propagation programs (BFS/SSSP/WCC) set this to
        ``relax(x, w) -> message`` along an edge from a vertex holding
        ``x`` (``w`` the edge weights, or None when unweighted).  The
        stream layer's warm start reads it both to seed messages and to
        find the edges a value depends on (DESIGN.md §12); None means
        no incremental recompute.
    ``loads_edges``
        Optional ``loads_edges(view) -> bool mask`` over a group's
        :class:`~repro.core.batch.GroupView` -- its vertices, values,
        combined updates and true out-degrees, but no adjacency: True
        for each vertex whose adjacency the kernel will read (the
        vertices that scatter).  MultiLogVC reads the colidx, val and
        edge-log pages of those vertices only, row pointers still for
        every active vertex (DESIGN.md §6); the other engines and the
        oracle ignore it.  ``None`` (the default) loads every active
        vertex's edges.  Needs a named ``combine`` and neither
        ``uses_edge_state`` nor ``mutates_structure``
        (:class:`~repro.errors.ProgramError` at class creation).

    Implement :meth:`process` (the paper's ``ProcessVertex``); override
    :meth:`process_batch` to vectorise it over a whole group.
    """

    name: str = "program"
    needs_weights: bool = False
    uses_edge_state: bool = False
    combine: Optional[CombineSpec] = None
    mutates_structure: bool = False
    relax: Optional[Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]] = None
    loads_edges: Optional[Callable[[GroupView], np.ndarray]] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.combine is not None:
            validate_combine(cls.combine)
        if cls.loads_edges is not None and (
            not isinstance(cls.combine, str) or cls.uses_edge_state or cls.mutates_structure
        ):
            raise ProgramError(
                f"{cls.__name__} declares loads_edges: that needs a named combine "
                "and neither uses_edge_state nor mutates_structure"
            )

    @abstractmethod
    def initial(self, graph: CSRGraph, rng: np.random.Generator) -> InitialState:
        """Produce initial values, the superstep-0 active set and seeds."""

    @abstractmethod
    def process(self, ctx: VertexContext) -> None:
        """The per-vertex kernel, run once per active vertex per superstep."""

    def process_batch(self, batch: BatchContext) -> None:
        """Process one sorted group of active vertices.

        The engine's only dispatch point.  This default drives
        :meth:`process` once per vertex over views of the batch's
        columns; the vertices' sends are collected in one outbox and
        flushed through ``batch.send_batch`` at group end, in vertex
        order -- so an out-of-range target raises
        :class:`~repro.errors.ProgramError` at the flush, not at the
        ``ctx.send`` call.  Override to handle the group in bulk (see
        :mod:`repro.core.batch`); an override must produce the same
        values, sends (content and order), activity and dirty flags as
        this default.
        """
        out_dests, out_srcs, out_datas = [], [], []

        def send(dest: int, src: int, data: float) -> None:
            out_dests.append((dest,))
            out_srcs.append(src)
            out_datas.append((data,))

        def send_many(dests: np.ndarray, src: int, datas: np.ndarray) -> None:
            if datas.shape != dests.shape:
                raise ProgramError("send_many dests/datas length mismatch")
            out_dests.append(dests)
            out_srcs.append(src)
            out_datas.append(datas)

        stay = np.zeros(batch.k, dtype=bool)
        dirty = np.zeros(batch.k, dtype=bool)
        u_lo, u_hi, off = batch.u_lo.tolist(), batch.u_hi.tolist(), batch.nb_offsets.tolist()
        loaded = [True] * batch.k if batch.loaded is None else batch.loaded.tolist()
        degrees = batch.degrees.tolist()
        for i, v in enumerate(batch.vids.tolist()):
            lo, hi = off[i], off[i + 1]
            ctx = VertexContext(
                vid=v,
                superstep=batch.superstep,
                values=batch.values,
                updates_src=batch.usrc[u_lo[i] : u_hi[i]],
                updates_data=batch.udata[u_lo[i] : u_hi[i]],
                out_neighbors=batch.nb_flat[lo:hi] if loaded[i] else None,
                out_weights=None if batch.w_flat is None else batch.w_flat[lo:hi],
                edge_state=None if batch.es_flat is None else batch.es_flat[lo:hi],
                send=send,
                send_many=send_many,
                rng=batch.rng,
                mutate=batch.mutate,
                degree=degrees[i],
            )
            self.process(ctx)
            stay[i] = not ctx.deactivated
            dirty[i] = ctx.edge_state_dirty
        batch.keep_active(stay)
        batch.mark_edge_state_dirty(dirty)
        if out_dests:
            sizes = [len(d) for d in out_dests]
            batch.send_batch(
                np.concatenate(out_dests), np.repeat(out_srcs, sizes), np.concatenate(out_datas)
            )

    def on_superstep_end(self, superstep: int, values: np.ndarray, rng: np.random.Generator) -> None:
        """Hook after each superstep (e.g. refresh per-round randomness)."""

    def prepare_resume(self, graph, superstep: int, rng: np.random.Generator) -> None:
        """Rebuild internal per-run state before resuming at ``superstep``.

        Checkpoints capture the engine-side superstep cut, not Python
        program objects, so a program resumed on a *fresh* instance never
        saw :meth:`initial` or the earlier :meth:`on_superstep_end`
        calls.  Programs whose process functions read internal state
        (e.g. MIS round priorities) must reconstruct here exactly what
        an uninterrupted run would hold when entering ``superstep``.
        Stateless programs need not override this.
        """

    def is_converged(self, values: np.ndarray) -> bool:
        """Optional extra convergence test checked between supersteps."""
        return False

    def warm_start(
        self,
        graph: CSRGraph,
        values: np.ndarray,
        reset: np.ndarray,
        inserted_src: np.ndarray,
        inserted_dst: np.ndarray,
        inserted_w: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> Optional[InitialState]:
        """Incremental-recompute seed after a structural update batch.

        ``graph`` is the *updated* graph, ``values`` the converged values
        on the pre-update graph, and ``reset`` the ascending vertex ids
        whose values may have depended on a deleted edge (the deletion
        cone -- already computed by the stream layer).  ``inserted_*``
        describe the batch's inserted edges.

        Return an :class:`InitialState` that, when run to convergence,
        yields **bit-exact** the same values as a from-scratch run on
        ``graph`` -- or ``None`` when the program cannot guarantee that
        (the stream layer then falls back to a full recompute).  Only
        programs with a unique fixed point independent of schedule
        (monotone min-combine propagation: BFS/SSSP/WCC) can promise
        this; see :func:`repro.stream.incremental.minprop_warm_start`.
        """
        return None
