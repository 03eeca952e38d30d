"""Group-at-a-time vertex processing (the paper's multicore analog).

The paper has one ``ProcessVertex`` that OpenMP parallelises (§VI).
Here the engine hands each sorted group of active vertices to
:meth:`~repro.core.api.VertexProgram.process_batch` as one columnar
:class:`BatchContext`, and the lever equivalent to the paper's threads
is NumPy vectorisation: the default kernel loops
:meth:`~repro.core.api.VertexProgram.process` over per-vertex views of
the batch, and a program overrides it to handle the group in bulk.

An override is purely an execution-strategy choice.  Both kernels see
the same batch, send through the same sink (one ``ingest`` per group,
records in vertex order) and report activity and dirty edge state
through the same masks, so values, activity traces, superstep records
and device stats are identical (``tests/test_batch_parity.py`` asserts
all four).

Edge-state programs (CDLP, coloring) get each group's per-edge state as
a mutable flat copy (``es_flat``) that the engine scatters back after
the kernel -- per-vertex edge ranges are disjoint, so this is
equivalent to in-place writes.  Structure-mutating programs get
adjacency with their own buffered edits already overlaid, plus a
``mutate`` callback.

The segmented-reduction helpers (:func:`segment_min`,
:func:`segment_mode`, :func:`segment_sum`) operate on flat value arrays
carved into per-vertex segments by an offsets array -- the shared
substrate of the SSSP/CDLP/MIS kernels.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import ProgramError


def flatten_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], stops[i])`` for all i, concatenated."""
    counts = (stops - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    return np.repeat(starts, counts) + offsets


# -- segmented reductions ---------------------------------------------------
#
# ``offsets`` is int64[k + 1]; segment i is values[offsets[i]:offsets[i+1]].
# Segments must tile ``values`` (offsets[0] == 0, offsets[-1] == len).


def segment_min(
    values: np.ndarray,
    offsets: np.ndarray,
    where: Optional[np.ndarray] = None,
    default: float = np.inf,
) -> np.ndarray:
    """Per-segment minimum; ``where`` filters elements, empty -> default."""
    k = offsets.shape[0] - 1
    if where is not None:
        keep = np.asarray(where, dtype=bool)
        values = values[keep]
        cum = np.concatenate([[0], np.cumsum(keep)])
        lo = cum[offsets[:-1]]
        hi = cum[offsets[1:]]
    else:
        lo = offsets[:-1]
        hi = offsets[1:]
    out = np.full(k, default, dtype=np.float64)
    nonempty = hi > lo
    if values.shape[0] and nonempty.any():
        # reduceat over the nonempty segments' start positions reduces
        # exactly [lo, hi) for each because the segments tile `values`.
        out[nonempty] = np.minimum.reduceat(values, lo[nonempty])
    return out


def segment_sum(
    values: np.ndarray,
    offsets: np.ndarray,
    where: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-segment sum (of a mask, this counts matches); empty -> 0."""
    vals = np.asarray(values, dtype=np.float64)
    if where is not None:
        vals = np.where(np.asarray(where, dtype=bool), vals, 0.0)
    cum = np.concatenate([[0.0], np.cumsum(vals)])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def segment_mode(
    values: np.ndarray,
    offsets: np.ndarray,
    default: float = 0.0,
) -> np.ndarray:
    """Per-segment most frequent value, ties toward the smallest.

    Matches ``frequent_label``: within each segment, the value with the
    highest count wins; equal counts resolve to the smallest value.
    Empty segments yield ``default``.
    """
    k = offsets.shape[0] - 1
    counts = np.diff(offsets).astype(np.int64)
    n = int(counts.sum())
    out = np.full(k, default, dtype=np.float64)
    if n == 0:
        return out
    seg = np.repeat(np.arange(k, dtype=np.int64), counts)
    order = np.lexsort((values, seg))
    sv = np.asarray(values)[order]
    ss = seg[order]
    # Run-length encode (segment, value) runs.
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (sv[1:] != sv[:-1]) | (ss[1:] != ss[:-1])
    run_starts = np.flatnonzero(new_run)
    run_seg = ss[run_starts]
    run_val = sv[run_starts]
    run_len = np.diff(np.append(run_starts, n))
    # Highest count per segment, then the first (smallest-value) run
    # achieving it -- runs are ordered by value within each segment.
    best_len = np.zeros(k, dtype=np.int64)
    np.maximum.at(best_len, run_seg, run_len)
    is_best = run_len == best_len[run_seg]
    first_best = np.full(k, run_len.shape[0], dtype=np.int64)
    idxs = np.flatnonzero(is_best)
    np.minimum.at(first_best, run_seg[idxs], idxs)
    got = first_best < run_len.shape[0]
    out[got] = run_val[first_best[got]]
    return out


class GroupView:
    """One fused interval group's active vertices, before any adjacency.

    What a program's :meth:`~repro.core.api.VertexProgram.loads_edges`
    hook sees (DESIGN.md §6): the group's vertices, their values, their
    updates (one per vertex: the group is combined by then) and their
    true out-degrees from the row pointers -- but no adjacency, since
    the hook decides whose adjacency is read.  :class:`BatchContext`
    extends it with the adjacency of the vertices the hook selected.

    Attributes
    ----------
    vids:
        Sorted active vertex ids of the group (``k`` of them).
    superstep:
        Current superstep index.
    values:
        The full per-vertex value array (read-only here; a kernel
        writes it in place).
    u_lo, u_hi:
        Per-vertex slice bounds into ``usrc`` / ``udata`` (the group's
        dest-sorted update batch); equal bounds mean no updates.
    usrc, udata:
        The group's update columns.
    degrees:
        Out-degree per vertex.
    """

    def __init__(
        self,
        vids: np.ndarray,
        superstep: int,
        values: np.ndarray,
        u_lo: np.ndarray,
        u_hi: np.ndarray,
        usrc: np.ndarray,
        udata: np.ndarray,
        degrees: np.ndarray,
    ) -> None:
        self.vids = vids
        self.superstep = superstep
        self.values = values
        self.u_lo = u_lo
        self.u_hi = u_hi
        self.usrc = usrc
        self.udata = udata
        self.degrees = degrees

    # -- geometry ---------------------------------------------------------

    @property
    def k(self) -> int:
        return int(self.vids.shape[0])

    @property
    def total_updates(self) -> int:
        return int((self.u_hi - self.u_lo).sum())

    @property
    def update_counts(self) -> np.ndarray:
        return self.u_hi - self.u_lo

    def update_any(self, flags: np.ndarray) -> np.ndarray:
        """Per-vertex "any update satisfies ``flags``" (aligned with udata)."""
        cum = np.concatenate([[0], np.cumsum(np.asarray(flags, dtype=np.int64))])
        return (cum[self.u_hi] - cum[self.u_lo]) > 0

    def update_min(self, where: Optional[np.ndarray] = None, default: float = np.inf) -> np.ndarray:
        """Per-vertex minimum over (optionally filtered) update payloads."""
        idx = flatten_ranges(self.u_lo, self.u_hi)
        vals = self.udata[idx]
        w = None if where is None else np.asarray(where, dtype=bool)[idx]
        offsets = np.concatenate([[0], np.cumsum(self.update_counts)]).astype(np.int64)
        return segment_min(vals, offsets, where=w, default=default)

    def combined_update(self, default: float = 0.0) -> np.ndarray:
        """Per-vertex single update value (for ``combine`` programs).

        With a combine operator active, every vertex has at most one
        update; vertices without one get ``default``.
        """
        counts = self.update_counts
        if counts.max(initial=0) > 1:
            raise ProgramError(
                "combined_update requires a combine operator (one update per vertex)"
            )
        out = np.full(self.k, default)
        has = counts == 1
        out[has] = self.udata[self.u_lo[has]]
        return out


class BatchContext(GroupView):
    """One fused interval group's active vertices, in columnar form.

    Adds to the :class:`GroupView` columns:

    Attributes
    ----------
    nb_offsets:
        ``int64[k + 1]`` offsets into ``nb_flat`` (and ``w_flat``).
    nb_flat:
        Concatenated out-neighbor ids, aligned with ``vids`` order.
    w_flat:
        Concatenated static edge weights, or ``None``.
    loaded:
        Per-vertex "adjacency was read" mask, or ``None`` when every
        vertex's was.  A vertex the program's ``loads_edges`` hook left
        out has an empty segment in ``nb_flat`` while ``degrees`` keeps
        its true out-degree; the edge helpers raise
        :class:`~repro.errors.ProgramError` if it is selected.
    es_flat:
        Mutable copy of the concatenated per-edge state, or ``None``.
        Mutations are scattered back by the engine after the kernel;
        call :meth:`mark_edge_state_dirty` so the write-back is charged.
    send_batch:
        Outgoing-update sink ``(dests, srcs, datas)``; the ``send_*``
        helpers route through it.
    mutate:
        ``(op, src, dst, weight)`` structural-update callback, or
        ``None`` when the program does not declare ``mutates_structure``.
    """

    def __init__(
        self,
        vids: np.ndarray,
        superstep: int,
        values: np.ndarray,
        u_lo: np.ndarray,
        u_hi: np.ndarray,
        usrc: np.ndarray,
        udata: np.ndarray,
        degrees: np.ndarray,
        nb_offsets: np.ndarray,
        nb_flat: np.ndarray,
        w_flat: Optional[np.ndarray],
        send_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
        rng: np.random.Generator,
        es_flat: Optional[np.ndarray] = None,
        mutate: Optional[Callable[[str, int, int, float], None]] = None,
        loaded: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(vids, superstep, values, u_lo, u_hi, usrc, udata, degrees)
        self.nb_offsets = nb_offsets
        self.nb_flat = nb_flat
        self.w_flat = w_flat
        self.loaded = loaded
        self.es_flat = es_flat
        self.send_batch = send_batch
        self.mutate = mutate
        self.rng = rng
        self._stay_mask = np.zeros(vids.shape[0], dtype=bool)
        self._es_dirty = np.zeros(vids.shape[0], dtype=bool)

    # -- edge state --------------------------------------------------------

    def mark_edge_state_dirty(self, vertex_mask: np.ndarray) -> None:
        """Flag vertices whose edge state changed (charges write-back)."""
        self._es_dirty |= np.asarray(vertex_mask, dtype=bool)

    def apply_updates_to_edge_state(self) -> np.ndarray:
        """Scatter each update's payload into the receiver's edge state.

        For every update ``(dest=v, src=u, data)``, writes ``data`` at
        ``u``'s position within ``v``'s sorted adjacency -- the
        vectorised form of the per-vertex
        ``edge_state[searchsorted(out_neighbors, updates_src)] = data``.
        Marks receivers with updates and edges dirty; returns that mask.
        """
        if self.es_flat is None:
            raise ProgramError("engine did not provision edge state for this batch")
        counts = self.update_counts
        dirty = (counts > 0) & (self.degrees > 0)
        sel = np.flatnonzero(dirty)
        idx = flatten_ranges(self.u_lo[sel], self.u_hi[sel])
        if idx.shape[0]:
            # Stride keys make one global searchsorted equivalent to a
            # per-vertex searchsorted into its own adjacency segment.
            stride = int(self.values.shape[0])
            seg_edges = np.repeat(np.arange(self.k, dtype=np.int64), self.degrees)
            keys_edges = seg_edges * stride + self.nb_flat
            seg_upd = np.repeat(sel, counts[sel])
            keys_upd = seg_upd * stride + self.usrc[idx].astype(np.int64)
            pos = np.searchsorted(keys_edges, keys_upd)
            self.es_flat[pos] = self.udata[idx]
        self.mark_edge_state_dirty(dirty)
        return dirty

    def edge_state_of(self, i: int) -> np.ndarray:
        """Vertex ``vids[i]``'s edge-state segment (a view into es_flat)."""
        if self.es_flat is None:
            raise ProgramError("engine did not provision edge state for this batch")
        return self.es_flat[self.nb_offsets[i] : self.nb_offsets[i + 1]]

    def edge_state_mode(self, default: float = 0.0) -> np.ndarray:
        """Per-vertex most frequent edge-state value (CDLP's vote)."""
        if self.es_flat is None:
            raise ProgramError("engine did not provision edge state for this batch")
        return segment_mode(self.es_flat, self.nb_offsets, default=default)

    # -- messaging -----------------------------------------------------------

    def _edge_selection(self, vertex_mask: np.ndarray) -> np.ndarray:
        """Positions ``vertex_mask`` selects, all of them with adjacency loaded."""
        mask = np.asarray(vertex_mask, dtype=bool)
        if mask.shape != (self.k,):
            raise ProgramError("vertex_mask must have one entry per batch vertex")
        if self.loaded is not None:
            unloaded = mask & ~self.loaded
            if unloaded.any():
                raise ProgramError(
                    f"vertex {int(self.vids[unloaded][0])}'s adjacency was not loaded: "
                    "the program's loads_edges mask left it out"
                )
        return np.flatnonzero(mask)

    def out_weights_of(self, vertex_mask: np.ndarray) -> np.ndarray:
        """Selected vertices' static edge weights, concatenated."""
        if self.w_flat is None:
            raise ProgramError("program must declare needs_weights")
        sel = self._edge_selection(vertex_mask)
        idx = flatten_ranges(self.nb_offsets[sel], self.nb_offsets[sel + 1])
        return self.w_flat[idx]

    def send_along_edges(self, vertex_mask: np.ndarray, per_vertex_data: np.ndarray) -> None:
        """Broadcast ``per_vertex_data[i]`` over vertex i's out-edges.

        ``vertex_mask`` selects the sending vertices; data is repeated
        per out-edge (the vectorised ``send_all``).
        """
        sel = self._edge_selection(vertex_mask)
        if sel.size == 0:
            return
        starts = self.nb_offsets[sel]
        stops = self.nb_offsets[sel + 1]
        idx = flatten_ranges(starts, stops)
        if idx.size == 0:
            return
        counts = (stops - starts).astype(np.int64)
        dests = self.nb_flat[idx]
        srcs = np.repeat(self.vids[sel], counts)
        datas = np.repeat(np.asarray(per_vertex_data)[sel], counts)
        self.send_batch(dests, srcs, datas)

    def send_edge_values(self, vertex_mask: np.ndarray, edge_data: np.ndarray) -> None:
        """Send distinct per-edge payloads (``edge_data`` aligned with
        the selected vertices' concatenated out-edges)."""
        sel = self._edge_selection(vertex_mask)
        if sel.size == 0:
            return
        starts = self.nb_offsets[sel]
        stops = self.nb_offsets[sel + 1]
        idx = flatten_ranges(starts, stops)
        if idx.shape[0] != np.asarray(edge_data).shape[0]:
            raise ProgramError("edge_data length must match selected out-edges")
        counts = (stops - starts).astype(np.int64)
        self.send_batch(self.nb_flat[idx], np.repeat(self.vids[sel], counts), np.asarray(edge_data))

    # -- scheduling --------------------------------------------------------------

    def keep_active(self, vertex_mask: np.ndarray) -> None:
        """Mark vertices that stay active without receiving a message."""
        self._stay_mask |= np.asarray(vertex_mask, dtype=bool)
