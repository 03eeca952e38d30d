"""The scatter gate: ``VertexProgram.loads_edges`` (DESIGN.md §6).

A program that declares the hook tells MultiLogVC, per group, which
active vertices will read their adjacency.  Only those read colidx, val
and edge-log pages; every active vertex still reads its row pointers.
These tests pin the class-creation contract, the guard that makes a
too-narrow mask an error rather than a silent wrong answer, and the I/O
the gate removes.
"""

import numpy as np
import pytest

import repro
from repro.algorithms import BFSProgram, DeltaPageRankProgram, SSSPProgram, WCCProgram
from repro.config import small_test_config
from repro.core import MultiLogVC, VertexProgram
from repro.core.api import VertexContext
from repro.core.batch import BatchContext
from repro.errors import ProgramError
from repro.graph.csr import CSRGraph
from repro.obs import TraceRecorder

from .conftest import scalar_variant


def gated_batch(sends, loaded):
    """Three vertices with 2, 0 and 1 out-edges; ``loaded`` as given."""
    return BatchContext(
        vids=np.array([2, 5, 7], dtype=np.int64),
        superstep=1,
        values=np.arange(10, dtype=np.float64),
        u_lo=np.array([0, 1, 2]),
        u_hi=np.array([1, 2, 3]),
        usrc=np.array([9, 8, 7], dtype=np.int32),
        udata=np.array([1.0, 2.0, 3.0]),
        degrees=np.array([2, 0, 1], dtype=np.int64),
        # vertex 7 was not loaded: its segment is empty
        nb_offsets=np.array([0, 2, 2, 2], dtype=np.int64),
        nb_flat=np.array([1, 3], dtype=np.int64),
        w_flat=np.array([0.5, 0.25]),
        send_batch=lambda d, s, x: sends.append((d.tolist(), s.tolist(), np.asarray(x).tolist())),
        rng=np.random.default_rng(0),
        loaded=np.asarray(loaded, dtype=bool),
    )


class TestDeclaration:
    def test_min_propagation_programs_declare_it(self):
        for cls in (BFSProgram, SSSPProgram, WCCProgram):
            assert cls.loads_edges is not None
        assert VertexProgram.loads_edges is None

    @pytest.mark.parametrize(
        "attrs",
        [
            {"combine": None},
            {"combine": staticmethod(lambda data: float(data.min()))},
            {"combine": "min", "uses_edge_state": True},
            {"combine": "min", "mutates_structure": True},
        ],
        ids=["no-combine", "callable-combine", "edge-state", "mutates"],
    )
    def test_class_creation_rejects_an_unsound_declaration(self, attrs):
        with pytest.raises(ProgramError, match="loads_edges"):
            type("Bad", (BFSProgram,), dict(attrs))

    def test_a_subclass_may_drop_it(self):
        cls = type("Plain", (BFSProgram,), {"combine": staticmethod(min), "loads_edges": None})
        assert cls.loads_edges is None


class TestGuard:
    """Reaching for an unloaded vertex's adjacency raises."""

    def test_loaded_selection_works(self):
        sends = []
        b = gated_batch(sends, [True, True, False])
        b.send_along_edges(np.array([True, False, False]), np.array([4.0, 0.0, 0.0]))
        b.send_edge_values(np.array([True, False, False]), np.array([1.0, 2.0]))
        assert list(b.out_weights_of(np.array([True, True, False]))) == [0.5, 0.25]
        assert sends == [([1, 3], [2, 2], [4.0, 4.0]), ([1, 3], [2, 2], [1.0, 2.0])]
        assert list(b.degrees) == [2, 0, 1]

    @pytest.mark.parametrize("call", ["send_along_edges", "send_edge_values", "out_weights_of"])
    def test_unloaded_selection_raises(self, call):
        sends = []
        b = gated_batch(sends, [True, True, False])
        mask = np.array([True, False, True])
        args = {
            "send_along_edges": (mask, np.ones(3)),
            "send_edge_values": (mask, np.ones(3)),
            "out_weights_of": (mask,),
        }[call]
        with pytest.raises(ProgramError, match="vertex 7's adjacency was not loaded"):
            getattr(b, call)(*args)
        assert sends == []

    def test_scalar_context_of_an_unloaded_vertex(self):
        ctx = VertexContext(
            7, 1, np.zeros(10), np.empty(0, np.int32), np.empty(0), None, np.ones(3), None,
            send=lambda *a: None, send_many=lambda *a: None, rng=np.random.default_rng(0),
            degree=3,
        )
        assert ctx.degree == 3
        for reach in (lambda: ctx.out_neighbors, lambda: ctx.out_weights,
                      lambda: ctx.send_all(1.0), lambda: ctx.neighbor_index(4)):
            with pytest.raises(ProgramError, match="vertex 7's adjacency was not loaded"):
                reach()


class NarrowBFS(BFSProgram):
    """BFS whose mask leaves out every vertex: too narrow."""

    def loads_edges(self, view):
        return np.zeros(view.k, dtype=bool)


class TestTooNarrowMask:
    @pytest.mark.parametrize("kernel", ["batch", "scalar"])
    def test_run_raises(self, rmat256, kernel):
        prog = NarrowBFS(0) if kernel == "batch" else scalar_variant(NarrowBFS(0))
        with pytest.raises(ProgramError, match="adjacency was not loaded"):
            MultiLogVC(rmat256, prog, small_test_config()).run(10)

    def test_mask_shape_is_checked(self, rmat256):
        class Short(BFSProgram):
            def loads_edges(self, view):
                return np.ones(view.k + 1, dtype=bool)

        with pytest.raises(ProgramError, match="one flag per group vertex"):
            MultiLogVC(rmat256, Short(0), small_test_config()).run(10)


def triangle():
    """0 -> {1, 2}, 1 -> 2, 2 -> 0.  BFS from 0: at superstep 2 vertex 2
    hears 2 from 1 and vertex 0 hears 2 from 2, neither an improvement."""
    return CSRGraph.from_edges(3, [0, 0, 1, 2], [1, 2, 2, 0])


class TestNonImprovingUpdate:
    def test_reads_row_pointers_but_no_colidx_page(self):
        tracer = TraceRecorder()
        res = repro.run(
            triangle(), BFSProgram(0), config=small_test_config(), tracer=tracer,
            max_supersteps=10,
        )
        assert list(res.values) == [0.0, 1.0, 1.0]
        last = res.supersteps[2]
        assert last.active_vertices == 2 and last.messages_sent == 0
        assert last.edges_scanned == 3  # true degrees of 0 and 2, as before the gate
        assert last.pages_read_by_class.get("csr_row", 0) > 0
        assert last.pages_read_by_class.get("csr_col", 0) == 0
        (proc,) = [e.fields for e in tracer.events if e.kind == "group_process" and e.step == 2]
        assert proc["vertices"] == 2 and proc["edge_vertices"] == 0

    def test_ungated_programs_emit_no_edge_vertices(self, rmat256):
        tracer = TraceRecorder()
        repro.run(rmat256, DeltaPageRankProgram(), config=small_test_config(), tracer=tracer,
                  max_supersteps=3)
        procs = [e.fields for e in tracer.events if e.kind == "group_process"]
        assert procs and all("edge_vertices" not in f for f in procs)
