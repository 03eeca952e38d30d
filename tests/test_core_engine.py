"""MultiLogVC engine semantics: activation, modes, determinism, errors."""

import numpy as np
import pytest

from repro.core import InitialState, MultiLogVC, VertexProgram
from repro.core.update import UpdateBatch
from repro.errors import EngineError, ProgramError
from repro.graph.datasets import small_chain, small_rmat
from repro.options import EngineOptions


class PingProgram(VertexProgram):
    """Vertex 0 pings vertex 1 once; used to probe activation rules."""

    name = "ping"

    def initial(self, graph, rng):
        return InitialState(
            values=np.zeros(graph.n),
            active=np.array([0]),
        )

    def process(self, ctx):
        if ctx.vid == 0 and ctx.superstep == 0:
            ctx.send(int(ctx.out_neighbors[0]), 42.0)
        else:
            ctx.value = ctx.updates_data.sum()
        ctx.deactivate()


class StayActiveProgram(VertexProgram):
    """Counts how many supersteps a vertex stays self-active."""

    name = "stayactive"

    def __init__(self, rounds: int):
        self.rounds = rounds

    def initial(self, graph, rng):
        return InitialState(values=np.zeros(graph.n), active=np.array([0]))

    def process(self, ctx):
        ctx.value = ctx.value + 1
        if ctx.value >= self.rounds:
            ctx.deactivate()


class TestActivationRules:
    def test_message_activates_receiver(self, cfg, chain16):
        res = MultiLogVC(chain16, PingProgram(), cfg).run(5)
        # Vertex 1 (0's first neighbor) processed the ping at superstep 1.
        assert res.values[1] == 42.0
        assert res.n_supersteps == 2
        assert res.converged

    def test_self_active_until_deactivate(self, cfg, chain16):
        res = MultiLogVC(chain16, StayActiveProgram(4), cfg).run(10)
        assert res.values[0] == 4.0
        assert res.n_supersteps == 4

    def test_superstep_cap(self, cfg, chain16):
        res = MultiLogVC(chain16, StayActiveProgram(100), cfg).run(3)
        assert res.n_supersteps == 3
        assert not res.converged

    def test_initial_messages_delivered_at_step0(self, cfg, chain16):
        class SeedProgram(VertexProgram):
            name = "seed"

            def initial(self, graph, rng):
                return InitialState(
                    values=np.zeros(graph.n),
                    active=np.empty(0, np.int64),
                    messages=UpdateBatch.of([5], [5], [7.0]),
                )

            def process(self, ctx):
                ctx.value = ctx.updates_data.sum()
                ctx.deactivate()

        res = MultiLogVC(chain16, SeedProgram(), cfg).run(3)
        assert res.values[5] == 7.0

    def test_empty_initial_converges_immediately(self, cfg, chain16):
        class NothingProgram(VertexProgram):
            name = "nothing"

            def initial(self, graph, rng):
                return InitialState(values=np.zeros(graph.n), active=np.empty(0, np.int64))

            def process(self, ctx):  # pragma: no cover - never called
                raise AssertionError

        res = MultiLogVC(chain16, NothingProgram(), cfg).run(5)
        assert res.n_supersteps == 0 and res.converged


class TestModesAndOptions:
    def test_invalid_mode(self, cfg, chain16):
        with pytest.raises(EngineError):
            MultiLogVC(chain16, PingProgram(), cfg, options=EngineOptions(mode="turbo"))

    def test_async_mode_converges_faster_or_equal(self, cfg):
        from repro.algorithms import WCCProgram, wcc_reference

        g = small_chain(32)
        sync = MultiLogVC(g, WCCProgram(), cfg, options=EngineOptions(mode="sync")).run(100)
        async_ = MultiLogVC(g, WCCProgram(), cfg, options=EngineOptions(mode="async")).run(100)
        assert np.array_equal(sync.values, wcc_reference(g))
        assert np.array_equal(async_.values, wcc_reference(g))
        assert async_.n_supersteps <= sync.n_supersteps

    def test_edgelog_toggle_preserves_results(self, cfg, rmat256):
        from repro.algorithms import GraphColoringProgram

        a = MultiLogVC(rmat256, GraphColoringProgram(), cfg, options=EngineOptions(enable_edgelog=True)).run(15)
        b = MultiLogVC(rmat256, GraphColoringProgram(), cfg, options=EngineOptions(enable_edgelog=False)).run(15)
        assert np.array_equal(a.values, b.values)

    def test_edgelog_reduces_or_equals_colidx_reads(self, cfg, rmat256):
        from repro.algorithms import GraphColoringProgram

        a = MultiLogVC(rmat256, GraphColoringProgram(), cfg, options=EngineOptions(enable_edgelog=True)).run(15)
        b = MultiLogVC(rmat256, GraphColoringProgram(), cfg, options=EngineOptions(enable_edgelog=False)).run(15)
        col_a = a.stats.reads.get("csr_col").pages
        col_b = b.stats.reads.get("csr_col").pages
        assert col_a <= col_b

    def test_min_intervals(self, cfg, rmat256):
        eng = MultiLogVC(rmat256, PingProgram(), cfg, options=EngineOptions(min_intervals=6))
        assert eng.intervals.n_intervals >= 6

    def test_conflicting_program_flags(self, cfg, chain16):
        class BadProgram(PingProgram):
            needs_weights = True
            uses_edge_state = True

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, BadProgram(), cfg)


class TestDeterminism:
    def test_same_seed_same_everything(self, cfg, rmat256):
        from repro.algorithms import MISProgram

        a = MultiLogVC(rmat256, MISProgram(seed=3), cfg).run(30, seed=1)
        b = MultiLogVC(rmat256, MISProgram(seed=3), cfg).run(30, seed=1)
        assert np.array_equal(a.values, b.values)
        assert a.total_time_us == b.total_time_us
        assert a.total_pages == b.total_pages


class TestRecords:
    def test_superstep_records_consistent(self, cfg, rmat256):
        from repro.algorithms import BFSProgram

        res = MultiLogVC(rmat256, BFSProgram(0), cfg).run(20)
        assert res.n_supersteps > 0
        for r in res.supersteps:
            assert r.storage_time_us >= 0
            assert r.compute_time_us >= 0
            assert r.pages_read >= 0
        total_pages = sum(r.pages_read + r.pages_written for r in res.supersteps)
        assert total_pages == res.total_pages

    def test_time_decomposition(self, cfg, rmat256):
        from repro.algorithms import BFSProgram

        res = MultiLogVC(rmat256, BFSProgram(0), cfg).run(20)
        assert res.total_time_us == pytest.approx(res.storage_time_us + res.compute_time_us)
        assert 0.0 < res.storage_fraction() <= 1.0

    def test_summary_string(self, cfg, chain16):
        res = MultiLogVC(chain16, PingProgram(), cfg).run(5)
        s = res.summary()
        assert "multilogvc" in s and "ping" in s

    def test_bad_initial_values_rejected(self, cfg, chain16):
        class WrongSize(PingProgram):
            def initial(self, graph, rng):
                return InitialState(values=np.zeros(3), active=np.array([0]))

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, WrongSize(), cfg).run(2)


class TestSendValidation:
    def test_send_out_of_range_rejected(self, cfg, chain16):
        class BadSend(VertexProgram):
            name = "badsend"

            def initial(self, graph, rng):
                return InitialState(values=np.zeros(graph.n), active=np.array([0]))

            def process(self, ctx):
                ctx._send(10**6, ctx.vid, 1.0)

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, BadSend(), cfg).run(2)

    def test_mutation_requires_declaration(self, cfg, chain16):
        class Mutator(VertexProgram):
            name = "mut"
            # mutates_structure intentionally left False

            def initial(self, graph, rng):
                return InitialState(values=np.zeros(graph.n), active=np.array([0]))

            def process(self, ctx):
                ctx.add_edge(3)

        with pytest.raises(ProgramError):
            MultiLogVC(chain16, Mutator(), cfg).run(2)


class TestStructuralUpdates:
    def test_mutating_program_end_to_end(self, cfg):
        class PruneProgram(VertexProgram):
            """Remove edges to the highest-id neighbor, once per vertex."""

            name = "prune"
            mutates_structure = True

            def initial(self, graph, rng):
                return InitialState(values=np.zeros(graph.n), active=np.arange(graph.n))

            def process(self, ctx):
                if ctx.superstep == 0 and ctx.degree > 1:
                    ctx.remove_edge(int(ctx.out_neighbors[-1]))
                    ctx.value = 1.0
                ctx.deactivate()

        g = small_rmat(n=64, m=512, seed=1)
        eng = MultiLogVC(g, PruneProgram(), cfg, options=EngineOptions(min_intervals=3))
        res = eng.run(3)
        g2 = eng.storage.rebuild_csr()
        g2.validate()
        pruned = int(res.values.sum())
        assert pruned > 0
        assert g2.m == g.m - pruned

    def test_buffered_edit_visible_to_its_vertex_next_superstep(self, cfg):
        class GrowProgram(VertexProgram):
            """Step 0: add one out-edge; step 1: broadcast; step 2: count."""

            name = "grow"
            mutates_structure = True

            def initial(self, graph, rng):
                self.n = graph.n
                return InitialState(values=np.zeros(graph.n), active=np.arange(graph.n))

            def process(self, ctx):
                new = (ctx.vid + 7) % self.n
                if ctx.superstep == 0:
                    assert new not in ctx.out_neighbors
                    ctx.add_edge(new, 1.0)
                    return  # stay active
                if ctx.superstep == 1:
                    # The vertex's own buffered edit is overlaid, sorted in.
                    assert new in ctx.out_neighbors
                    assert np.all(np.diff(ctx.out_neighbors) > 0)
                    ctx.send_all(1.0)
                else:
                    ctx.value = float(ctx.n_updates)
                ctx.deactivate()

        g = small_chain(32)
        # 32 edits stay below the default merge threshold: every step-1
        # adjacency comes from the overlay, not from a rebuilt interval.
        res = MultiLogVC(g, GrowProgram(), cfg, options=EngineOptions(min_intervals=4)).run(4)
        src, dst = g.edge_array()
        expect = np.bincount(np.concatenate([dst, (np.arange(32) + 7) % 32]), minlength=32)
        assert np.array_equal(res.values, expect)
        assert res.supersteps[1].edges_scanned == g.m + 32
