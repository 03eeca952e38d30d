"""Baseline engines: the I/O patterns the paper attributes to them."""

import numpy as np
import pytest

from repro.baselines import GraFBoost, GraphChi
from repro.core import InitialState, MultiLogVC, VertexProgram
from repro.algorithms import BFSProgram, DeltaPageRankProgram, WCCProgram
from repro.config import small_test_config
from repro.graph.datasets import small_rmat
from repro.options import EngineOptions


class OnePingPerInterval(VertexProgram):
    """Keeps exactly one vertex active forever (the shard-skip probe)."""

    name = "oneping"

    def __init__(self, vertex: int):
        self.vertex = vertex

    def initial(self, graph, rng):
        return InitialState(values=np.zeros(graph.n), active=np.array([self.vertex]))

    def process(self, ctx):
        ctx.value += 1
        # stay active (no deactivate)


class TestGraphChiAccessPattern:
    def test_single_active_vertex_loads_whole_shard(self, cfg, rmat256):
        """The paper's §II-A point: one active vertex => full shard load."""
        eng = GraphChi(rmat256, OnePingPerInterval(0), cfg)
        res = eng.run(3)
        shard0_pages = eng.shards.shards[eng.shards.intervals.interval_of_one(0)].file.n_pages
        per_step = res.stats.reads["shard"].pages / res.n_supersteps
        assert per_step >= shard0_pages

    def test_inactive_interval_shards_skipped(self, cfg, rmat256):
        """With every vertex inactive except one, other shards are only
        touched through windows, not full loads."""
        eng = GraphChi(rmat256, OnePingPerInterval(0), cfg)
        if eng.shards.n_intervals < 2:
            pytest.skip("graph too small for multiple shards at this config")
        res = eng.run(2)
        total_pages = eng.shards.total_pages()
        per_step = res.stats.reads["shard"].pages / res.n_supersteps
        assert per_step < total_pages

    def test_full_activity_sweeps_everything(self, cfg, rmat256):
        res = GraphChi(rmat256, DeltaPageRankProgram(threshold=1e-9), cfg).run(3)
        # PSW reads every edge twice per superstep (memory shard + window)
        # and writes it once (the out-edge window carrying the message);
        # with a single shard read and write volumes coincide.
        assert res.stats.reads["shard"].pages > 0
        assert res.stats.writes["shard"].pages > 0
        assert res.stats.writes["shard"].pages <= res.stats.reads["shard"].pages

    def test_edge_state_programs_rewrite_memory_shard(self, cfg, rmat256):
        from repro.algorithms import CommunityDetectionProgram

        res = GraphChi(rmat256, CommunityDetectionProgram(), cfg).run(3)
        # CDLP stores labels on in-edges, so memory shards are written too:
        # writes approach reads.
        assert res.stats.writes["shard"].pages > 0.7 * res.stats.reads["shard"].pages

    def test_no_csr_classes_appear(self, cfg, rmat256):
        res = GraphChi(rmat256, WCCProgram(), cfg).run(5)
        assert "csr_col" not in res.stats.reads
        assert "mlog" not in res.stats.reads


class TestGraphChiMessaging:
    def test_second_send_same_edge_overwrites(self, cfg):
        """Real GraphChi semantics: one message slot per edge per superstep."""
        from repro.graph import CSRGraph

        g = CSRGraph.from_edges(2, [0], [1], symmetrize=True)

        class DoubleSend(VertexProgram):
            name = "dbl"

            def initial(self, graph, rng):
                return InitialState(values=np.zeros(graph.n), active=np.array([0]))

            def process(self, ctx):
                if ctx.superstep == 0 and ctx.vid == 0:
                    ctx.send(1, 1.0)
                    ctx.send(1, 2.0)  # overwrites on GraphChi
                elif ctx.n_updates:
                    ctx.value = float(ctx.updates_data.sum())
                ctx.deactivate()

        res = GraphChi(g, DoubleSend(), cfg).run(3)
        assert res.values[1] == 2.0  # last write wins


class TestGraFBoostCostModel:
    def test_more_memory_fewer_sort_pages(self, rmat256):
        small = small_test_config(total_bytes=96 * 1024)
        big = small_test_config(total_bytes=1024 * 1024)
        r_small = GraFBoost(rmat256, DeltaPageRankProgram(threshold=1e-9), small).run(3)
        r_big = GraFBoost(rmat256, DeltaPageRankProgram(threshold=1e-9), big).run(3)
        pages_small = r_small.stats.reads.get("gfsort")
        pages_big = r_big.stats.reads.get("gfsort")
        assert pages_small is not None
        if pages_big is not None:
            assert pages_small.pages >= pages_big.pages

    def test_adapted_sorts_more_than_combined(self, cfg, rmat256):
        plain = GraFBoost(rmat256, DeltaPageRankProgram(threshold=1e-9), cfg).run(3)
        adapted = GraFBoost(rmat256, DeltaPageRankProgram(threshold=1e-9), cfg, options=EngineOptions(adapted=True)).run(3)
        sort_plain = plain.stats.reads.get("gfsort")
        sort_adapted = adapted.stats.reads.get("gfsort")
        if sort_plain and sort_adapted:
            assert sort_adapted.pages >= sort_plain.pages

    def test_smaller_fanout_more_passes(self, rmat256):
        cfg = small_test_config(total_bytes=96 * 1024)
        wide = GraFBoost(rmat256, DeltaPageRankProgram(threshold=1e-9), cfg, options=EngineOptions(merge_fanout=64)).run(2)
        narrow = GraFBoost(rmat256, DeltaPageRankProgram(threshold=1e-9), cfg, options=EngineOptions(merge_fanout=2)).run(2)
        assert narrow.stats.reads["gfsort"].pages >= wide.stats.reads["gfsort"].pages

    def test_whole_graph_streamed_even_when_idle(self, cfg, rmat256):
        """BFS frontier is tiny, but GraFBoost reads the full CSR anyway."""
        res = GraFBoost(rmat256, BFSProgram(0), cfg).run(5)
        total_colidx = res.stats.reads["csr_col"].pages
        one_pass = -(-rmat256.m * 4 // cfg.ssd.page_size)
        assert total_colidx >= one_pass * (res.n_supersteps - 1)

    def test_log_buffer_stays_within_its_share(self, cfg, monkeypatch):
        """A hub's sends are staged a page at a time, so a non-tail
        ``log_flush`` never finds the buffer more than one page (one
        chunk) past its ``multilog_bytes`` share."""
        from repro.graph.csr import CSRGraph
        from repro.mem.pagebuffer import RecordPageBuffer

        capacity = cfg.memory.multilog_bytes // cfg.ssd.page_size
        n = 8 * capacity * cfg.updates_per_page  # the hub's sends fill 8 buffers
        star = CSRGraph.from_edges(n, np.zeros(n - 1, np.int64), np.arange(1, n))
        fills = []
        pop = RecordPageBuffer.pop_sealed

        def spy(self, max_pages=None):
            if max_pages is not None:  # the tail flush drains everything
                fills.append(self.pages_used)
            return pop(self, max_pages)

        monkeypatch.setattr(RecordPageBuffer, "pop_sealed", spy)
        GraFBoost(star, DeltaPageRankProgram(), cfg).run(2)
        assert len(fills) > 1
        assert max(fills) <= capacity + 1


class TestBaselineResultTypes:
    def test_record_shapes(self, cfg, rmat256):
        for res in (
            GraphChi(rmat256, WCCProgram(), cfg).run(5),
            GraFBoost(rmat256, WCCProgram(), cfg).run(5),
        ):
            assert res.n_supersteps > 0
            assert res.total_time_us > 0
            for rec in res.supersteps:
                assert rec.storage_time_us >= 0
                assert rec.active_vertices >= 0
            assert res.summary()
