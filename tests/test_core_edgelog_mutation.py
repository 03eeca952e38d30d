"""Edge-log optimizer and structural-update buffering."""

import numpy as np
import pytest

from repro.algorithms import BFSProgram, MISProgram
from repro.core import MultiLogVC
from repro.core.edgelog import KLASS_EDGELOG, EdgeLogOptimizer
from repro.core.loader import GraphLoaderUnit
from repro.core.mutation import MutationBuffer
from repro.errors import ProgramError
from repro.graph import GraphOnSSD, uniform_partition
from repro.graph.datasets import bfs_chain_graph, small_rmat
from repro.mem import MemoryBudget
from repro.obs import MetricsRegistry
from repro.ssd import SimFS
from repro.ssd.stats import IOCounter


@pytest.fixture
def elog(cfg):
    fs = SimFS(cfg)
    budget = MemoryBudget.resolve(cfg, 4)
    return fs, EdgeLogOptimizer(fs, 100, cfg, budget)


class TestEdgeLogOptimizer:
    def test_logs_positive_degrees_only(self, elog):
        fs, e = elog
        assert e.consider(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == 0
        assert e.consider(np.array([1, 2]), np.array([0, 10])) == 1
        assert e.vertices_logged == 1
        assert e.considered == 2
        e.end_superstep()
        assert list(e.contains_many(np.array([1, 2]))) == [False, True]

    def test_visible_only_after_rotation(self, elog):
        fs, e = elog
        e.consider(np.array([1]), np.array([10]))
        assert not e.contains(1)
        e.end_superstep()
        assert e.contains(1)
        assert e.current_coverage == 1

    def test_expires_after_one_superstep(self, elog):
        fs, e = elog
        e.consider(np.array([1]), np.array([10]))
        e.end_superstep()
        e.end_superstep()
        assert not e.contains(1)

    def test_contains_many(self, elog):
        fs, e = elog
        e.consider(np.array([3]), np.array([5]))
        e.consider(np.array([7]), np.array([5]))
        e.end_superstep()
        mask = e.contains_many(np.array([1, 3, 7]))
        assert list(mask) == [False, True, True]

    def test_pages_shared_between_vertices(self, elog, cfg):
        fs, e = elog
        # Two small vertices fit in one page.
        e.consider(np.array([1]), np.array([3]))
        e.consider(np.array([2]), np.array([3]))
        e.end_superstep()
        pages = e.pages_of(np.array([1, 2]))
        assert pages.shape[0] == 1

    def test_high_degree_vertex_spans_pages(self, elog, cfg):
        fs, e = elog
        big = 2 * cfg.ssd.page_size // cfg.records.edgelog_entry_bytes
        e.consider(np.array([1]), np.array([big]))
        e.end_superstep()
        assert e.pages_of(np.array([1])).shape[0] >= 2

    def test_charge_read(self, elog):
        fs, e = elog
        e.consider(np.array([1]), np.array([10]))
        e.end_superstep()
        assert e.charge_read(np.array([1])) == 1
        assert e.pages_read_total == 1
        assert fs.stats.reads["edgelog"].pages == 1
        assert fs.stats.reads["edgelog"].time_us > 0

    def test_charge_read_no_hits(self, elog):
        fs, e = elog
        e.end_superstep()
        assert e.charge_read(np.array([5])) == 0
        assert "edgelog" not in fs.stats.reads

    def test_writes_charged_on_flush(self, elog):
        fs, e = elog
        e.consider(np.array([1]), np.array([10]))
        e.end_superstep()
        assert fs.stats.writes.get("edgelog") is not None

    @pytest.mark.parametrize("cached", [False, True])
    def test_consumed_generations_are_deleted(self, cfg, cached):
        # Only the generation being read and the one being written live.
        graph, source = bfs_chain_graph("test")
        eng = MultiLogVC(graph, BFSProgram(source), cfg.with_cache() if cached else cfg)
        assert eng.run(10).n_supersteps == 10
        assert eng.edgelog.total_logged > 0
        assert len([n for n in eng.fs.names() if n.startswith("elog.g")]) <= 2

    @pytest.mark.parametrize("cache_bytes", [0, 2 << 20])
    @pytest.mark.parametrize("io_plan", ["off", "coalesce"])
    def test_gauges_read_the_ledger_on_every_stack(self, cfg, monkeypatch, io_plan, cache_bytes):
        """``edgelog.pages_read`` counts every page a load asked for, cache
        hits included, whether or not a plan batched the reads: one figure
        in every cell, the sum of the load reports'.  Storage time is the
        device's own ``edgelog`` rows, write-backs included, and the
        multi-log keeps no time of its own.  MIS is the instrument (as in
        the edge-log ablation): BFS reads the edge pages of improving
        vertices only, and barely re-logs any."""
        graph = small_rmat(n=4096, m=8 * 4096, seed=3)
        load = GraphLoaderUnit.load_active

        def run(config):
            reports = []

            def spy(self, *args, **kwargs):
                reports.append(load(self, *args, **kwargs))
                return reports[-1]

            monkeypatch.setattr(GraphLoaderUnit, "load_active", spy)
            reg = MetricsRegistry()
            eng = MultiLogVC(graph, MISProgram(seed=0), config, metrics=reg)
            eng.run(64)
            return eng.fs.stats, reg.snapshot(), sum(r.edgelog_pages for r in reports)

        base = cfg.with_workers(1).with_devices(1).with_io_plan("off")
        _, _, want = run(base)
        stack = base.with_io_plan(io_plan)
        if cache_bytes:
            stack = stack.with_cache(cache_bytes=cache_bytes)
        stats, gauges, pages = run(stack)
        assert gauges["edgelog.pages_read"] == pages == want > 0
        ledger = (
            stats.reads.get(KLASS_EDGELOG, IOCounter()).time_us
            + stats.writes.get(KLASS_EDGELOG, IOCounter()).time_us
        )
        assert gauges["edgelog.io_time_us"] == ledger
        assert not [k for k in gauges if k.startswith("multilog.") and "io_time" in k]


@pytest.fixture
def storage(cfg, rmat256w):
    fs = SimFS(cfg)
    iv = uniform_partition(rmat256w.n, 4)
    return fs, GraphOnSSD(rmat256w, iv, fs, cfg, with_weights=True)


class TestMutationBuffer:
    def test_add_edge_overlay(self, storage, cfg, rmat256w):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        v = 0
        new_dst = int(rmat256w.n - 1)
        before = gos.neighbors(v).copy()
        if new_dst in before:
            new_dst -= 1
        mb.add_edge(v, new_dst, 2.0)
        nb, wt = mb.overlay_adjacency(v, gos.neighbors(v), gos.weights(v))
        assert new_dst in nb.tolist()
        assert len(nb) == len(before) + 1
        assert (np.diff(nb) >= 0).all()

    def test_remove_edge_overlay(self, storage, cfg, rmat256w):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        v = 0
        target = int(gos.neighbors(v)[0])
        mb.remove_edge(v, target)
        nb, _ = mb.overlay_adjacency(v, gos.neighbors(v), gos.weights(v))
        assert target not in nb.tolist()

    def test_overlay_noop_for_untouched_vertex(self, storage, cfg):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        nb0 = gos.neighbors(5)
        nb, wt = mb.overlay_adjacency(5, nb0, gos.weights(5))
        assert nb is nb0

    def test_add_then_remove_cancels(self, storage, cfg, rmat256w):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        v, u = 0, int(rmat256w.n - 1)
        mb.add_edge(v, u)
        mb.remove_edge(v, u)
        nb, _ = mb.overlay_adjacency(v, gos.neighbors(v), gos.weights(v))
        assert u not in nb.tolist() or u in gos.neighbors(v).tolist()

    def test_merge_applies_edits(self, storage, cfg):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        v = 0
        old = gos.neighbors(v).copy()
        removed = int(old[0])
        mb.remove_edge(v, removed)
        i = gos.intervals.interval_of_one(v)
        mb.merge_interval(i)
        assert removed not in gos.neighbors(v).tolist()
        assert mb.pending(i) == 0
        assert mb.merges == 1

    def test_merge_charges_io(self, storage, cfg):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        mb.add_edge(0, 200, 1.0)
        before = fs.stats.snapshot()
        mb.merge_interval(0)
        delta = fs.stats - before
        # read the old adjacency, write the rebuilt interval back
        assert delta.reads["csr_col"].pages > 0 and delta.read_time_us > 0
        assert set(delta.writes) >= {"csr_row", "csr_col"} and delta.write_time_us > 0

    def test_merge_preserves_untouched_vertices(self, storage, cfg, rmat256w):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        mb.add_edge(0, 200, 1.0)
        other = 3
        before = gos.neighbors(other).copy()
        mb.merge_interval(0)
        assert np.array_equal(gos.neighbors(other), before)

    def test_merge_ready_threshold(self, storage, cfg):
        import dataclasses

        fs, gos = storage
        cfg2 = dataclasses.replace(cfg, mutation_merge_threshold=2)
        mb = MutationBuffer(gos, cfg2)
        mb.add_edge(0, 200)
        mb.merge_ready()
        assert mb.merges == 0  # below threshold
        mb.add_edge(0, 201)
        mb.merge_ready()
        assert mb.merges == 1

    def test_merge_all(self, storage, cfg):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        mb.add_edge(0, 200)
        mb.add_edge(100, 5)
        mb.merge_all()
        assert mb.total_pending == 0
        assert mb.merges == 2

    def test_rejects_out_of_range(self, storage, cfg):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        with pytest.raises(ProgramError):
            mb.add_edge(0, 10**6)
        with pytest.raises(ProgramError):
            mb.remove_edge(-1, 0)

    def test_rebuild_csr_after_merge(self, storage, cfg):
        fs, gos = storage
        mb = MutationBuffer(gos, cfg)
        mb.add_edge(0, 200, 3.0)
        mb.merge_all()
        g2 = gos.rebuild_csr()
        g2.validate()
        assert 200 in g2.neighbors(0).tolist()
