"""Sort-and-group unit (fusing) and the graph loader unit."""

import numpy as np
import pytest

from repro.config import small_test_config
from repro.core.loader import GraphLoaderUnit
from repro.core.multilog import MultiLogUnit
from repro.core.results import ComputeMeter
from repro.core.sortgroup import SortGroupUnit
from repro.core.update import UpdateBatch
from repro.graph import GraphOnSSD, uniform_partition
from repro.mem import MemoryBudget
from repro.ssd import SimFS


@pytest.fixture
def setup(cfg, rmat256):
    fs = SimFS(cfg)
    iv = uniform_partition(rmat256.n, 8)
    budget = MemoryBudget.resolve(cfg, iv.n_intervals)
    mlog = MultiLogUnit(fs, iv, cfg, budget, "m")
    meter = ComputeMeter(cfg.compute)
    sg = SortGroupUnit(cfg, budget, meter)
    return fs, iv, budget, mlog, sg


class TestPlanGroups:
    def test_skips_empty_intervals(self, setup):
        fs, iv, budget, mlog, sg = setup
        mlog.ingest(UpdateBatch.of([5], [0], [1.0]))  # interval 0 only
        groups = sg.plan_groups(mlog)
        assert groups == [[0]]

    def test_contiguous_fusing(self, setup):
        fs, iv, budget, mlog, sg = setup
        mlog.ingest(UpdateBatch.of([5, 40, 70], [0] * 3, [1.0] * 3))  # intervals 0, 1, 2
        groups = sg.plan_groups(mlog)
        assert groups == [[0, 1, 2]]

    def test_gap_breaks_fusing(self, setup):
        fs, iv, budget, mlog, sg = setup
        mlog.ingest(UpdateBatch.of([5, 100], [0, 0], [1.0, 1.0]))  # intervals 0 and 3
        groups = sg.plan_groups(mlog)
        assert groups == [[0], [3]]

    def test_budget_limits_fusing(self, rmat256):
        cfg = small_test_config(total_bytes=128 * 1024)
        fs = SimFS(cfg)
        iv = uniform_partition(rmat256.n, 8)
        budget = MemoryBudget.resolve(cfg, 8)
        mlog = MultiLogUnit(fs, iv, cfg, budget, "m")
        sg = SortGroupUnit(cfg, budget, ComputeMeter(cfg.compute))
        per_interval = budget.sort_bytes // cfg.records.update_bytes // 2 + 1
        for i in range(3):
            lo, hi = iv.span(i)
            dests = np.full(per_interval, lo)
            mlog.ingest(UpdateBatch.of(dests, np.zeros(per_interval), np.zeros(per_interval)))
        groups = sg.plan_groups(mlog)
        assert len(groups) >= 2  # cannot fuse all three

    def test_must_include_forces_empty_interval(self, setup):
        fs, iv, budget, mlog, sg = setup
        must = np.zeros(iv.n_intervals, dtype=bool)
        must[4] = True
        groups = sg.plan_groups(mlog, must_include=must)
        assert groups == [[4]]


class TestLoadGroup:
    def test_sorted_and_grouped(self, setup):
        fs, iv, budget, mlog, sg = setup
        mlog.ingest(UpdateBatch.of([7, 3, 7], [0, 0, 0], [1.0, 2.0, 3.0]))
        out = sg.load_group(mlog, [0])
        assert out.batch.is_sorted()
        assert list(out.unique_dests) == [3, 7]
        data = out.batch.data[out.offsets[1] : out.offsets[2]]
        assert sorted(data.tolist()) == [1.0, 3.0]

    def test_combine_applied(self, setup):
        fs, iv, budget, mlog, sg = setup
        mlog.ingest(UpdateBatch.of([7, 7], [0, 1], [1.0, 2.0]))
        out = sg.load_group(mlog, [0], combine="add")
        assert out.batch.n == 1
        assert out.batch.data[0] == 3.0

    def test_extra_injected(self, setup):
        fs, iv, budget, mlog, sg = setup
        mlog.ingest(UpdateBatch.of([7], [0], [1.0]))
        extra = UpdateBatch.of([3], [9], [9.0])
        out = sg.load_group(mlog, [0], extra=extra)
        assert out.batch.n == 2
        assert list(out.unique_dests) == [3, 7]

    def test_vertex_bounds(self, setup):
        fs, iv, budget, mlog, sg = setup
        mlog.ingest(UpdateBatch.of([40], [0], [1.0]))
        out = sg.load_group(mlog, [1, 2])
        assert out.vertex_lo == iv.span(1)[0]
        assert out.vertex_hi == iv.span(2)[1]


@pytest.fixture
def loader_setup(cfg, rmat256):
    fs = SimFS(cfg)
    iv = uniform_partition(rmat256.n, 4)
    storage = GraphOnSSD(rmat256.with_unit_weights(), iv, fs, cfg, with_weights=True)
    return fs, storage, GraphLoaderUnit(storage, cfg)


class TestGraphLoader:
    def test_empty_active(self, loader_setup):
        fs, storage, loader = loader_setup
        before = fs.stats.snapshot()
        rep = loader.load_active(np.empty(0, np.int64), False, False)
        assert (fs.stats - before).total_time_us == 0.0
        assert rep.colidx_pages == 0

    def test_charges_rowptr_and_colidx(self, loader_setup):
        fs, storage, loader = loader_setup
        before = fs.stats.snapshot()
        rep = loader.load_active(np.array([0, 1, 2]), False, False)
        assert rep.rowptr_pages >= 1
        assert rep.colidx_pages >= 1
        delta = fs.stats - before
        assert delta.reads["csr_row"].pages == rep.rowptr_pages
        assert delta.reads["csr_col"].pages == rep.colidx_pages
        assert delta.read_time_us > 0

    def test_weights_loaded_when_needed(self, loader_setup):
        fs, storage, loader = loader_setup
        rep = loader.load_active(np.array([0, 1]), True, False)
        assert rep.val_pages >= 1
        rep2 = loader.load_active(np.array([0, 1]), False, False)
        assert rep2.val_pages == 0

    def test_fewer_active_fewer_pages(self, loader_setup, rmat256):
        fs, storage, loader = loader_setup
        few = loader.load_active(np.array([0]), False, False)
        many = loader.load_active(np.arange(rmat256.n), False, False)
        assert few.colidx_pages < many.colidx_pages

    def test_full_scan_covers_graph(self, loader_setup, rmat256):
        fs, storage, loader = loader_setup
        rep = loader.load_active(np.arange(rmat256.n), False, False)
        assert rep.colidx_pages == storage.colidx_pages()

    def test_vertex_page_inefficient_flags(self, loader_setup, rmat256):
        fs, storage, loader = loader_setup
        # A single active low-degree vertex on a dense page: inefficient.
        deg = rmat256.out_degrees
        v = int(np.flatnonzero((deg > 0) & (deg < 5))[0])
        rep = loader.load_active(np.array([v]), False, False)
        assert rep.vertex_page_inefficient.shape == (1,)
        assert bool(rep.vertex_page_inefficient[0])

    def test_full_pages_efficient(self, loader_setup, rmat256):
        fs, storage, loader = loader_setup
        rep = loader.load_active(np.arange(rmat256.n), False, False)
        # With every vertex active, most pages must be efficiently used.
        u = rep.colidx_useful
        assert u.shape == (rep.colidx_pages,)
        total_ineff = int(((u > 0) & (u / storage.config.ssd.page_size < 0.1)).sum())
        assert total_ineff <= rep.colidx_pages * 0.2

    def test_writeback_edge_state(self, loader_setup):
        fs, storage, loader = loader_setup
        t = loader.writeback_edge_state(np.array([0, 5]))
        assert t > 0
        assert "csr_val" in fs.stats.writes

    def test_writeback_empty(self, loader_setup):
        fs, storage, loader = loader_setup
        assert loader.writeback_edge_state(np.empty(0)) == 0.0
