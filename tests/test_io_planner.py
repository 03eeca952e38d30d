"""The superstep I/O planner (DESIGN.md §13).

Unit coverage for the planning primitives (run splitting, channel
balancing, extent timing across the channel wrap, demand snapshots that
survive a file truncate, read-ahead pinning) plus the end-to-end
guarantees: every ``io_plan`` mode is value- and semantically
record-identical to planner-off mode with strictly less simulated read
time on fused groups, parity holds across worker counts, and
crash/resume under a planner stays bit-exact.
"""

import numpy as np
import pytest

import repro
from repro import EngineOptions
from repro.algorithms import DeltaPageRankProgram
from repro.config import SimConfig, small_test_config
from repro.errors import ConfigError, StorageError
from repro.graph.datasets import cf_like, small_rmat
from repro.io import IO_PLAN_MODES, IOPlan, KLASS_READAHEAD, balance_channels, split_runs
from repro.io.planner import SuperstepIOPlanner
from repro.mem import PageCache
from repro.obs import TraceRecorder
from repro.recovery import count_device_ops, crash_resume_experiment
from repro.ssd import SimFS


def ids(*xs):
    return np.asarray(xs, dtype=np.int64)


SEMANTIC = (
    "index",
    "active_vertices",
    "updates_processed",
    "messages_sent",
    "edges_scanned",
)


def semantic_records(result):
    return [{k: r.to_dict()[k] for k in SEMANTIC} for r in result.supersteps]


# -- planning primitives -----------------------------------------------------


class TestSplitRuns:
    def test_empty(self):
        assert split_runs(ids()) == []

    def test_single_page(self):
        assert split_runs(ids(5)) == [(5, 1)]

    def test_all_singles(self):
        assert split_runs(ids(0, 2, 4)) == [(0, 1), (2, 1), (4, 1)]

    def test_mixed_runs(self):
        assert split_runs(ids(3, 4, 5, 9, 11, 12)) == [(3, 3), (9, 1), (11, 2)]

    def test_one_long_run(self):
        assert split_runs(np.arange(100, dtype=np.int64)) == [(0, 100)]


class TestBalanceChannels:
    def test_round_robin_order(self):
        # rank 0 of each channel first (channel order), then rank 1, ...
        assert balance_channels(ids(0, 0, 0, 1, 2)).tolist() == [0, 1, 2, 0, 0]

    def test_multiset_preserved(self):
        rng = np.random.default_rng(7)
        ch = rng.integers(0, 4, size=257)
        out = balance_channels(ch)
        assert np.array_equal(np.sort(out), np.sort(ch))

    def test_prefix_depths_within_one(self):
        rng = np.random.default_rng(11)
        ch = rng.integers(0, 4, size=64)
        out = balance_channels(ch)
        # any wave prefix keeps per-channel queue depths within one of
        # the best achievable for the channels that still have supply
        for k in range(1, out.size + 1):
            counts = np.bincount(out[:k], minlength=4)
            supply = np.bincount(ch, minlength=4)
            active = counts < supply  # channels that could still receive
            if active.any():
                assert counts[active].max() - counts[active].min() <= 1


class TestExtentTiming:
    def test_channel_counts_wrap(self, fs):
        # C=4: a 6-page extent starting on channel 3 wraps -- one page
        # per channel plus extras on channels 3 and 0
        with fs.device.deferred() as charges:
            fs.device.read_extent(3, 6, "csr_col")
        assert charges[0][5].tolist() == [2, 1, 1, 2]

    def test_extent_equals_interspersed_batch(self, fs):
        dev = fs.device
        expected = dev.read_batch_time((np.arange(6, dtype=np.int64) + 3) % 4)
        assert dev.read_extent(3, 6, "csr_col") == expected

    def test_extent_cheaper_than_scattered(self, fs):
        dev = fs.device
        # 8 contiguous pages span all 4 channels twice; the same 8 pages
        # on one channel would cost 8 latencies
        seq = dev.read_extent(0, 8, "csr_col")
        scattered = dev.read_batch_time(np.zeros(8, dtype=np.int64))
        assert seq < scattered


# -- IOPlan semantics --------------------------------------------------------


def _page_file(fs, name="pf", klass="csr_col", pages=8):
    f = fs.create_page_file(name, klass)
    f.append_pages([b"x"] * pages)
    return f


class TestIOPlan:
    def test_pages_and_time_match_unplanned(self, cfg):
        # identical file layouts; one charged per-path, one planned
        fs_a, fs_b = SimFS(cfg), SimFS(cfg)
        fa, fb = _page_file(fs_a), _page_file(fs_b)
        base_reads = fs_a.device.stats.pages_read
        _, t_direct = fa.read_pages(ids(0, 1, 2, 6))
        plan = IOPlan(fs_b.device)
        base_b = fs_b.device.stats.pages_read
        assert fb.read_pages(ids(0, 1, 2, 6), plan=plan)[1] == 0.0
        outcome = plan.execute()
        assert fs_b.device.stats.pages_read - base_b == 4
        assert fs_a.device.stats.pages_read - base_reads == 4
        assert outcome.demand_pages == 4
        assert outcome.extents == 1 and outcome.extent_pages == 3
        assert outcome.scattered_pages == 1
        assert outcome.baseline_time_us == t_direct
        assert outcome.time_us <= t_direct
        assert outcome.saved_us >= 0.0

    def test_folding_two_paths_saves_overhead(self, cfg):
        fs = SimFS(cfg)
        f1 = _page_file(fs, "a")
        f2 = _page_file(fs, "b")
        plan = IOPlan(fs.device)
        f1.read_pages(ids(0), plan=plan)
        f2.read_pages(ids(1), plan=plan)
        outcome = plan.execute()
        # two one-page batches (overhead + latency each) became one wave
        assert outcome.batches_folded == 2
        assert outcome.waves == 1
        assert outcome.saved_us > 0.0

    def test_add_after_execute_raises(self, fs):
        f = _page_file(fs)
        plan = IOPlan(fs.device)
        plan.execute()
        with pytest.raises(StorageError):
            plan.add(f, ids(0))
        with pytest.raises(StorageError):
            plan.execute()

    def test_demand_straddles_truncate(self, cfg):
        """Charges snapshot page placement at add time, so a truncate
        between collection and execution cannot move or lose them."""
        fs_a, fs_b = SimFS(cfg), SimFS(cfg)
        fa, fb = _page_file(fs_a), _page_file(fs_b)
        plan_a = IOPlan(fs_a.device)
        fa.read_pages(ids(2, 3, 4), plan=plan_a)
        out_a = plan_a.execute()  # executed before any truncate

        plan_b = IOPlan(fs_b.device)
        fb.read_pages(ids(2, 3, 4), plan=plan_b)
        fb.truncate()  # consumed log trimmed before the plan commits
        out_b = plan_b.execute()
        assert out_b.time_us == out_a.time_us
        assert out_b.demand_pages == out_a.demand_pages == 3
        assert fs_b.device.stats.pages_read == fs_a.device.stats.pages_read


class TestReadAhead:
    def _cached_fs(self, pages=8):
        cfg = small_test_config().with_cache()
        fs = SimFS(cfg)
        fs.cache = PageCache(pages)  # tiny, test-controlled budget
        return fs

    def test_prefetch_lands_in_cache(self):
        fs = self._cached_fs()
        f = _page_file(fs, pages=8)
        fs.cache.clear()
        plan = IOPlan(fs.device)
        plan.add_readahead(f, ids(1, 2, 3))
        outcome = plan.execute()
        assert outcome.readahead_pages == 3
        assert outcome.readahead_time_us > 0.0
        assert all((f.name, p) in fs.cache for p in (1, 2, 3))
        # demand tallies unaffected by prefetch-only plans
        assert outcome.demand_pages == 0 and outcome.saved_us == 0.0

    def test_full_cache_prefetch_evicts_nothing_it_admitted(self):
        """Admissions are pinned until the whole prefetch set is
        resident, so a budget-sized prefetch into a full cache keeps
        every prefetched page (later admissions reject, not evict)."""
        fs = self._cached_fs(pages=4)
        f1 = _page_file(fs, "a", pages=8)
        f2 = _page_file(fs, "b", pages=8)
        fs.cache.clear()
        fs.cache.access("warm", ids(0, 1, 2, 3))  # cache starts full
        plan = IOPlan(fs.device)
        plan.add_readahead(f1, ids(0, 1, 2, 3))
        plan.add_readahead(f2, ids(4, 5, 6, 7))  # over budget: rejected
        plan.execute()
        assert all((f1.name, p) in fs.cache for p in (0, 1, 2, 3))
        assert fs.cache.resident_pages == 4
        assert fs.cache.pinned_pages == 0  # pins released after execute

    def test_planner_skips_resident_pages(self):
        fs = self._cached_fs()
        f = _page_file(fs, pages=8)
        fs.cache.clear()
        fs.cache.access(f.name, ids(1, 2))
        planner = SuperstepIOPlanner(
            fs.device, cache=fs.cache, mode="coalesce+readahead", readahead_pages=2
        )
        assert planner.readahead_enabled
        plan = planner.new_plan()
        # queue() helper inside collect_readahead is exercised end-to-end
        # by the engine tests; here check the budget/residency filter via
        # the same cache-membership predicate it uses
        fresh = [p for p in (1, 2, 3, 4, 5) if (f.name, p) not in fs.cache][:2]
        assert fresh == [3, 4]
        plan.add_readahead(f, np.asarray(fresh, dtype=np.int64))
        assert plan.execute().readahead_pages == 2

    def test_readahead_degrades_without_cache(self, fs):
        planner = SuperstepIOPlanner(
            fs.device, cache=None, mode="coalesce+readahead", readahead_pages=64
        )
        assert not planner.readahead_enabled

    def test_planner_rejects_off_mode(self, fs):
        with pytest.raises(ValueError):
            SuperstepIOPlanner(fs.device, mode="off")
        with pytest.raises(ValueError):
            SuperstepIOPlanner(fs.device, mode="bogus")


# -- knob plumbing -----------------------------------------------------------


class TestKnobs:
    def test_config_validates_modes(self):
        for mode in IO_PLAN_MODES:
            small_test_config().with_io_plan(mode)
        with pytest.raises(ConfigError):
            SimConfig(io_plan="bogus")


# -- end-to-end equivalence --------------------------------------------------


def _run(graph, mode, *, cache=False, workers=1, min_intervals=8, steps=8, trace=False):
    # io_plan is always pinned so a REPRO_IO_PLAN env default (the CI
    # matrix leg) cannot silently turn the "off" baseline into a plan
    cfg = small_test_config().with_workers(workers).with_io_plan(mode)
    if cache:
        cfg = cfg.with_cache()
    tracer = TraceRecorder() if trace else None
    return repro.run(
        graph,
        DeltaPageRankProgram(),
        config=cfg,
        options=EngineOptions(min_intervals=min_intervals),
        max_supersteps=steps,
        tracer=tracer,
    )


class TestEngineEquivalence:
    def test_modes_value_identical_with_less_read_time(self):
        g = small_rmat(n=256, m=2048, seed=3)
        off = _run(g, "off")
        co = _run(g, "coalesce", trace=True)
        ra = _run(g, "coalesce+readahead", cache=True)
        assert np.array_equal(off.values, co.values)
        assert np.array_equal(off.values, ra.values)
        assert semantic_records(off) == semantic_records(co)
        assert semantic_records(off) == semantic_records(ra)
        # coalescing rebatches without changing what is read
        assert co.stats.pages_read == off.stats.pages_read
        # the headline claim: >= 15% less simulated read time on fused groups
        assert co.stats.read_time_us <= 0.85 * off.stats.read_time_us
        stats = [e for e in co.trace if e.kind == "io_plan_stats"]
        assert stats and stats[-1].fields["batches_folded"] > stats[-1].fields["waves"]
        assert stats[-1].fields["saved_us"] > 0.0
        assert co.metrics["io.plans"] == stats[-1].fields["plans"]

    def test_unfused_groups_plan_is_neutral(self):
        """With fusing off every group is one interval, so each read
        path is already its own klass batch: nothing folds and the
        planned charges are bit-identical to the seed's."""
        g = cf_like(scale="test")
        unfused = EngineOptions(enable_fusing=False)
        off = repro.run(g, DeltaPageRankProgram(),
                        config=small_test_config().with_io_plan("off"),
                        options=unfused, max_supersteps=6)
        co = repro.run(g, DeltaPageRankProgram(),
                       config=small_test_config().with_io_plan("coalesce"),
                       options=unfused, max_supersteps=6)
        assert np.array_equal(off.values, co.values)
        assert co.stats.to_dict() == off.stats.to_dict()

    def test_worker_count_invariance(self):
        g = small_rmat(n=256, m=2048, seed=3)
        w1 = _run(g, "coalesce", workers=1)
        w4 = _run(g, "coalesce", workers=4)
        assert np.array_equal(w1.values, w4.values)
        assert w1.stats.to_dict() == w4.stats.to_dict()
        assert [r.to_dict() for r in w1.supersteps] == [r.to_dict() for r in w4.supersteps]

    def test_planned_run_is_reproducible(self):
        g = cf_like(scale="test")
        runs = [_run(g, "coalesce+readahead", cache=True) for _ in range(2)]
        assert np.array_equal(runs[0].values, runs[1].values)
        assert runs[0].stats.to_dict() == runs[1].stats.to_dict()


class TestPlannerCrashResume:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_crash_resume_exact_under_planner(self, workers):
        graph = lambda: small_rmat(n=256, m=2048, seed=3)
        cfg = small_test_config().with_io_plan("coalesce").with_workers(workers)
        options = EngineOptions(checkpoint_every=2, min_intervals=8)
        total_ops, _ = count_device_ops(
            graph, DeltaPageRankProgram, config=cfg, options=options, max_supersteps=8
        )
        resumed = 0
        for point in (total_ops // 3, total_ops // 2, int(total_ops * 0.8)):
            report = crash_resume_experiment(
                graph,
                DeltaPageRankProgram,
                config=cfg,
                options=options,
                crash_after_ops=point,
                max_supersteps=8,
            )
            if report.crashed and not report.no_checkpoint:
                assert report.ok, report.describe()
                resumed += 1
        assert resumed >= 1
