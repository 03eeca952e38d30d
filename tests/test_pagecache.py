"""The budgeted DRAM page cache (DESIGN.md §10).

Unit coverage for the CLOCK cache itself (eviction order, budget
enforcement, pin/unpin, counters, invalidation) plus the end-to-end
guarantees: cache-on runs are value- and semantically record-identical
to cache-off runs with strictly fewer charged read pages, and
crash/resume under a cache stays bit-exact.
"""

import numpy as np
import pytest

import repro
from repro import EngineOptions
from repro.algorithms import DeltaPageRankProgram
from repro.config import SimConfig, small_test_config
from repro.errors import ConfigError
from repro.graph.datasets import cf_like, small_rmat
from repro.mem import UNCACHED_KLASSES, PageCache
from repro.recovery import crash_resume_experiment, count_device_ops
from repro.ssd import SimFS


def ids(*xs):
    return np.asarray(xs, dtype=np.int64)


class TestClockEviction:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            PageCache(0)
        with pytest.raises(ConfigError):
            PageCache(-3)

    def test_miss_then_hit(self):
        c = PageCache(4)
        miss = c.access("f", ids(0, 1, 0))
        # third access repeats page 0, which the first access admitted
        assert miss.tolist() == [True, True, False]
        assert c.hits == 1 and c.misses == 2
        assert ("f", 0) in c and ("f", 1) in c

    def test_budget_enforced(self):
        c = PageCache(3)
        c.access("f", ids(0, 1, 2, 3, 4))
        assert c.resident_pages == 3
        assert c.capacity == 3
        assert c.evictions == 2

    def test_clock_evicts_unreferenced_first(self):
        c = PageCache(3)
        c.access("f", ids(0, 1, 2))  # fill; all ref bits start clear
        c.access("f", ids(0))        # page 0 gets its ref bit set
        c.access("f", ids(3))        # hand at slot 0: second-chances 0, takes 1
        assert ("f", 0) in c
        assert ("f", 1) not in c
        assert ("f", 2) in c and ("f", 3) in c

    def test_second_chance_cycles_the_ring(self):
        c = PageCache(2)
        c.access("f", ids(0, 1))
        c.access("f", ids(0, 1))  # both referenced
        c.access("f", ids(2))     # full sweep clears refs, evicts slot 0
        assert ("f", 0) not in c
        assert ("f", 1) in c and ("f", 2) in c

    def test_deterministic_replay(self):
        """Same access sequence, same hits -- the determinism contract."""
        seq = np.random.default_rng(7).integers(0, 40, size=500)
        snaps = []
        for _ in range(2):
            c = PageCache(16)
            c.access("f", seq)
            snaps.append(c.snapshot())
        assert snaps[0] == snaps[1]


class TestPinning:
    def test_pinned_pages_survive_pressure(self):
        c = PageCache(3)
        c.access("f", ids(0, 1, 2))
        c.pin("f", ids(0))
        c.access("f", ids(3, 4, 5, 6))
        assert ("f", 0) in c
        assert c.resident_pages == 3

    def test_all_pinned_rejects_insertion(self):
        c = PageCache(2)
        c.access("f", ids(0, 1))
        c.pin("f", ids(0, 1))
        miss = c.access("f", ids(2))
        assert miss.tolist() == [True]  # still charged as a miss
        assert ("f", 2) not in c
        assert c.rejected == 1
        assert c.resident_pages == 2

    def test_unpin_restores_evictability(self):
        c = PageCache(2)
        c.access("f", ids(0, 1))
        c.pin("f", ids(0, 1))
        c.unpin("f", ids(0, 1))
        c.access("f", ids(2))
        assert c.resident_pages == 2
        assert ("f", 2) in c

    def test_pin_is_refcounted(self):
        c = PageCache(2)
        c.access("f", ids(0, 1))
        c.pin("f", ids(0))
        c.pin("f", ids(0))
        c.unpin("f", ids(0))  # one pin remains
        c.access("f", ids(2, 3))
        assert ("f", 0) in c
        # unpinning an absent page / below zero is a no-op
        c.unpin("g", ids(9))
        c.unpin("f", ids(0))
        c.unpin("f", ids(0))


class TestAccountingAndInvalidation:
    def test_counters_and_hit_rate(self):
        c = PageCache(8)
        c.access("f", ids(0, 1))
        c.access("f", ids(0, 1))
        snap = c.snapshot()
        assert snap["hits"] == 2 and snap["misses"] == 2
        assert snap["hit_rate"] == 0.5
        assert snap["insertions"] == 2

    def test_admit_is_not_a_hit_or_miss(self):
        c = PageCache(8)
        c.admit("f", ids(0, 1, 2))
        assert c.hits == 0 and c.misses == 0
        assert c.insertions == 3
        assert c.access("f", ids(0, 1, 2)).sum() == 0  # all hits now

    def test_invalidate_file_drops_only_that_file(self):
        c = PageCache(8)
        c.access("a", ids(0, 1))
        c.access("b", ids(0))
        assert c.invalidate_file("a") == 2
        assert ("a", 0) not in c and ("b", 0) in c
        assert c.invalidations == 2
        assert c.invalidate_file("a") == 0

    def test_clear_keeps_counters_monotonic(self):
        c = PageCache(8)
        c.access("f", ids(0, 1))
        c.access("f", ids(0))
        before = c.snapshot()
        c.clear()
        after = c.snapshot()
        assert after["resident_pages"] == 0
        for k in ("hits", "misses", "evictions", "insertions", "invalidations"):
            assert after[k] == before[k]
        # a cleared cache misses everything again
        assert c.access("f", ids(0)).tolist() == [True]


class TestConfigKnobs:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(cache_policy="lru")
        with pytest.raises(ConfigError):
            SimConfig(cache_policy="clock", cache_bytes=1)

    def test_none_policy_means_no_cache(self, cfg):
        assert SimFS(cfg).cache is None
        assert cfg.cache_pages == 0
        assert cfg.resolved_cache_bytes is None

    def test_with_cache_resolves_default_budget(self, cfg):
        on = cfg.with_cache()
        assert on.cache_policy == "clock"
        assert on.resolved_cache_bytes == cfg.memory.cache_bytes_default
        assert on.cache_pages == on.resolved_cache_bytes // cfg.ssd.page_size
        fs = SimFS(on)
        assert fs.cache is not None
        assert fs.cache.capacity == on.cache_pages

    def test_uncached_klasses_not_attached(self, cfg):
        fs = SimFS(cfg.with_cache())
        assert fs.create_page_file("c", next(iter(UNCACHED_KLASSES))).cache is None
        assert fs.create_page_file("m", "mlog").cache is fs.cache


class TestEngineEquivalence:
    ENGINES = ("multilogvc", "graphchi", "grafboost", "gridgraph", "xstream")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cache_changes_only_charging(self, cfg, engine):
        g = cf_like(scale="test")
        off = repro.run(g, DeltaPageRankProgram(), engine, config=cfg, max_supersteps=6)
        on = repro.run(
            g,
            DeltaPageRankProgram(),
            engine,
            config=cfg.with_cache(),
            max_supersteps=6,
        )
        assert np.array_equal(off.values, on.values)
        semantic = ("index", "active_vertices", "updates_processed",
                    "messages_sent", "edges_scanned")
        for a, b in zip(off.supersteps, on.supersteps):
            da, db = a.to_dict(), b.to_dict()
            for k in semantic:
                assert da[k] == db[k], (engine, k)
        assert on.stats.pages_read < off.stats.pages_read
        assert on.metrics["cache.hit_rate"] > 0.0

    def test_tiny_cache_under_churn_still_identical(self, cfg):
        """One-page cache: maximal eviction pressure, same semantics.

        ``io_plan`` is pinned off so a ``REPRO_IO_PLAN`` matrix leg
        cannot add speculative read-ahead pages to the comparison --
        this test isolates the cache dimension.
        """
        g = cf_like(scale="test")
        off = repro.run(
            g,
            DeltaPageRankProgram(),
            config=cfg.with_io_plan("off"),
            max_supersteps=6,
        )
        on = repro.run(
            g,
            DeltaPageRankProgram(),
            config=cfg.with_io_plan("off").with_cache(cache_bytes=cfg.ssd.page_size),
            max_supersteps=6,
        )
        assert np.array_equal(off.values, on.values)
        assert on.stats.pages_read <= off.stats.pages_read

    def test_cache_run_is_reproducible(self, cfg):
        g = cf_like(scale="test")
        runs = [
            repro.run(g, DeltaPageRankProgram(), config=cfg.with_cache(), max_supersteps=6)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].values, runs[1].values)
        assert runs[0].stats.to_dict() == runs[1].stats.to_dict()
        assert runs[0].metrics["cache.hits"] == runs[1].metrics["cache.hits"]


class TestCacheCrashResume:
    def test_crash_resume_exact_with_cache(self):
        graph = lambda: small_rmat(n=256, m=2048, seed=3)
        cfg = small_test_config().with_cache()
        options = EngineOptions(checkpoint_every=2)
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
