"""The budgeted DRAM page cache (DESIGN.md §10).

Unit coverage for the CLOCK cache itself (eviction order, budget
enforcement, pin/unpin, counters, invalidation) plus the end-to-end
guarantees: cache-on runs are value- and semantically record-identical
to cache-off runs with strictly fewer charged read pages, and
crash/resume under a cache stays bit-exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import EngineOptions
from repro.algorithms import DeltaPageRankProgram
from repro.config import SimConfig, small_test_config
from repro.core import MultiLogVC
from repro.errors import ConfigError, EngineError, StorageError
from repro.graph.datasets import cf_like, small_rmat
from repro.mem import UNCACHED_KLASSES, WRITEBACK_KLASSES, PageCache
from repro.obs import NULL_TRACER, TraceRecorder
from repro.recovery import crash_resume_experiment, count_device_ops
from repro.ssd import SimFS
from repro.ssd.file import striped_write


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
        c.access("f", ids(0, 1, 2))  # fill; 2, the last miss, is on probation
        c.access("f", ids(0))        # page 0 gets its ref bit set
        c.access("f", ids(3))        # the probation page goes first; 3 enters on probation
        assert ("f", 0) in c and ("f", 1) in c and ("f", 3) in c
        assert ("f", 2) not in c
        c.access("f", ids(3))        # referenced: 3 is no longer the next victim
        c.access("f", ids(4))        # hand at slot 0: second-chances 0, takes 1
        assert ("f", 0) in c and ("f", 3) in c and ("f", 4) in c
        assert ("f", 1) not in c

    def test_second_chance_cycles_the_ring(self):
        c = PageCache(2)
        c.access("f", ids(0, 1))
        c.access("f", ids(0, 1))  # both referenced, the probation page 1 too
        c.access("f", ids(2))     # full sweep clears refs, evicts slot 0
        assert ("f", 0) not in c
        assert ("f", 1) in c and ("f", 2) in c
        c.access("f", ids(3))     # 2 is on probation: it goes, not the unreferenced 1
        assert ("f", 2) not in c
        assert ("f", 1) in c and ("f", 3) in c

    def test_a_loop_larger_than_the_cache_keeps_a_resident_set(self):
        """A 24-page loop through 16 frames: classic CLOCK evicts every
        page before the loop returns to it; on probation the new pages
        share one frame and the rest of the loop stays resident."""
        c = PageCache(16)
        loop = np.arange(24)
        c.access("f", loop)
        hits = [24 - int(c.access("f", loop).sum()) for _ in range(9)]
        assert hits == [15] * 9  # 135 of 216 accesses, over half

    def test_one_miss_in_32_enters_at_the_hand(self):
        """A new working set still replaces an old one: the misses that
        enter at the hand let the hand reach the old, unreferenced pages."""
        c = PageCache(4)
        c.access("f", ids(0, 1, 2, 3))
        c.access("f", ids(0, 1, 2, 3))
        new = ids(10, 11, 12)
        for _ in range(40):
            c.access("g", new)
        assert not c.access("g", new).any()
        assert sum(("f", p) in c for p in range(4)) == 1

    def test_a_freed_frame_is_reused_without_clearing_reference_bits(self):
        c = PageCache(4)
        c.access("f", ids(0, 1))
        c.access("a", ids(0))        # slot 2, behind two f pages from the hand
        c.access("f", ids(2))
        c.access("f", ids(0, 1, 2))  # every f page referenced
        assert c.invalidate_file("a") == 1
        c.access("g", ids(0))        # takes a's frame at once
        assert ("g", 0) in c and c.evictions == 0
        assert all(c._ref[slot] for slot in c._map["f"].values())
        c.access("h", ids(0))        # so the probation page g0 is the next victim
        assert ("g", 0) not in c
        assert all(("f", p) in c for p in range(3))

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


class _RecordingDevice:
    """Stands in for the SSD: records every write's page tokens.

    A dirty batch keeps the channel vector it was admitted with and
    hands the still-dirty part of it to ``write_batch``; here that
    vector holds one unique token per page, so each write says exactly
    which deferred pages it charged.
    """

    tracer = NULL_TRACER

    def __init__(self, cache=None):
        self.writes = []
        #: per write, whether ``cache`` held no clean unpinned page then
        self.all_dirty = []
        self.cache = cache

    def write_batch(self, channels, klass, devices=None):
        self.writes.append((klass, [int(c) for c in channels]))
        c = self.cache
        if c is not None:
            unpinned = [s for s in range(c.capacity) if c._keys[s] is not None and not c._pins[s]]
            self.all_dirty.append(all(c._dirty[s] is not None for s in unpinned))
        return 10.0 + len(channels)


class TestWriteBack:
    @staticmethod
    def _fs(pages=8):
        return SimFS(small_test_config().with_cache(cache_bytes=pages * 4096))

    @staticmethod
    def _write(f, n):
        return striped_write([(f, f.stage([None] * n))], f.klass)

    def test_classes(self):
        assert WRITEBACK_KLASSES == {"mlog", "edgelog"}
        assert not WRITEBACK_KLASSES & UNCACHED_KLASSES
        fs = self._fs()
        assert fs.create_page_file("m", "mlog").writeback
        assert fs.create_page_file("e", "edgelog").writeback
        assert not fs.create_page_file("u", "ulog").writeback
        assert not SimFS(small_test_config()).create_page_file("m", "mlog").writeback

    def test_scratch_write_is_deferred_and_a_consumed_log_never_charged(self):
        fs = self._fs()
        f = fs.create_page_file("m", "mlog")
        assert self._write(f, 3) == 0.0
        assert fs.stats.pages_written == 0 and fs.cache.dirty_pages == 3
        _, t = f.read_all()
        assert t == 0.0  # served from the cache
        f.truncate()
        assert fs.cache.dirty_pages == 0 and fs.cache.dropped_dirty_pages == 3
        assert fs.stats.pages_written == 0

    def test_write_through_classes_charge_now(self):
        fs = self._fs()
        f = fs.create_page_file("u", "ulog")
        assert self._write(f, 3) > 0 and fs.stats.pages_written == 3
        assert fs.cache.dirty_pages == 0 and ("u", 0) in fs.cache

    def test_eviction_writes_back_the_whole_batch_once(self):
        fs = self._fs(4)
        u, m = fs.create_page_file("u", "ulog"), fs.create_page_file("m", "mlog")
        through = self._write(u, 4)
        u.truncate()  # empties the ring
        self._write(m, 4)  # every frame dirty: the next victim must be
        fs.cache.access("x", ids(0, 1))
        cache = fs.cache
        assert (cache.writeback_batches, cache.writeback_pages) == (1, 4)
        assert cache.dirty_pages == 0
        assert fs.stats.writes["mlog"].pages == 4
        assert fs.stats.writes["mlog"].time_us == through
        m.truncate()  # clean now: nothing is dropped dirty
        assert cache.dropped_dirty_pages == 0
        assert fs.stats.writes["mlog"].batches == 1

    def test_clean_frame_is_evicted_before_dirty(self):
        c, device = PageCache(4), _RecordingDevice()
        c.admit_dirty([("m", ids(0, 1, 2))], device, "mlog", ids(0, 1, 2))
        c.access("f", ids(0))  # the one clean page, last on the ring
        c.access("g", ids(0))  # no ref bit set: the hand passes three dirty frames
        assert ("f", 0) not in c and ("g", 0) in c
        assert all(("m", p) in c for p in range(3))
        assert device.writes == [] and c.evictions == 1 and c.dirty_pages == 3

    def test_dirty_victim_only_when_no_clean_frame_can_be_taken(self):
        c, device = PageCache(4), _RecordingDevice()
        c.admit_dirty([("m", ids(0, 1))], device, "mlog", ids(0, 1))
        c.access("f", ids(0))
        c.admit_dirty([("n", ids(0))], device, "mlog", ids(2))
        c.access("f", ids(0))  # ref bit: a second chance, but still clean
        # the hand passes m0 and m1, clears f0's bit, passes n0, m0 and
        # m1, then takes f0 rather than m0, the first dirty frame it passed
        c.access("g", ids(0))
        assert ("f", 0) not in c and device.writes == []
        c.pin("g", ids(0))  # the only clean frame left cannot be taken
        c.access("h", ids(0))  # a full round: the first dirty frame, n0, goes
        assert device.writes == [("mlog", [2])]
        assert ("g", 0) in c and ("h", 0) in c and ("n", 0) not in c
        assert c.dirty_pages == 2

    def test_an_all_dirty_ring_is_not_searched_for_a_clean_frame(self):
        """With every frame dirty the hand stops at the first unreferenced
        one, as classic CLOCK does, instead of going round the ring."""
        c, device = PageCache(64), _RecordingDevice()
        c.admit_dirty([("m", np.arange(64))], device, "mlog", np.arange(64))
        visited = []

        class Watched(list):
            def __getitem__(self, slot):
                visited.append(slot)
                return super().__getitem__(slot)

        c._pins = Watched(c._pins)
        c.access("x", ids(0))
        assert visited == [0] and len(device.writes) == 1

    def test_batch_larger_than_the_cache_is_written_once(self):
        fs = self._fs(2)
        m = fs.create_page_file("m", "mlog")
        self._write(m, 5)
        assert fs.cache.writeback_batches == 1
        assert fs.stats.writes["mlog"].pages == 5 and fs.stats.writes["mlog"].batches == 1
        assert fs.cache.dirty_pages == 0 and fs.cache.resident_pages == 2

    def test_pinned_cache_forces_the_batch_out(self):
        fs = self._fs(2)
        fs.cache.access("x", ids(0, 1))
        fs.cache.pin("x", ids(0, 1))
        self._write(fs.create_page_file("m", "mlog"), 2)
        assert fs.cache.rejected >= 1 and fs.cache.writeback_pages == 2
        assert fs.cache.dirty_pages == 0

    def test_clear_refuses_dirty_pages_and_flush_writes_in_order(self):
        fs = self._fs()
        a, b = fs.create_page_file("a", "mlog"), fs.create_page_file("b", "edgelog")
        self._write(a, 2)
        self._write(b, 1)
        with pytest.raises(StorageError):
            fs.cache.clear()
        t = TraceRecorder()
        fs.device.tracer = t
        assert fs.cache.flush() > 0
        assert [(e.fields["klass"], e.fields["pages"], e.fields["cause"]) for e in t.events] == [
            ("mlog", 2, "cut"), ("edgelog", 1, "cut"),
        ]
        assert fs.stats.writes["edgelog"].pages == 1
        fs.cache.clear()
        assert fs.cache.snapshot()["writeback_batches"] == 2

    def test_counters_are_overlay_state(self):
        fs = self._fs(2)
        self._write(fs.create_page_file("m", "mlog"), 3)
        state = fs.cache.overlay_state()
        assert (state["writeback_batches"], state["writeback_pages"]) == (1, 3)
        assert state["dropped_dirty_pages"] == 0
        fresh = PageCache(2)
        fresh.restore_overlay(state)
        assert fresh.snapshot()["writeback_pages"] == 3

    @pytest.mark.parametrize("leak", ["pin", "dirty"])
    def test_cut_refuses_a_pinned_or_dirty_cache(self, leak, monkeypatch):
        engine = MultiLogVC(
            small_rmat(n=256, m=4096, seed=3), DeltaPageRankProgram(),
            config=small_test_config().with_cache(cache_bytes=8 * 4096),
            options=EngineOptions(checkpoint_every=1, enable_precombine=False),
        )
        cache = engine.fs.cache
        if leak == "pin":  # a prefetch aborted without its unpin
            cache.access("leak", ids(0))
            cache.pin("leak", ids(0))
        else:  # a cut that skipped its flush
            monkeypatch.setattr(cache, "flush", lambda: 0.0)
        with pytest.raises(EngineError, match="cache not clean"):
            engine.run(max_supersteps=4)

    @pytest.mark.parametrize("every", [0, 2])
    def test_tiny_cache_never_charges_more_write_time(self, every):
        """An 8-page cache writes back at most what write-through wrote."""
        cfg = small_test_config().with_io_plan("off")
        options = EngineOptions(enable_precombine=False, checkpoint_every=every)
        runs = [
            repro.run(
                small_rmat(n=256, m=4096, seed=3), DeltaPageRankProgram(), config=c,
                options=options, max_supersteps=8,
            )
            for c in (cfg, cfg.with_cache(cache_bytes=8 * 4096))
        ]
        off, on = runs
        assert np.array_equal(off.values, on.values)
        assert on.metrics["cache.writeback_pages"] > 0
        assert on.stats.write_time_us <= off.stats.write_time_us
        for klass in WRITEBACK_KLASSES & set(off.stats.writes):
            assert on.stats.writes[klass].time_us <= off.stats.writes[klass].time_us
            assert on.stats.writes[klass].pages <= off.stats.writes[klass].pages

    # -- random sequences against a reference model -------------------------

    @given(
        capacity=st.integers(1, 6),
        steps=st.lists(
            st.tuples(st.sampled_from("wwarpic"), st.integers(0, 2), st.integers(1, 5)),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_sequences_keep_the_writeback_contract(self, capacity, steps):
        cache = PageCache(capacity)
        device = _RecordingDevice(cache)
        files = ["f0", "f1", "f2"]
        length = dict.fromkeys(files, 0)
        token_of = {}  # token -> (file, page, batch)
        pending, dropped, written = set(), set(), set()
        admitted = n_batches = 0
        for op, fi, n in steps:
            name, other = files[fi], files[(fi + 1) % 3]
            held = np.arange(length[name], dtype=np.int64)
            before = len(device.writes)
            if op == "w":  # a striped write over one or two files
                tokens, part_ids = [], []
                for fname, k in [(name, n)] + ([(other, 1)] if n > 2 else []):
                    pids = np.arange(length[fname], length[fname] + k, dtype=np.int64)
                    length[fname] += k
                    part_ids.append((fname, pids))
                    for p in pids.tolist():
                        tokens.append(len(token_of))
                        token_of[tokens[-1]] = (fname, p, n_batches)
                n_batches += 1
                assert cache.admit_dirty(part_ids, device, "mlog", np.array(tokens)) == len(tokens)
                admitted += len(tokens)
                pending |= set(tokens)
            elif op == "a":  # a read of existing pages
                cache.access(name, held[:n])
            elif op == "r":  # a prefetch admits pages clean
                cache.admit(name, held[-n:])
            elif op == "p":  # a pinned page survives a read elsewhere
                cache.pin(name, held[-1:])
                cache.access(other, ids(0))
                cache.unpin(name, held[-1:])
            elif op == "i":  # the log was consumed: truncate
                gone = {t for t in pending if token_of[t][0] == name}
                dropped |= gone
                pending -= gone
                cache.invalidate_file(name)
                length[name] = 0
            else:  # "c": a checkpoint cut
                cache.flush()
                cache.clear()
            if op != "c":  # every write-back outside a cut is an eviction's
                assert all(device.all_dirty[before:]), "a dirty victim beside a clean one"
            for klass, tokens in device.writes[before:]:
                assert klass == "mlog"
                batch = {token_of[t][2] for t in tokens}
                assert len(batch) == 1, "a write-back mixes batches"
                (b,) = batch
                # the whole still-dirty rest of the batch, each page once
                assert set(tokens) == {t for t in pending if token_of[t][2] == b}
                assert not set(tokens) & (written | dropped)
                written |= set(tokens)
                pending -= set(tokens)
            assert admitted == cache.writeback_pages + cache.dropped_dirty_pages + cache.dirty_pages
            assert cache.dirty_pages == len(pending)
            assert cache.writeback_pages == len(written)
            assert cache.dropped_dirty_pages == len(dropped)
            assert cache.writeback_batches == len(device.writes)
            assert all((token_of[t][0], token_of[t][1]) in cache for t in pending)
            assert cache.resident_pages <= capacity


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

    # -- every crash point under write-back ------------------------------

    @staticmethod
    def _sweep(graph, config, options, steps, kind):
        """Crash (or tear a write) at every device op (write op) of the
        run; each resumed run must be bit-identical to the uninterrupted one."""
        ops, baseline = count_device_ops(
            graph, DeltaPageRankProgram, config=config, options=options, max_supersteps=steps,
            tracer=TraceRecorder(),
        )
        total = ops if kind == "crash" else sum(c.batches for c in baseline.stats.writes.values())
        resumed = 0
        for point in range(total):
            report = crash_resume_experiment(
                graph, DeltaPageRankProgram, config=config, options=options,
                crash_after_ops=point, max_supersteps=steps, fault_kind=kind, baseline=baseline,
            )
            assert report.crashed, point
            if not report.no_checkpoint:
                assert report.ok, (point, report.describe(), report.trace_mismatches[:3])
                resumed += 1
        causes = {e.fields["cause"] for e in baseline.trace if e.kind == "writeback"}
        assert causes == {"evict", "cut"}
        return resumed

    @pytest.mark.parametrize("kind", ["crash", "torn"])
    def test_every_crash_point_under_writeback(self, kind):
        """PageRank without the send-side combine, so the multi-log
        flushes, over an 8-page cache: faults land on eviction
        write-backs, on the cut's flush and on everything between."""
        config = small_test_config().with_cache(cache_bytes=8 * 4096)
        options = EngineOptions(checkpoint_every=2, enable_precombine=False)
        graph = lambda: small_rmat(n=256, m=4096, seed=3)
        assert self._sweep(graph, config, options, 6, kind) > 20

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["crash", "torn"])
    def test_every_crash_point_under_writeback_large(self, kind):
        config = small_test_config().with_cache(cache_bytes=8 * 4096).with_io_plan(
            "coalesce+readahead"
        )
        options = EngineOptions(checkpoint_every=2, enable_precombine=False, enable_edgelog=True)
        graph = lambda: small_rmat(n=512, m=4096, seed=3)
        assert self._sweep(graph, config, options, 10, kind) > 50
