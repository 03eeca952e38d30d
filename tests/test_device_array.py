"""Multi-SSD device array (DESIGN.md §14): cross-device conformance.

The array's contract is the worker-lane overlay's (DESIGN.md §11) applied
one level down: canonical accounting -- values, SuperstepRecords,
SSDStats, semantic traces -- is bit-identical for any ``num_devices``
at any worker count; the array's win lives entirely in the ``device.*``
overlay (per-device busy clocks, serial-vs-array time) reported via the
``device_stats`` trace kind.  These tests pin that contract for every
engine, for crash/resume, and for the placement edge cases.
"""

import numpy as np
import pytest

import repro
from repro.algorithms import BFSProgram, DeltaPageRankProgram, WCCProgram
from repro.cli import main as cli_main
from repro.config import ConfigError, SimConfig, small_test_config
from repro.core.engine import MultiLogVC
from repro.errors import InjectedFaultError, RecoveryError, SimulatedCrashError, StorageError
from repro.graph.datasets import small_rmat
from repro.graph.csr import CSRGraph
from repro.obs import MetricsRegistry, Overlay, TraceRecorder
from repro.options import EngineOptions
from repro.recovery import CheckpointManager
from repro.recovery.validate import count_device_ops, crash_resume_experiment
from repro.ssd import DeviceArray, SimFS, SimulatedSSD
from repro.ssd.faults import FaultPlan, FaultRule
from repro.verify.fuzzer import ConformanceCase, run_case

GRAPH = lambda: small_rmat(n=256, m=2048, seed=3)

DEVICE_COUNTS = (1, 2, 4)
WORKER_COUNTS = (1, 4)

ENGINES_UNDER_TEST = ("multilogvc", "graphchi", "grafboost", "gridgraph", "xstream", "oracle")


def run_engine(engine, devices, workers=1, placement="affinity", steps=8, tracer=None):
    cfg = small_test_config().with_devices(devices, placement)
    if engine == "multilogvc":
        cfg = cfg.with_workers(workers)
    return repro.run(
        GRAPH(), DeltaPageRankProgram(), engine=engine, config=cfg,
        tracer=tracer, max_supersteps=steps, seed=0,
    )


class TestCrossDeviceParity:
    """Bit-exact values AND records at any (num_devices, num_workers)."""

    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    def test_parity_across_device_counts(self, engine):
        base = run_engine(engine, 1)
        base_vals = np.nan_to_num(base.values, nan=-1.0, posinf=-2.0)
        for devices in DEVICE_COUNTS[1:]:
            workers = WORKER_COUNTS if engine == "multilogvc" else (1,)
            for w in workers:
                res = run_engine(engine, devices, workers=w)
                vals = np.nan_to_num(res.values, nan=-1.0, posinf=-2.0)
                assert np.array_equal(base_vals, vals), (engine, devices, w)
                assert [r.to_dict() for r in base.supersteps] == [
                    r.to_dict() for r in res.supersteps
                ], (engine, devices, w)
                assert base.stats.to_dict() == res.stats.to_dict(), (engine, devices, w)

    @pytest.mark.parametrize("placement", ["stripe", "affinity"])
    def test_parity_across_placements(self, placement):
        base = run_engine("multilogvc", 1)
        res = run_engine("multilogvc", 4, placement=placement)
        assert base.values.tobytes() == res.values.tobytes()
        assert base.stats.to_dict() == res.stats.to_dict()

    def test_semantic_trace_identical_across_devices(self):
        ta, tb = TraceRecorder(), TraceRecorder()
        run_engine("multilogvc", 1, tracer=ta)
        run_engine("multilogvc", 4, tracer=tb)
        strip = lambda evs: [e.to_dict() for e in evs if e.kind != "device_stats"]
        assert strip(ta.events) == strip(tb.events)


class TestOverlay:
    def test_single_device_is_plain_ssd(self):
        # explicit with_devices(1): the suite may run under REPRO_DEVICES=4
        fs = SimFS(small_test_config().with_devices(1))
        assert type(fs.device) is SimulatedSSD
        assert fs.device.num_devices == 1
        assert not isinstance(fs.device, Overlay)

    def test_array_constructed_above_one(self):
        fs = SimFS(small_test_config().with_devices(4))
        assert isinstance(fs.device, DeviceArray)
        assert fs.device.num_devices == 4

    def test_serial_clock_matches_canonical_total(self):
        cfg = small_test_config().with_devices(4, "stripe")
        eng = MultiLogVC(GRAPH(), DeltaPageRankProgram(), cfg)
        res = eng.run(8, seed=0)
        snap = eng.fs.device.snapshot()
        # serial_us accumulates every charge's canonical time; the run
        # additionally pays the graph-image writes before run() starts.
        assert snap["serial_us"] >= res.stats.to_dict()["total_time_us"]
        assert snap["saved_us"] >= 0.0
        assert snap["array_us"] <= snap["serial_us"]
        assert len(snap["busy_us"]) == 4
        assert all(b >= 0.0 for b in snap["busy_us"])

    def test_device_stats_emitted_per_superstep(self):
        tr = TraceRecorder()
        res = run_engine("multilogvc", 4, tracer=tr)
        dev_events = [e for e in tr.events if e.kind == "device_stats"]
        assert len(dev_events) == len(res.supersteps)
        for ev in dev_events:
            assert ev.fields["devices"] == 4
            assert ev.fields["placement"] == "affinity"
        # run-cumulative: counters never decrease
        for a, b in zip(dev_events, dev_events[1:]):
            for k in ("ops", "serial_us", "array_us", "saved_us"):
                assert b.fields[k] >= a.fields[k]

    def test_no_device_stats_on_single_device(self):
        tr = TraceRecorder()
        run_engine("multilogvc", 1, tracer=tr)
        assert not [e for e in tr.events if e.kind == "device_stats"]

    def test_device_gauges_registered(self):
        reg = MetricsRegistry()
        cfg = small_test_config().with_devices(2)
        MultiLogVC(GRAPH(), DeltaPageRankProgram(), cfg, metrics=reg).run(4, seed=0)
        snap = reg.snapshot()
        assert snap["device.devices"] == 2
        assert snap["device.ops"] > 0
        assert snap["device.serial_us"] >= snap["device.array_us"]
        assert snap["device.saved_us"] >= 0.0

    def test_stripe_balances_busy_clocks(self):
        # Big enough that the log still spills with the sends reduced
        # before it (on GRAPH() the whole run then fits the buffer and
        # two devices' worth of CSR pages is all the traffic there is).
        cfg = small_test_config().with_devices(4, "stripe")
        eng = MultiLogVC(small_rmat(n=1024, m=16384, seed=3), DeltaPageRankProgram(), cfg)
        res = eng.run(8, seed=0)
        assert res.pages_written >= 4 * cfg.ssd.channels  # a stripe cycle per device
        busy = eng.fs.device.device_busy_us
        assert (busy > 0).sum() == 4  # every device saw traffic


class TestPlacement:
    def test_stripe_round_robin_by_intersperse_cycle(self):
        dev = DeviceArray(small_test_config(channels=4).with_devices(3, "stripe"))
        pages = np.arange(12, dtype=np.int64)
        # one full channel cycle (4 pages) per device, offset rotates base
        assert list(dev.place(pages, 0)) == [0] * 4 + [1] * 4 + [2] * 4
        assert list(dev.place(pages, 1)) == [1] * 4 + [2] * 4 + [0] * 4

    def test_affinity_pins_whole_file(self):
        dev = DeviceArray(small_test_config().with_devices(3, "affinity"))
        pages = np.arange(40, dtype=np.int64)
        assert set(dev.place(pages, 2, affinity=7)) == {7 % 3}

    def test_affinity_hint_inert_under_stripe(self):
        dev = DeviceArray(small_test_config(channels=4).with_devices(2, "stripe"))
        pages = np.arange(8, dtype=np.int64)
        assert np.array_equal(dev.place(pages, 0, affinity=1), dev.place(pages, 0))

    def test_place_is_pure_of_recorded_state(self):
        # adopt-at-recorded-offset must reproduce placement exactly
        dev = DeviceArray(small_test_config().with_devices(4, "stripe"))
        pages = np.arange(100, dtype=np.int64)
        a = dev.place(pages, 3)
        b = dev.place(pages, 3)
        assert np.array_equal(a, b)


class TestStripingEdgeCases:
    def test_empty_graph(self):
        g = CSRGraph.from_edges(8, np.empty(0, np.int64), np.empty(0, np.int64))
        cfg = small_test_config().with_devices(3)
        res = repro.run(g, WCCProgram(), config=cfg, max_supersteps=4, seed=0)
        base = repro.run(g, WCCProgram(), config=small_test_config(), max_supersteps=4, seed=0)
        assert np.array_equal(res.values, base.values)

    def test_single_interval(self):
        cfg = small_test_config().with_devices(4, "affinity")
        opts = EngineOptions(min_intervals=1)
        res = MultiLogVC(GRAPH(), BFSProgram(0), cfg, options=opts).run(8, seed=0)
        base = MultiLogVC(GRAPH(), BFSProgram(0), small_test_config(), options=opts).run(8, seed=0)
        assert np.array_equal(res.values, base.values)
        assert res.stats.to_dict() == base.stats.to_dict()

    def test_page_count_not_divisible_by_device_count(self):
        # D=3 never divides the per-file page counts evenly; parity and
        # full attribution must hold regardless.
        base = run_engine("multilogvc", 1)
        res = run_engine("multilogvc", 3, placement="stripe")
        assert base.values.tobytes() == res.values.tobytes()
        assert base.stats.to_dict() == res.stats.to_dict()

    def test_fault_plan_armed_on_one_device_only(self):
        cfg = small_test_config().with_devices(4, "affinity")
        fs = SimFS(cfg)
        f0 = fs.create_page_file("log0", "mlog", affinity=0)
        f2 = fs.create_page_file("log2", "mlog", affinity=2)
        f0.append_page(b"a")
        f2.append_page(b"b")
        plan = FaultPlan([FaultRule(op="read", kind="error", max_fires=0)])
        fs.device.install_faults(plan, device=2)
        # reads that land only on device 0 are invisible to the plan
        f0.read_pages(np.array([0], dtype=np.int64))
        assert plan.ops_seen == 0
        with pytest.raises(InjectedFaultError):
            f2.read_pages(np.array([0], dtype=np.int64))
        assert plan.ops_seen == 1

    def test_fault_device_out_of_range_rejected(self):
        fs = SimFS(small_test_config().with_devices(2))
        with pytest.raises(StorageError):
            fs.device.install_faults(FaultPlan([]), device=2)

    def test_unscoped_plan_sees_every_device(self):
        cfg = small_test_config().with_devices(4, "affinity")
        fs = SimFS(cfg)
        f3 = fs.create_page_file("log3", "mlog", affinity=3)
        f3.append_page(b"x")
        plan = FaultPlan([])
        fs.device.install_faults(plan)
        f3.read_pages(np.array([0], dtype=np.int64))
        assert plan.ops_seen == 1

    def test_cache_invalidation_on_truncated_device(self):
        cfg = small_test_config().with_devices(4, "affinity").with_cache()
        fs = SimFS(cfg)
        f = fs.create_page_file("log", "mlog", affinity=2)
        f.append_page(b"payload")
        page = np.array([0], dtype=np.int64)
        f.read_pages(page)  # hit: write admission cached it
        assert fs.cache.hits == 1
        f.truncate()  # drops the device-2 pages and their cache entries
        snap = fs.cache.snapshot()
        assert snap["invalidations"] == 1
        assert snap["resident_pages"] == 0
        f.append_page(b"new payload")
        payloads = f.read_pages(page)[0]  # stale entry must not satisfy this
        assert payloads[0] == b"new payload"
        assert fs.cache.insertions == 2


class TestCrashResume:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_crash_resume_exact_on_array(self, workers):
        graph = lambda: small_rmat(n=256, m=2048, seed=3)
        cfg = small_test_config().with_devices(4).with_workers(workers)
        options = EngineOptions(checkpoint_every=2, min_intervals=4)
        total_ops, _ = count_device_ops(
            graph, DeltaPageRankProgram, config=cfg, options=options, max_supersteps=8
        )
        resumed = 0
        for point in (total_ops // 3, total_ops // 2, int(total_ops * 0.8)):
            report = crash_resume_experiment(
                graph, DeltaPageRankProgram,
                config=cfg, options=options,
                crash_after_ops=point, max_supersteps=8,
            )
            if report.crashed and not report.no_checkpoint:
                assert report.ok, report.describe()
                resumed += 1
        assert resumed >= 1

    def test_checkpoint_carries_overlay_state(self):
        cfg = small_test_config().with_devices(4)
        eng = MultiLogVC(
            GRAPH(), DeltaPageRankProgram(), cfg,
            options=EngineOptions(checkpoint_every=2),
        )
        eng.run(6, seed=0)
        ckpt = CheckpointManager.load_latest(eng.fs)
        state = ckpt.overlays["device_stats"]
        assert state["devices"] == 4
        assert state["array_us"] > 0
        assert len(state["busy_us"]) == 4
        # The op count and the serial time are views of the stats the
        # checkpoint carries anyway.
        assert not state.keys() & {"ops", "serial_us", "saved_us"}

    def test_single_device_checkpoint_has_no_overlay(self):
        eng = MultiLogVC(
            GRAPH(), DeltaPageRankProgram(), small_test_config().with_devices(1),
            options=EngineOptions(checkpoint_every=2),
        )
        eng.run(6, seed=0)
        ckpt = CheckpointManager.load_latest(eng.fs)
        assert "device_stats" not in ckpt.overlays

    def test_resumed_overlay_continues_clocks(self):
        graph = lambda: small_rmat(n=256, m=2048, seed=3)
        cfg = small_test_config().with_devices(4)
        options = EngineOptions(checkpoint_every=2)
        base_eng = MultiLogVC(graph(), DeltaPageRankProgram(), cfg, options=options)
        base_eng.run(8, seed=0)
        base_snap = base_eng.fs.device.snapshot()

        total_ops, _ = count_device_ops(
            graph, DeltaPageRankProgram, config=cfg, options=options, max_supersteps=8
        )
        crash_eng = MultiLogVC(graph(), DeltaPageRankProgram(), cfg, options=options)
        crash_eng.fs.device.install_faults(
            FaultPlan.crash_after(int(total_ops * 0.8), seed=0)
        )
        with pytest.raises(SimulatedCrashError):
            crash_eng.run(8, seed=0)
        ckpt = CheckpointManager.load_latest(crash_eng.fs)
        reg = MetricsRegistry()
        resume_eng = MultiLogVC(graph(), DeltaPageRankProgram(), cfg, options=options, metrics=reg)
        resume_eng.run(8, seed=0, resume_from=ckpt)
        # per-device clocks continue from the cut and end exactly where
        # the uninterrupted run's do
        assert resume_eng.fs.device.snapshot() == base_snap
        assert base_snap["serial_us"] > ckpt.stats.total_time_us
        # the serial clock and the op count are the ledger's, after a resume too
        stats, snap = resume_eng.fs.stats, reg.snapshot()
        assert snap["device.serial_us"] == stats.total_time_us
        assert snap["device.ops"] == sum(
            c.batches for side in (stats.reads, stats.writes) for c in side.values()
        )

    @pytest.mark.parametrize("placement", ["affinity", "stripe"])
    def test_resumed_run_allocates_channels_like_the_uninterrupted_one(self, placement):
        # A checkpoint records the allocator only after creating both of
        # its files, so every file created past the cut -- edge-log
        # generations, later checkpoints -- lands on the same channel
        # offset (and, striped, the same device) as without the crash.
        cfg = small_test_config().with_devices(4, placement)
        options = EngineOptions(checkpoint_every=2, min_intervals=4)
        base_eng = MultiLogVC(GRAPH(), DeltaPageRankProgram(), cfg, options=options)
        base_eng.run(8, seed=0)
        total_ops, _ = count_device_ops(
            GRAPH, DeltaPageRankProgram, config=cfg, options=options, max_supersteps=8
        )
        crash_eng = MultiLogVC(GRAPH(), DeltaPageRankProgram(), cfg, options=options)
        crash_eng.fs.device.install_faults(FaultPlan.crash_after(total_ops // 2))
        with pytest.raises(SimulatedCrashError):
            crash_eng.run(8, seed=0)
        ckpt = CheckpointManager.load_latest(crash_eng.fs)
        resume_eng = MultiLogVC(GRAPH(), DeltaPageRankProgram(), cfg, options=options)
        resume_eng.run(8, seed=0, resume_from=ckpt)
        offsets = lambda fs: {name: fs.get(name).channel_offset for name in fs.names()}
        base, resumed = offsets(base_eng.fs), offsets(resume_eng.fs)
        common = sorted(base.keys() & resumed.keys())
        assert any(name.startswith("elog.") for name in common)
        assert [base[n] for n in common] == [resumed[n] for n in common]
        assert resume_eng.fs.next_channel_offset == base_eng.fs.next_channel_offset

    def test_overlay_state_round_trip(self):
        cfg = small_test_config().with_devices(3, "stripe")
        dev = DeviceArray(cfg)
        dev.write_batch(np.arange(12) % 4, "mlog", devices=(np.arange(12) // 4) % 3)
        state = dev.overlay_state()
        fresh = DeviceArray(cfg)
        fresh.stats = dev.stats.snapshot()  # as a resumed engine restores it
        fresh.restore_overlay(state)
        assert fresh.snapshot() == dev.snapshot()

    def test_restore_rejects_a_different_device_count(self):
        dev = DeviceArray(small_test_config().with_devices(3, "stripe"))
        dev.write_batch(np.arange(12) % 4, "mlog", devices=(np.arange(12) // 4) % 3)
        wider = DeviceArray(small_test_config().with_devices(4, "stripe"))
        with pytest.raises(RecoveryError, match="3 device clocks.*4 devices"):
            wider.restore_overlay(dev.overlay_state())
        assert wider.snapshot()["busy_us"] == [0.0] * 4


class TestKnobs:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(num_devices=0).validate()
        with pytest.raises(ConfigError):
            SimConfig(placement="raid5").validate()

    def test_with_devices_helper(self):
        cfg = SimConfig().with_devices(4, "stripe")
        assert cfg.num_devices == 4 and cfg.placement == "stripe"
        # partial update keeps the other knob
        assert cfg.with_devices(placement="affinity").num_devices == 4

    def test_config_builds_the_engine_device_array(self):
        eng = MultiLogVC(
            GRAPH(), DeltaPageRankProgram(), small_test_config().with_devices(2, "stripe")
        )
        assert isinstance(eng.fs.device, DeviceArray)
        assert eng.fs.device.num_devices == 2
        assert eng.fs.device.placement == "stripe"


class TestCLI:
    def test_devices_conflict_with_oracle(self, capsys):
        assert cli_main(["compute", "pagerank", "--engine", "oracle", "--devices", "2"]) == 2
        assert "no simulated I/O" in capsys.readouterr().err

    def test_placement_alone_also_conflicts_with_oracle(self, capsys):
        assert (
            cli_main(["compute", "pagerank", "--engine", "oracle", "--placement", "stripe"]) == 2
        )

    def test_devices_flag_runs(self, capsys):
        assert (
            cli_main(
                ["compute", "pagerank", "--devices", "4", "--placement", "stripe",
                 "--max-supersteps", "4"]
            )
            == 0
        )
        assert "multilogvc/pagerank" in capsys.readouterr().out

    def test_env_precedence_over_default(self, monkeypatch):
        # REPRO_DEVICES drives the SimConfig default the CLI builds on
        monkeypatch.setenv("REPRO_DEVICES", "4")
        assert SimConfig().num_devices == 4
        assert SimConfig(num_devices=2).num_devices == 2  # explicit wins


class TestFuzzerDimension:
    def test_device_case_runs_clean(self):
        case = ConformanceCase(
            case_id="dev-handcrafted",
            engine="multilogvc",
            program="pagerank",
            graph={"kind": "rmat", "n": 64, "m": 256, "seed": 5},
            prog_params={},
            options={},
            config={"num_devices": 4, "placement": "stripe", "channels": 4},
            max_supersteps=6,
        )
        outcome = run_case(case)
        assert outcome.ok, (outcome.error, outcome.mismatches)

    def test_generated_cases_include_device_dimension(self):
        from repro.verify.fuzzer import generate_case

        seen = set()
        for i in range(60):
            case = generate_case(123, i)
            seen.add(case.config.get("num_devices", 1))
        assert seen - {1}, "device dimension never fired in 60 cases"
