"""Simulated worker lanes (DESIGN.md §11) and the API v1 surface that
rode along with them: ``repro.engines()`` capability introspection, the
options validation matrix, and the lane-count bit-exactness contract.
"""

import dataclasses
import threading

import numpy as np
import pytest

import repro
from repro import ENGINES, EngineError, EngineInfo, engines
from repro.algorithms import BFSProgram, DeltaPageRankProgram, MISProgram, SSSPProgram
from repro.config import STACK_KNOBS, ConfigError, SimConfig, small_test_config
from repro.core.engine import MultiLogVC
from repro.core.pipeline import GroupPipeline, PreparedGroup
from repro.core.results import ComputeMeter
from repro.core.scheduler import ParallelGroupScheduler
from repro.graph.datasets import small_rmat
from repro.graph.partition import VertexIntervals
from repro.obs import TraceRecorder
from repro.options import RELEVANT_OPTIONS, EngineOptions
from repro.recovery.validate import count_device_ops, crash_resume_experiment
from repro.ssd.device import SimulatedSSD, merge_overlap

GRAPH = lambda: small_rmat(n=256, m=2048, seed=3)

WORKER_COUNTS = (1, 2, 4, 8)

PROGRAMS = {
    "pagerank": lambda: DeltaPageRankProgram(),
    "bfs": lambda: BFSProgram(0),
    "mis": lambda: MISProgram(),
}


def run_with_workers(prog_factory, workers, steps=8, **opt_kwargs):
    cfg = small_test_config().with_workers(workers)
    tracer = TraceRecorder()
    opts = EngineOptions(min_intervals=4, **opt_kwargs)
    res = MultiLogVC(GRAPH(), prog_factory(), cfg, options=opts, tracer=tracer).run(
        steps, seed=0
    )
    return res, tracer.events


def strip_parallel(events):
    """Trace minus the worker-count-dependent ``parallel_stats`` events."""
    return [e.to_dict() for e in events if e.kind != "parallel_stats"]


class TestWorkerCountInvariance:
    """Bit-exact values/records/stats/traces at any worker count."""

    @pytest.mark.parametrize("alg", sorted(PROGRAMS))
    def test_parity_across_worker_counts(self, alg):
        base, base_ev = run_with_workers(PROGRAMS[alg], 1)
        for w in WORKER_COUNTS[1:]:
            res, ev = run_with_workers(PROGRAMS[alg], w)
            assert np.array_equal(base.values, res.values), f"values differ at w={w}"
            assert [r.to_dict() for r in base.supersteps] == [
                r.to_dict() for r in res.supersteps
            ], f"records differ at w={w}"
            assert base.stats == res.stats, f"stats differ at w={w}"
            assert strip_parallel(base_ev) == strip_parallel(ev), f"trace differs at w={w}"

    def test_parity_with_checkpointing(self):
        base, _ = run_with_workers(PROGRAMS["pagerank"], 1, checkpoint_every=2)
        for w in (2, 4):
            res, _ = run_with_workers(PROGRAMS["pagerank"], w, checkpoint_every=2)
            assert np.array_equal(base.values, res.values)
            assert base.stats == res.stats

    def test_parity_without_edgelog_and_fusing(self):
        base, base_ev = run_with_workers(
            PROGRAMS["bfs"], 1, enable_edgelog=False, enable_fusing=False
        )
        res, ev = run_with_workers(
            PROGRAMS["bfs"], 4, enable_edgelog=False, enable_fusing=False
        )
        assert np.array_equal(base.values, res.values)
        assert strip_parallel(base_ev) == strip_parallel(ev)

    def test_crash_resume_at_parallel_worker_count(self):
        # The checkpoint carries the lane overlay's counters, so the
        # resumed run's parallel_stats reconcile too.
        cfg = small_test_config().with_workers(4)
        options = EngineOptions(checkpoint_every=2)
        total_ops, _ = count_device_ops(
            GRAPH, PROGRAMS["pagerank"], config=cfg, options=options, max_supersteps=8
        )
        report = crash_resume_experiment(
            GRAPH,
            PROGRAMS["pagerank"],
            config=cfg,
            options=options,
            crash_after_ops=int(total_ops * 0.6),
            max_supersteps=8,
        )
        assert report.crashed and not report.no_checkpoint
        assert report.ok, report.describe()


class TestParallelStatsTrace:
    def test_emitted_only_when_parallel(self):
        _, ev1 = run_with_workers(PROGRAMS["pagerank"], 1)
        _, ev4 = run_with_workers(PROGRAMS["pagerank"], 4)
        assert not [e for e in ev1 if e.kind == "parallel_stats"]
        ps = [e for e in ev4 if e.kind == "parallel_stats"]
        assert ps, "workers=4 run emitted no parallel_stats"
        supersteps = [e for e in ev4 if e.kind == "superstep_end"]
        assert len(ps) == len(supersteps)

    def test_counters_monotonic_and_saving_positive(self):
        _, ev = run_with_workers(PROGRAMS["pagerank"], 4, enable_fusing=False)
        ps = [e.fields for e in ev if e.kind == "parallel_stats"]
        for key in ("groups", "spec_us", "saved_us", "makespan_us"):
            series = [p[key] for p in ps]
            assert series == sorted(series), f"{key} not monotonic: {series}"
        assert all(p["workers"] == 4 for p in ps)
        # Many small unfused groups must overlap into a real saving.
        assert ps[-1]["saved_us"] > 0
        assert ps[-1]["makespan_us"] > 0

    @pytest.mark.parametrize("stack", ["fault_plan", "cache"])
    def test_lanes_under_a_fault_plan_or_a_cache(self, stack):
        """Neither an armed fault plan nor a page cache turns the lanes
        off, and lanes change nothing but the overlay."""
        from repro.ssd import FaultPlan
        from repro.ssd.filesystem import SimFS

        runs = {}
        for workers in (1, 4):
            cfg = small_test_config().with_workers(workers)
            if stack == "cache":
                cfg = cfg.with_cache("clock", 8 * cfg.ssd.page_size)
            fs = SimFS(cfg)
            if stack == "fault_plan":
                fs.device.install_faults(FaultPlan.crash_after(10**9))  # armed, never fires
            tracer = TraceRecorder()
            res = MultiLogVC(
                GRAPH(), DeltaPageRankProgram(), cfg, fs=fs,
                options=EngineOptions(min_intervals=4), tracer=tracer,
            ).run(6, seed=0)
            runs[workers] = res, tracer.events
        (base, base_ev), (res, ev) = runs[1], runs[4]
        assert not [e for e in base_ev if e.kind == "parallel_stats"]
        ps = [e for e in ev if e.kind == "parallel_stats"]
        assert len(ps) == res.n_supersteps > 0
        assert base.values.tobytes() == res.values.tobytes()
        assert [r.to_dict() for r in base.supersteps] == [r.to_dict() for r in res.supersteps]
        assert base.stats.to_dict() == res.stats.to_dict()
        assert strip_parallel(base_ev) == strip_parallel(ev)


class TestSchedulerUnits:
    def test_merge_overlap(self):
        lanes = np.array([10.0, 30.0, 20.0])
        busy = np.array([5.0, 25.0])
        assert merge_overlap(lanes, busy) == 30.0
        assert merge_overlap(np.empty(0), np.empty(0)) == 0.0
        assert merge_overlap(np.array([1.0]), np.array([9.0])) == 9.0

    def test_iterator_prepares_in_order_on_demand_and_deferred(self):
        # Preparation is deferred until the consumer asks for the group.
        device = SimulatedSSD(small_test_config())
        prepared_log = []

        def prepare(group):
            prepared_log.append(list(group))
            device.read_batch(np.array([0, 1]), "csr_col")
            return PreparedGroup(list(group), None, np.empty(0, np.int64))

        it = GroupPipeline().run([[i] for i in range(5)], prepare)
        assert prepared_log == []  # nothing runs ahead of the consumer
        for i, prepared in enumerate(it):
            assert prepared.interval_ids == [i]
            assert prepared_log == [[j] for j in range(i + 1)]
        assert device.stats.pages_read == 10

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prepare_reads_are_in_the_ledger_when_the_group_is_yielded(self, workers):
        device = SimulatedSSD(small_test_config())
        meter = ComputeMeter(small_test_config().compute)
        pipeline = (
            ParallelGroupScheduler(device, workers, meter) if workers > 1 else GroupPipeline()
        )

        def prepare(group):
            device.read_batch(np.array([0, 1]), "csr_col")
            return PreparedGroup(list(group), None, np.empty(0, np.int64))

        for i, _ in enumerate(pipeline.run([[0], [1], [2]], prepare)):
            assert device.stats.pages_read == 2 * (i + 1)
            assert device.stats.reads["csr_col"].batches == i + 1

    def test_lane_iterator_notes_each_group_when_the_next_is_asked_for(self):
        device = SimulatedSSD(small_test_config())
        meter = ComputeMeter(small_test_config().compute)
        sched = ParallelGroupScheduler(device, 2, meter)
        prepare = lambda g: PreparedGroup(list(g), None, np.empty(0, np.int64))
        noted = []
        for prepared in sched.run([[0], [1], [2]], prepare):
            noted.append(sched.groups)
            meter.time_us += 10.0  # the consumer's compute for this group
            if prepared.interval_ids == [1]:
                continue  # an early continue still gets the group noted
        assert noted == [0, 1, 2]
        assert sched.groups == 3
        # Lanes: groups 0 and 2 on lane 0, group 1 on lane 1.
        assert list(sched._lane_us) == [20.0, 10.0]

    def test_scheduler_rejects_bad_worker_count(self):
        device = SimulatedSSD(small_test_config())
        with pytest.raises(ValueError):
            ParallelGroupScheduler(device, 0, ComputeMeter(small_test_config().compute))

    def test_lane_iterator_takes_io_and_channel_pressure_from_the_ledger(self):
        cfg = small_test_config()
        device = SimulatedSSD(cfg)
        sched = ParallelGroupScheduler(device, 2, ComputeMeter(cfg.compute))
        reads = {0: [0, 0, 1], 1: [1]}

        def prepare(group):
            device.write_batch(np.array([0]), "mlog")  # preparation I/O too
            device.read_batch(np.array(reads[group[0]]), "csr_col")
            return PreparedGroup(list(group), None, np.empty(0, np.int64))

        for _ in sched.run([[0], [1]], prepare):
            device.write_batch(np.array([0, 1]), "mlog")  # the consumer's: not noted
        ssd = cfg.ssd
        write = ssd.batch_overhead_us + ssd.write_latency_us
        assert list(sched._lane_us) == [
            write + ssd.batch_overhead_us + 2 * ssd.read_latency_us,
            write + ssd.batch_overhead_us + ssd.read_latency_us,
        ]
        assert list(sched._busy_us[:2]) == [2 * ssd.read_latency_us, 2 * ssd.read_latency_us]
        assert not sched._busy_us[2:].any()

    def test_overlap_model_counters_monotonic(self):
        device = SimulatedSSD(small_test_config())
        model = ParallelGroupScheduler(device, 2, ComputeMeter(small_test_config().compute))
        no_reads = np.zeros(device.channels, dtype=np.int64)
        model.note_group(0, 100.0, no_reads, 10.0)
        model.note_group(1, 40.0, no_reads, 5.0)
        saved = model.end_superstep(140.0, 15.0)
        snap1 = model.snapshot()
        assert saved > 0  # two lanes overlap: spec 155 vs bound 110
        assert snap1["groups"] == 2
        model.note_group(0, 50.0, no_reads, 5.0)
        model.end_superstep(50.0, 5.0)
        snap2 = model.snapshot()
        for key in ("groups", "spec_us", "saved_us", "makespan_us"):
            assert snap2[key] >= snap1[key]


def test_no_host_threads():
    """num_workers is a simulated lane count: no host thread is started."""
    before = threading.active_count()
    seen = []
    res = MultiLogVC(
        GRAPH(), DeltaPageRankProgram(), small_test_config().with_workers(4),
        options=EngineOptions(min_intervals=4),
        progress=lambda rec: seen.append(threading.active_count()),
    ).run(6, seed=0)
    assert len(seen) == res.n_supersteps > 0
    assert set(seen) == {before}


#: ``parallel_stats`` after the last superstep of an 8-step unfused
#: rmat256 run.  The lane model reproduced the speculate/commit thread
#: pool's overlap accounting to the bit (7979046, its last commit); the
#: constants were re-recorded once since, when every sort became a
#: natural merge, which moves each group's compute and so each lane's
#: time.  ``enable_precombine`` off is the paper's post-read combine;
#: the send-side combine moves every charge, so it has its own
#: constants beside them, re-recorded when the send-side reduce's
#: streams became charged the cheaper of a merge and a counting sort.
#: The raw-send constants were re-recorded when a write-through
#: multi-log eviction began freeing whole stripes: the groups and every
#: non-I/O record field stayed, the lanes' storage time moved.
#: The ``sssp`` rows of both tables were re-recorded when SSSP began
#: reading edge pages only for the vertices its update improves
#: (``loads_edges``): final values bytes and every superstep's
#: ``active_vertices``, ``updates_processed``, ``messages_sent`` and
#: ``edges_scanned`` were checked equal, and compute time is unchanged;
#: 3 fewer pages read take 85 us off the lanes' storage time.
GOLDEN_PARALLEL_STATS = {
    ("pagerank", 2): (40, 9095.664460550497, 4046.3668379502833, 8729.297622600212),
    ("pagerank", 4): (40, 9095.664460550497, 5633.436418397993, 7142.228042152503),
    ("sssp", 2): (36, 10078.18510775601, 3896.7076994992126, 8251.477408256796),
    ("sssp", 4): (36, 10078.18510775601, 5914.088139465476, 6234.096968290534),
}
GOLDEN_PARALLEL_STATS_PRECOMBINE = {
    ("pagerank", 2): (40, 7202.891400325987, 2931.7419784529457, 6111.149421873042),
    ("pagerank", 4): (40, 7202.891400325987, 4392.635056457401, 4650.256343868587),
    ("sssp", 2): (36, 9509.376642612819, 3702.6406885368924, 7416.735954075928),
    ("sssp", 4): (36, 9509.37664261282, 5547.979895687339, 5571.396746925479),
}


def _last_parallel_stats(alg, workers, precombine):
    weighted = alg == "sssp"
    prog = SSSPProgram(0) if weighted else DeltaPageRankProgram()
    tracer = TraceRecorder()
    opts = EngineOptions(min_intervals=4, enable_fusing=False, enable_precombine=precombine)
    MultiLogVC(
        small_rmat(n=256, m=2048, seed=3, weighted=weighted), prog,
        small_test_config().with_workers(workers), options=opts, tracer=tracer,
    ).run(8, seed=0)
    last = [e.fields for e in tracer.events if e.kind == "parallel_stats"][-1]
    return tuple(last[k] for k in ("groups", "spec_us", "saved_us", "makespan_us"))


@pytest.mark.parametrize("alg,workers", sorted(GOLDEN_PARALLEL_STATS))
def test_parallel_stats_golden(alg, workers):
    assert _last_parallel_stats(alg, workers, False) == GOLDEN_PARALLEL_STATS[(alg, workers)]


@pytest.mark.parametrize("alg,workers", sorted(GOLDEN_PARALLEL_STATS))
def test_parallel_stats_golden_precombine(alg, workers):
    got = _last_parallel_stats(alg, workers, True)
    assert got == GOLDEN_PARALLEL_STATS_PRECOMBINE[(alg, workers)]


class TestNumWorkersKnob:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(num_workers=0).validate()
        assert small_test_config().with_workers(3).num_workers == 3

    def test_config_sets_the_lane_count(self):
        res = repro.run(
            GRAPH(),
            DeltaPageRankProgram(),
            config=small_test_config().with_workers(2),
            max_supersteps=4,
        )
        assert res.metrics is not None
        assert res.metrics["scheduler.workers"] == 2


class TestEnginesIntrospection:
    def test_consistent_with_registry(self):
        info = engines()
        assert set(info) == set(ENGINES)
        for name, i in info.items():
            assert isinstance(i, EngineInfo)
            assert i.options == RELEVANT_OPTIONS[name]

    def test_capability_derivations(self):
        info = engines()
        assert info["multilogvc"].supports_resume
        assert info["multilogvc"].supports_checkpoint
        assert not info["multilogvc"].in_memory
        assert [n for n, i in info.items() if i.in_memory] == ["oracle"]
        for name in ("graphchi", "grafboost", "gridgraph", "xstream", "oracle"):
            assert not info[name].supports_resume
            assert not info[name].supports_checkpoint

    def test_run_uses_capabilities_for_resume(self):
        from repro.recovery import CheckpointData

        fake = object.__new__(CheckpointData)
        for name, i in engines().items():
            if not i.supports_resume:
                with pytest.raises(EngineError, match="does not support resume_from"):
                    repro.run(
                        GRAPH(), DeltaPageRankProgram(), engine=name, resume_from=fake
                    )


#: One non-default sample value per EngineOptions field, for the matrix.
NON_DEFAULT_SAMPLES = {
    "mode": "async",
    "enable_edgelog": False,
    "enable_fusing": False,
    "enable_precombine": False,
    "min_intervals": 4,
    "intervals": VertexIntervals(np.array([0, 128, 256])),
    "adapted": True,
    "merge_fanout": 8,
    "grid_p": 4,
    "checkpoint_every": 2,
}


class TestOptionsValidationMatrix:
    def test_samples_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(EngineOptions)}
        assert set(NON_DEFAULT_SAMPLES) == fields
        defaults = EngineOptions()
        for name, value in NON_DEFAULT_SAMPLES.items():
            assert getattr(defaults, name) != value, f"{name} sample is the default"

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_stray_option_rejected(self, engine):
        relevant = RELEVANT_OPTIONS[engine]
        for name, value in NON_DEFAULT_SAMPLES.items():
            opts = EngineOptions(**{name: value})
            if name in relevant:
                opts.validate_for(engine)  # must not raise
            else:
                with pytest.raises(EngineError, match="do not apply"):
                    opts.validate_for(engine)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_relevant_options_accepted_together(self, engine):
        kw = {n: NON_DEFAULT_SAMPLES[n] for n in RELEVANT_OPTIONS[engine]}
        EngineOptions(**kw).validate_for(engine)

    def test_no_field_is_also_a_config_field(self):
        """A knob is declared once: on SimConfig or on EngineOptions."""
        option_names = {f.name for f in dataclasses.fields(EngineOptions)}
        config_names = {f.name for f in dataclasses.fields(SimConfig)}
        assert option_names.isdisjoint(config_names)
        assert set(STACK_KNOBS) <= config_names

    @pytest.mark.parametrize("name", sorted(STACK_KNOBS) + ["recompute"])
    def test_moved_knobs_are_not_options(self, name):
        with pytest.raises(TypeError):
            EngineOptions(**{name: None})


class TestOptionsReplace:
    def test_replace_returns_updated_copy(self):
        base = EngineOptions(checkpoint_every=4)
        unfused = base.replace(enable_fusing=False)
        assert not unfused.enable_fusing
        assert unfused.checkpoint_every == 4
        assert base.enable_fusing  # original untouched

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            EngineOptions().replace(warp_speed=True)
