"""Crash-consistent checkpointing and recovery (DESIGN.md §8).

The acceptance bar is exactness: after an injected power loss at a
random point in a random superstep, resuming from the newest surviving
checkpoint must reproduce the uninterrupted run bit-for-bit -- final
vertex values, per-superstep records, run stats, and an
event-for-event reconcilable trace from the first post-checkpoint
superstep onward.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro import EngineError, EngineOptions, MultiLogVC, RecoveryError, SimulatedCrashError
from repro.algorithms import BFSProgram, DeltaPageRankProgram, WCCProgram
from repro.config import small_test_config
from repro.obs import MetricsRegistry
from repro.graph.datasets import small_rmat
from repro.recovery import (
    CheckpointData,
    CheckpointManager,
    count_device_ops,
    crash_resume_experiment,
    reconcile_traces,
)
from repro.ssd import FaultPlan

GRAPH = lambda: small_rmat(n=256, m=2048, seed=3)

ALGORITHMS = {
    "pagerank": lambda: DeltaPageRankProgram(),
    "bfs": lambda: BFSProgram(source=0),
    "wcc": lambda: WCCProgram(),
}


@pytest.mark.slow
class TestCrashRecoveryDeterminism:
    """The tentpole guarantee, for three algorithms at random crash points.

    Heaviest recovery sweep in the suite (6 crash/resume experiments per
    algorithm), so it runs behind ``-m slow``; CI includes it in the
    dedicated slow step, and `tests/test_conformance.py` plus the quick
    ``repro verify`` pass keep crash/resume covered in tier-1.
    """

    @pytest.mark.parametrize("alg", sorted(ALGORITHMS))
    def test_random_crash_points_recover_exactly(self, cfg, alg):
        options = EngineOptions(checkpoint_every=2)
        total_ops, _ = count_device_ops(
            GRAPH, ALGORITHMS[alg], config=cfg, options=options, max_supersteps=8
        )
        rng = np.random.default_rng(42)
        crash_points = sorted(
            int(p) for p in rng.integers(1, total_ops + 1, size=6)
        )
        resumed = 0
        for point in crash_points:
            report = crash_resume_experiment(
                GRAPH,
                ALGORITHMS[alg],
                config=cfg,
                options=options,
                crash_after_ops=point,
                fault_seed=point,
                max_supersteps=8,
            )
            if report.no_checkpoint:
                continue  # crash preceded the first checkpoint: nothing to recover
            assert report.ok, f"{alg} crash@{point}: {report.describe()}"
            if report.crashed:
                resumed += 1
        # the sweep must actually exercise recovery, not just benign outcomes
        assert resumed >= 1, f"{alg}: no crash point produced a resumable run"

    def test_resumed_trace_reconciles_with_uninterrupted(self, cfg):
        """Spot-check the strongest form: identical post-cut timestamps."""
        options = EngineOptions(checkpoint_every=2)
        total_ops, _ = count_device_ops(
            GRAPH, ALGORITHMS["pagerank"], config=cfg, options=options, max_supersteps=8
        )
        report = crash_resume_experiment(
            GRAPH,
            ALGORITHMS["pagerank"],
            config=cfg,
            options=options,
            crash_after_ops=total_ops // 2,
            max_supersteps=8,
        )
        assert report.crashed and not report.no_checkpoint
        assert report.values_identical
        assert report.records_identical
        assert report.stats_identical
        assert report.trace_mismatches == []


class TestLaterCheckpoints:
    def test_resume_from_a_later_checkpoint_is_exact(self, cfg):
        options = EngineOptions(checkpoint_every=2)
        total_ops, _ = count_device_ops(
            GRAPH, ALGORITHMS["pagerank"], config=cfg, options=options, max_supersteps=8
        )
        report = crash_resume_experiment(
            GRAPH,
            ALGORITHMS["pagerank"],
            config=cfg,
            options=options,
            crash_after_ops=int(total_ops * 0.8),
            max_supersteps=8,
        )
        assert report.crashed and not report.no_checkpoint
        # numbering continues past the first checkpoint
        assert report.checkpoint_id > 1
        assert report.ok, report.describe()


class TestCheckpointDurability:
    def test_torn_checkpoint_falls_back_to_previous(self, cfg):
        eng = MultiLogVC(
            GRAPH(), DeltaPageRankProgram(), cfg, options=EngineOptions(checkpoint_every=2)
        )
        # after_ops=2 skips checkpoint 1's payload + commit, so the tear
        # hits checkpoint 2 -> its commit never lands -> 1 stays newest
        eng.fs.device.install_faults(FaultPlan.torn_write_after(2, seed=7, klass="ckpt"))
        with pytest.raises(SimulatedCrashError):
            eng.run(8)
        ckpt = CheckpointManager.load_latest(eng.fs)
        assert ckpt.ckpt_id == 1
        assert ckpt.step == 1

    def test_load_latest_without_checkpoints_raises(self, fs):
        with pytest.raises(RecoveryError):
            CheckpointManager.load_latest(fs)

    def test_crash_before_first_checkpoint_leaves_nothing(self, cfg):
        eng = MultiLogVC(
            GRAPH(), DeltaPageRankProgram(), cfg, options=EngineOptions(checkpoint_every=5)
        )
        eng.fs.device.install_faults(FaultPlan.crash_after(3))
        with pytest.raises(SimulatedCrashError):
            eng.run(8)
        with pytest.raises(RecoveryError):
            CheckpointManager.load_latest(eng.fs)

    def test_every_crash_point_resumes_to_identical_checkpoints(self, cfg):
        """A checkpoint is charged by its pickled length, and pickle
        shares equal objects by identity.  Restored arrays and record
        keys must share the way a fresh run's do, or a resumed run's next
        checkpoint can round up to one more page than the uninterrupted
        run's (a checkpoint every superstep shows it within 40 ops)."""
        opts = EngineOptions(checkpoint_every=1)
        total_ops, _ = count_device_ops(
            GRAPH, DeltaPageRankProgram, config=cfg, options=opts, max_supersteps=10
        )
        resumed = 0
        for point in range(1, total_ops):
            report = crash_resume_experiment(
                GRAPH, DeltaPageRankProgram, config=cfg, options=opts,
                crash_after_ops=point, max_supersteps=10,
            )
            if report.no_checkpoint:
                continue
            assert report.ok, f"crash@{point}: {report.describe()}"
            resumed += 1
        assert resumed >= total_ops // 2


#: One full storage stack: four lanes, a CLOCK cache small enough to
#: evict, coalesced reads with read-ahead and four striped devices.  No
#: fusing, so every superstep runs several groups and read-ahead fires.
#: The read latency has no short decimal form, so the time tallies carry
#: more digits than the six ``io_plan_stats`` rounds them to.
def full_stack_config():
    cfg = small_test_config()
    cfg = dataclasses.replace(cfg, ssd=dataclasses.replace(cfg.ssd, read_latency_us=75 + 1 / 3))
    return (
        cfg.with_workers(4)
        .with_cache("clock", 8 * cfg.ssd.page_size)
        .with_io_plan("coalesce+readahead")
        .with_devices(4, "stripe")
    )


FULL_STACK_GRAPH = lambda: small_rmat(n=256, m=4096, seed=3)
FULL_STACK_OPTIONS = EngineOptions(checkpoint_every=1, min_intervals=4, enable_fusing=False)
OVERLAY_KINDS = {"cache_stats", "parallel_stats", "io_plan_stats", "device_stats"}


def check_full_stack_crash_points(stride):
    """Crash after every ``stride``-th device op of a checkpoint-every-
    superstep PageRank run on the full stack: every resumed run must
    reconcile every event with the uninterrupted run, the four overlays'
    included, and each overlay must have been emitted after the cut."""
    cfg = full_stack_config()
    total_ops, _ = count_device_ops(
        FULL_STACK_GRAPH, DeltaPageRankProgram, config=cfg,
        options=FULL_STACK_OPTIONS, max_supersteps=8,
    )
    resumed = 0
    for point in range(1, total_ops, stride):
        report = crash_resume_experiment(
            FULL_STACK_GRAPH, DeltaPageRankProgram, config=cfg,
            options=FULL_STACK_OPTIONS, crash_after_ops=point, max_supersteps=8,
        )
        if report.no_checkpoint or not report.crashed:
            continue
        assert report.ok, f"crash@{point}: {report.describe()}: {report.trace_mismatches[:3]}"
        post_cut = {e.kind for e in report.resumed.trace if e.step > report.checkpoint_step}
        assert OVERLAY_KINDS <= post_cut, f"crash@{point}: {sorted(OVERLAY_KINDS - post_cut)}"
        resumed += 1
    assert resumed >= (total_ops // stride) // 2


class TestFullStackCrashPoints:
    """The overlays reconcile across a crash/resume cut (DESIGN.md §7)."""

    def test_every_eighth_crash_point_reconciles_every_event(self):
        check_full_stack_crash_points(8)

    @pytest.mark.slow
    def test_every_crash_point_reconciles_every_event(self):
        check_full_stack_crash_points(1)

    def test_resumed_gauges_equal_the_uninterrupted_runs(self):
        """The gauges read the counters unrounded (``io_plan_stats``
        rounds its times), so the checkpoint must carry them exactly."""
        cfg = full_stack_config()

        def overlay_gauges(resume_from=None, crash_after=None):
            reg = MetricsRegistry()
            eng = MultiLogVC(
                FULL_STACK_GRAPH(), DeltaPageRankProgram(), cfg,
                options=FULL_STACK_OPTIONS, metrics=reg,
            )
            if crash_after is not None:
                eng.fs.device.install_faults(FaultPlan.crash_after(crash_after))
                with pytest.raises(SimulatedCrashError):
                    eng.run(8)
                return CheckpointManager.load_latest(eng.fs)
            eng.run(8, resume_from=resume_from)
            prefixes = ("cache.", "io.", "scheduler.", "device.")
            return {k: v for k, v in reg.snapshot().items() if k.startswith(prefixes)}

        base = overlay_gauges()
        for gauge in ("cache.hits", "cache.evictions", "io.readahead_pages",
                      "scheduler.saved_us", "device.saved_us"):
            assert base[gauge] > 0, gauge  # the stack exercises every overlay
        total_ops, _ = count_device_ops(
            FULL_STACK_GRAPH, DeltaPageRankProgram, config=cfg,
            options=FULL_STACK_OPTIONS, max_supersteps=8,
        )
        ckpt = overlay_gauges(crash_after=total_ops // 2)
        assert overlay_gauges(resume_from=ckpt) == base


class TestResumeFacade:
    def _checkpoint_from_crash(self, cfg, tmp_path):
        opts = EngineOptions(checkpoint_every=2)
        # The crash op comes from a counted dry run, not a constant:
        # how many device batches a run issues moves with the engine.
        total_ops, _ = count_device_ops(
            GRAPH, DeltaPageRankProgram, config=cfg, options=opts, max_supersteps=8
        )
        eng = MultiLogVC(GRAPH(), DeltaPageRankProgram(), cfg, options=opts)
        eng.fs.device.install_faults(FaultPlan.crash_after(total_ops // 2))
        with pytest.raises(SimulatedCrashError):
            eng.run(8)
        ckpt = CheckpointManager.load_latest(eng.fs)
        path = tmp_path / "run.ckpt"
        ckpt.save(path)
        return path

    def test_resume_from_saved_checkpoint_path(self, cfg, tmp_path):
        baseline = repro.run(
            GRAPH(),
            DeltaPageRankProgram(),
            config=cfg,
            options=EngineOptions(checkpoint_every=2),
            max_supersteps=8,
        )
        path = self._checkpoint_from_crash(cfg, tmp_path)
        resumed = repro.resume(
            GRAPH(),
            DeltaPageRankProgram(),
            str(path),
            config=cfg,
            options=EngineOptions(checkpoint_every=2),
            max_supersteps=8,
        )
        assert resumed.values.tobytes() == baseline.values.tobytes()
        assert [r.to_dict() for r in resumed.supersteps] == [
            r.to_dict() for r in baseline.supersteps
        ]
        assert resumed.stats.to_dict() == baseline.stats.to_dict()

    def test_resume_rejects_mismatched_program(self, cfg, tmp_path):
        path = self._checkpoint_from_crash(cfg, tmp_path)
        with pytest.raises(RecoveryError):
            repro.resume(
                GRAPH(),
                WCCProgram(),
                str(path),
                config=cfg,
                options=EngineOptions(checkpoint_every=2),
                max_supersteps=8,
            )

    def test_resume_rejects_mismatched_graph(self, cfg, tmp_path):
        path = self._checkpoint_from_crash(cfg, tmp_path)
        with pytest.raises(RecoveryError):
            repro.resume(
                small_rmat(n=128, m=1024, seed=3),
                DeltaPageRankProgram(),
                str(path),
                config=cfg,
                options=EngineOptions(checkpoint_every=2),
                max_supersteps=8,
            )

    def test_run_facade_rejects_resume_on_other_engines(self, cfg, tmp_path):
        path = self._checkpoint_from_crash(cfg, tmp_path)
        ckpt = CheckpointData.load(path)
        with pytest.raises(EngineError):
            repro.run(
                GRAPH(), DeltaPageRankProgram(), engine="graphchi",
                config=cfg, resume_from=ckpt,
            )


class TestOptionsValidation:
    def test_negative_interval_rejected(self):
        with pytest.raises(EngineError):
            EngineOptions(checkpoint_every=-1).validate_for("multilogvc")

    def test_checkpoint_format_is_not_an_option(self, capsys):
        """Every checkpoint is a full snapshot: there is no format to choose."""
        from repro.cli import build_parser

        with pytest.raises(TypeError):
            EngineOptions(checkpoint_mode="full")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["compute", "pagerank", "--checkpoint-mode", "full"])
        assert exc.value.code == 2
        assert "--checkpoint-mode" in capsys.readouterr().err

    def test_checkpointing_not_offered_by_baselines(self, cfg):
        with pytest.raises(EngineError):
            repro.run(
                GRAPH(),
                DeltaPageRankProgram(),
                engine="graphchi",
                config=cfg,
                options=EngineOptions(checkpoint_every=2),
            )


class TestReconcileTraces:
    class _Ev:
        def __init__(self, kind, t_us, step, **fields):
            self.kind, self.t_us, self.step, self.fields = kind, t_us, step, fields

    def test_identical_traces_reconcile(self):
        a = [self._Ev("superstep_end", 10.0, 2, pages=3)]
        b = [self._Ev("superstep_end", 10.0, 2, pages=3)]
        assert reconcile_traces(a, b, from_step=2) == []

    def test_timestamp_divergence_is_reported(self):
        a = [self._Ev("superstep_end", 10.0, 2)]
        b = [self._Ev("superstep_end", 11.0, 2)]
        (msg,) = reconcile_traces(a, b, from_step=2)
        assert "t_us" in msg

    def test_pre_cut_events_are_ignored(self):
        a = [self._Ev("superstep_end", 1.0, 0), self._Ev("superstep_end", 10.0, 2)]
        b = [self._Ev("superstep_end", 10.0, 2)]
        assert reconcile_traces(a, b, from_step=2) == []


class TestPartialCheckpointWindow:
    """Resume when checkpoint_every does not divide the superstep count.

    With checkpoint_every=3 and an 8-superstep run, the final window is
    partial: the newest checkpoint cuts at a step that is NOT the last
    one.  Resuming from it must replay the tail supersteps and land on
    the uninterrupted run bit-for-bit -- values, records, and stats.
    """

    EVERY = 3
    STEPS = 8

    def _run(self, cfg, fs=None):
        eng = MultiLogVC(
            GRAPH(),
            DeltaPageRankProgram(),
            cfg,
            fs=fs,
            options=EngineOptions(checkpoint_every=self.EVERY),
        )
        return eng, eng.run(self.STEPS)

    def test_latest_checkpoint_cuts_mid_window(self, cfg):
        eng, baseline = self._run(cfg)
        assert baseline.n_supersteps == self.STEPS  # cap hit, not converged
        ckpt = CheckpointManager.load_latest(eng.fs)
        # Newest cut is the last full window boundary, strictly before
        # the final superstep (8 % 3 != 0).
        assert ckpt.step == (self.STEPS // self.EVERY) * self.EVERY - 1
        assert ckpt.step < self.STEPS - 1

    def test_resume_replays_partial_tail_exactly(self, cfg):
        eng, baseline = self._run(cfg)
        ckpt = CheckpointManager.load_latest(eng.fs)
        resumed = repro.resume(
            GRAPH(),
            DeltaPageRankProgram(),
            ckpt,
            config=cfg,
            options=EngineOptions(checkpoint_every=self.EVERY),
            max_supersteps=self.STEPS,
        )
        assert resumed.values.tobytes() == baseline.values.tobytes()
        assert [r.to_dict() for r in resumed.supersteps] == [
            r.to_dict() for r in baseline.supersteps
        ]
        assert resumed.stats.to_dict() == baseline.stats.to_dict()

    def test_converged_run_with_partial_window(self, cfg):
        """Convergence inside a window: resume still reproduces the run."""
        eng = MultiLogVC(
            GRAPH(),
            BFSProgram(source=0),
            cfg,
            options=EngineOptions(checkpoint_every=self.EVERY),
        )
        baseline = eng.run(15)
        assert baseline.converged
        ckpt = CheckpointManager.load_latest(eng.fs)
        resumed = repro.resume(
            GRAPH(),
            BFSProgram(source=0),
            ckpt,
            config=cfg,
            options=EngineOptions(checkpoint_every=self.EVERY),
            max_supersteps=15,
        )
        assert resumed.converged == baseline.converged
        assert resumed.values.tobytes() == baseline.values.tobytes()
        assert resumed.n_supersteps == baseline.n_supersteps
