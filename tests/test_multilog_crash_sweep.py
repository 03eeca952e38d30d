"""Every device op of the multi-log, cut and torn (DESIGN.md §8).

A counted dry run gives the number of ``mlog`` batches a run issues:
the evictions (one striped write batch each) and the consumption
reads.  The sweep cuts power at every one of those ops, and separately
tears every eviction so that a strict prefix of its pages persists.
Each crashed run resumes from its newest checkpoint and must reconcile
with the uninterrupted run: values, superstep records, run stats and
every post-cut trace event.

The grid is lanes {1, 4} x devices {1, 4} x the send-side combine on
and off, for PageRank and for CDLP, which has no combine and keeps the
log at full volume.  Five intervals over a 10-page buffer make the
evictions span more than one stripe of the 4 channels.
"""

import itertools

import pytest

from repro import EngineOptions
from repro.algorithms import CommunityDetectionProgram, DeltaPageRankProgram
from repro.config import small_test_config
from repro.graph.datasets import small_rmat
from repro.obs import TraceRecorder
from repro.recovery import count_device_ops, crash_resume_experiment

GRAPH = lambda: small_rmat(n=1024, m=4096, seed=3)
PROGRAMS = {"pagerank": DeltaPageRankProgram, "cdlp": CommunityDetectionProgram}
GRID = [
    pytest.param(program, lanes, devices, precombine,
                 id=f"{program}-lanes{lanes}-devices{devices}-{'combine' if precombine else 'raw'}")
    for program, lanes, devices, precombine in itertools.product(
        PROGRAMS, (1, 4), (1, 4), (True, False)
    )
]


def check_multilog_crash_points(program, lanes, devices, precombine, stride):
    """Cut at every ``stride``-th ``mlog`` op and tear every ``stride``-th
    eviction of an uncached run that checkpoints every superstep."""
    # Every stack knob pinned: the I/O planner would batch the reads
    # into fewer ops and move the crash points.
    cfg = small_test_config().with_workers(lanes).with_devices(devices).with_io_plan("off")
    opts = EngineOptions(checkpoint_every=1, min_intervals=4, enable_precombine=precombine)
    factory = PROGRAMS[program]
    _, baseline = count_device_ops(
        GRAPH, factory, config=cfg, options=opts, max_supersteps=8, tracer=TraceRecorder()
    )
    evictions = baseline.stats.writes["mlog"]
    reads = baseline.stats.reads["mlog"].batches
    # The evictions are a stripe or more on average, so the sweep cuts
    # inside multi-round eviction batches.
    assert evictions.pages >= evictions.batches * cfg.ssd.channels
    resumed = 0
    for kind, ops in (("crash", reads + evictions.batches), ("torn", evictions.batches)):
        for point in range(0, ops, stride):
            report = crash_resume_experiment(
                GRAPH, factory, config=cfg, options=opts, crash_after_ops=point,
                fault_klass="mlog", fault_kind=kind, max_supersteps=8, baseline=baseline,
            )
            assert report.crashed, f"{kind}@{point}: the fault never fired"
            if report.no_checkpoint:
                continue
            assert report.ok, f"{kind}@{point}: {report.describe()}: {report.trace_mismatches[:3]}"
            resumed += 1
    assert resumed >= max(1, (reads + evictions.batches) // stride // 2)


class TestMultiLogCrashPoints:
    @pytest.mark.parametrize("program, lanes, devices, precombine", GRID)
    def test_every_twelfth_op_reconciles(self, program, lanes, devices, precombine):
        check_multilog_crash_points(program, lanes, devices, precombine, 12)

    @pytest.mark.slow
    @pytest.mark.parametrize("program, lanes, devices, precombine", GRID)
    def test_every_op_reconciles(self, program, lanes, devices, precombine):
        check_multilog_crash_points(program, lanes, devices, precombine, 1)
