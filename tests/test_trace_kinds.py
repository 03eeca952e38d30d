"""Every declared trace kind is emitted, validates, and is documented.

Small traced runs, between them covering every layer that emits: the
MultiLogVC group loop with the edge log, the page cache + I/O planner +
device array overlays, worker lanes, checkpoint/crash/resume, each SSD
fault kind, a stream session, and the baseline engines.  The union of
what they emit must be exactly :data:`repro.obs.TRACE_KINDS` -- a kind
with no emitter is a dead schema entry, an emitted kind with no entry a
schema error -- and every trace must pass ``tools/validate_trace.py``.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import BFSProgram, DeltaPageRankProgram, WCCProgram
from repro.config import small_test_config
from repro.errors import InjectedFaultError, SimulatedCrashError
from repro.graph.datasets import bfs_chain_graph, small_rmat
from repro.obs import TRACE_KINDS, TraceRecorder, write_jsonl
from repro.options import EngineOptions
from repro.recovery import CheckpointManager
from repro.recovery.validate import NON_RECONCILED_KINDS
from repro.ssd import SimFS
from repro.ssd.faults import ChannelDegradation, FaultPlan, FaultRule, RetryPolicy
from repro.stream import StreamSession, random_delta

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from validate_trace import validate_file  # noqa: E402

CFG = small_test_config()
#: BFS with the edge log and no send-side combine: the multi-log flushes.
EDGELOG = EngineOptions(enable_edgelog=True, enable_precombine=False)


def _bfs(tracer, fs=None, cfg=CFG, options=EDGELOG):
    g, source = bfs_chain_graph("test", seed=77)
    repro.run(
        g, BFSProgram(source=source), config=cfg, options=options, fs=fs,
        tracer=tracer, max_supersteps=64,
    )


def _pagerank(tracer, cfg=CFG, engine="multilogvc", fs=None, options=None, steps=4):
    repro.run(
        small_rmat(n=256, m=2048, seed=3), DeltaPageRankProgram(), engine, config=cfg,
        options=options, fs=fs, tracer=tracer, max_supersteps=steps,
    )


def _faulted(run, plan, **policies):
    """One run under ``plan``, traced up to its end or its fault."""
    tracer, fs = TraceRecorder(), SimFS(CFG)
    fs.device.install_faults(plan, **policies)
    try:
        run(tracer, fs=fs)
    except (InjectedFaultError, SimulatedCrashError):
        pass
    return tracer


def _traced(run, *args, **kwargs):
    tracer = TraceRecorder()
    run(tracer, *args, **kwargs)
    return tracer


def _crash_and_resume():
    opts = EngineOptions(checkpoint_every=2)
    crashed, fs = TraceRecorder(), SimFS(CFG)
    fs.device.install_faults(FaultPlan.crash_after(15))
    with pytest.raises(SimulatedCrashError):
        _pagerank(crashed, fs=fs, options=opts, steps=8)
    resumed = TraceRecorder()
    repro.resume(
        small_rmat(n=256, m=2048, seed=3), DeltaPageRankProgram(),
        CheckpointManager.load_latest(fs), config=CFG, options=opts,
        tracer=resumed, max_supersteps=8,
    )
    return [crashed, resumed]


def _stream():
    tracer = TraceRecorder()
    g = small_rmat(n=128, m=512, seed=9)
    sess = StreamSession(
        g, WCCProgram(), config=CFG.with_stream(compact_threshold=0.01), tracer=tracer
    )
    sess.recompute(max_supersteps=50)
    s, t = sess.store.live_edge_arrays()
    sess.ingest(random_delta(np.random.default_rng(7), g.n, s, t, 24))
    sess.apply_updates()
    assert sess.recompute(max_supersteps=50).mode == "incremental"
    return tracer


def _baselines():
    tracer = TraceRecorder()
    for engine in ("graphchi", "grafboost", "gridgraph"):
        _pagerank(tracer, engine=engine)
    return tracer


def test_every_declared_kind_is_emitted_and_validates(tmp_path):
    transient = FaultPlan(
        [FaultRule(op="read", kind="error", channel=0, transient=True, max_fires=3)]
    )
    traces = [
        _traced(_bfs),
        _traced(_pagerank, CFG.with_cache().with_io_plan("coalesce+readahead").with_devices(4)),
        _traced(_pagerank, CFG.with_workers(2).with_io_plan("coalesce")),
        # an 8-page cache under checkpoints: dirty log batches are
        # written back on eviction and at every cut
        _traced(
            _bfs, cfg=CFG.with_cache(cache_bytes=8 * CFG.ssd.page_size),
            options=EngineOptions(enable_edgelog=True, enable_precombine=False, checkpoint_every=2),
        ),
        *_crash_and_resume(),
        _faulted(
            _pagerank, transient,
            retry_policy=RetryPolicy(max_retries=3),
            degradation=ChannelDegradation(error_threshold=3),
        ),
        _faulted(_pagerank, FaultPlan.read_error(klass="csr_col", after_ops=2)),
        _faulted(_bfs, FaultPlan.torn_write_after(0, klass="mlog")),
        _stream(),
        _baselines(),
    ]
    emitted = set()
    for i, tracer in enumerate(traces):
        emitted |= {e.kind for e in tracer.events}
        path = tmp_path / f"{i}.jsonl"
        write_jsonl(tracer.events, str(path))
        assert validate_file(path) == [], i
    assert emitted == TRACE_KINDS


def test_design_event_table_names_every_kind():
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("### Event schema") : design.index("### MetricsRegistry")]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    documented = {kind for cell in rows for kind in re.findall(r"`([a-z_]+)`", cell)}
    assert documented == TRACE_KINDS


def test_crash_resume_skips_only_the_prologue():
    # the overlays are checkpointed and restored, so they reconcile
    assert NON_RECONCILED_KINDS == {"run_begin", "run_resume"}


OVERLAYS = {
    "cache_stats": {
        "hits": 3, "misses": 1, "evictions": 0, "insertions": 1, "invalidations": 0,
        "rejected": 0, "writeback_batches": 0, "writeback_pages": 0,
        "dropped_dirty_pages": 0, "dirty_pages": 1,
    },
    "parallel_stats": {"groups": 3, "spec_us": 4.0, "saved_us": 1.0, "makespan_us": 3.0},
    "io_plan_stats": {
        "mode": "coalesce",
        "plans": 3,
        **dict.fromkeys(
            (
                "demand_pages", "cache_hit_pages", "batches_folded", "extents",
                "extent_pages", "scattered_pages", "waves", "time_us", "saved_us",
                "readahead_pages", "readahead_time_us",
            ),
            1,
        ),
    },
    "device_stats": {
        "devices": 4, "placement": "stripe", "ops": 3,
        "serial_us": 4.0, "array_us": 2.0, "saved_us": 2.0,
    },
}


@pytest.mark.parametrize("kind", sorted(OVERLAYS))
def test_malformed_overlay_counter_is_reported_not_compared(tmp_path, kind):
    """A counter that failed its type check is not the next event's baseline."""
    good = {"kind": kind, "t_us": 2, "step": 1, **OVERLAYS[kind]}
    counter = next(f for f, v in OVERLAYS[kind].items() if v == 3)
    bad = {**good, "t_us": 1, "step": 0, counter: "3"}
    path = tmp_path / "t.jsonl"
    path.write_text(
        "\n".join(json.dumps(e) for e in ({"kind": "run_begin", "t_us": 0, "step": -1}, bad, good))
        + "\n"
    )
    (err,) = validate_file(path)
    assert err.startswith(f"{path}:2: ") and repr(counter) in err
