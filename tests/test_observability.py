"""Observability layer: tracing, metrics, and the repro.run() facade.

Three contracts are pinned here:

1. **Zero perturbation** -- enabling a tracer/metrics registry changes
   nothing about the computation: values, per-superstep records and SSD
   stats are identical to an untraced run, on all four engines.
2. **Exact reconciliation** -- the ``superstep_end`` events in a trace
   carry the same fields as ``RunResult.supersteps``, event-for-record,
   and traces are bit-identical across pipeline depths.
3. **Facade equivalence** -- ``repro.run()`` returns the same result as
   direct engine construction, while consolidating the old divergent
   constructor kwargs into :class:`EngineOptions` (deprecated kwargs
   still work, with a warning).
"""

import json

import numpy as np
import pytest

import repro
from repro import EngineOptions, GraFBoost, GraphChi, GridGraph, MultiLogVC
from repro.algorithms import BFSProgram, DeltaPageRankProgram, GraphColoringProgram, MISProgram
from repro.errors import EngineError
from repro.graph.datasets import small_rmat
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    TraceRecorder,
    current_tracer,
    load_jsonl,
    trace_summary,
    use_tracer,
    write_jsonl,
)
from repro.recovery import CheckpointManager

STEPS = 8


def pagerank():
    return DeltaPageRankProgram(threshold=1e-3)


ENGINE_CASES = [
    ("multilogvc", pagerank),
    ("graphchi", pagerank),
    ("grafboost", pagerank),
    ("gridgraph", pagerank),
]


def run_engine(engine, cfg, graph, program, tracer=None, metrics=None, progress=None):
    return repro.run(
        graph,
        program,
        engine=engine,
        config=cfg,
        tracer=tracer,
        metrics=metrics,
        progress=progress,
        max_supersteps=STEPS,
    )


def norm(v):
    return np.nan_to_num(v, posinf=-1.0)


class TestTracerOffIdentity:
    """Tracing off == tracing on, bit for bit, on every engine."""

    @pytest.mark.parametrize("engine,factory", ENGINE_CASES)
    def test_traced_run_identical(self, cfg, rmat256, engine, factory):
        plain = run_engine(engine, cfg, rmat256, factory())
        traced = run_engine(engine, cfg, rmat256, factory(), tracer=TraceRecorder())
        assert np.array_equal(norm(plain.values), norm(traced.values))
        assert len(plain.supersteps) == len(traced.supersteps)
        for a, b in zip(plain.supersteps, traced.supersteps):
            assert a.to_dict() == b.to_dict()
        assert plain.stats.to_dict() == traced.stats.to_dict()
        assert plain.compute_time_us == traced.compute_time_us
        assert plain.trace is None
        assert traced.trace is not None

    def test_null_tracer_records_nothing(self, cfg, rmat256):
        res = MultiLogVC(rmat256, pagerank(), cfg, tracer=NULL_TRACER).run(STEPS)
        assert res.trace is None
        assert NULL_TRACER.events == []


class TestTraceReconciliation:
    """superstep_end events mirror RunResult.supersteps exactly."""

    @pytest.mark.parametrize("engine,factory", ENGINE_CASES)
    def test_superstep_end_matches_records(self, cfg, rmat256, engine, factory):
        tracer = TraceRecorder()
        res = run_engine(engine, cfg, rmat256, factory(), tracer=tracer)
        ends = [e for e in res.trace if e.kind == "superstep_end"]
        assert len(ends) == res.n_supersteps
        for ev, rec in zip(ends, res.supersteps):
            assert ev.step == rec.index
            assert ev.fields == rec.to_dict()

    @pytest.mark.parametrize("engine,factory", ENGINE_CASES)
    def test_run_markers(self, cfg, rmat256, engine, factory):
        tracer = TraceRecorder()
        res = run_engine(engine, cfg, rmat256, factory(), tracer=tracer)
        kinds = [e.kind for e in res.trace]
        assert kinds[0] == "run_begin"
        assert kinds[-1] == "run_end"
        begins = [e for e in res.trace if e.kind == "superstep_begin"]
        assert len(begins) == res.n_supersteps
        # Simulated timestamps never go backwards.
        stamps = [e.t_us for e in res.trace]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))

    def test_summary_rollup(self, cfg, rmat256):
        tracer = TraceRecorder()
        res = run_engine("multilogvc", cfg, rmat256, pagerank(), tracer=tracer)
        summary = trace_summary(res.trace)
        assert summary["n_events"] == len(res.trace)
        assert summary["by_kind"]["superstep_end"] == res.n_supersteps
        assert len(summary["supersteps"]) == res.n_supersteps
        for row, rec in zip(summary["supersteps"], res.supersteps):
            assert row["active_vertices"] == rec.active_vertices
            assert row["pages_read"] == rec.pages_read

    def test_multilogvc_group_events(self, cfg, rmat256):
        tracer = TraceRecorder()
        res = run_engine("multilogvc", cfg, rmat256, pagerank(), tracer=tracer)
        plans = [e for e in res.trace if e.kind == "group_plan"]
        loads = [e for e in res.trace if e.kind == "group_load"]
        assert len(plans) == res.n_supersteps
        assert len(loads) == sum(e.fields["n_groups"] for e in plans)
        # Per-step processed vertices reconcile with the records.
        for rec in res.supersteps:
            step_proc = sum(
                e.fields["vertices"]
                for e in res.trace
                if e.kind == "group_process" and e.step == rec.index
            )
            assert step_proc == rec.active_vertices

    def test_trace_identical_across_lane_counts(self, cfg, rmat256):
        # One group loop: the lane count adds parallel_stats events and
        # changes nothing else, timestamps included.
        traces = {}
        for workers in (1, 4):
            tracer = TraceRecorder()
            res = MultiLogVC(
                rmat256, pagerank(), cfg.with_workers(workers), tracer=tracer
            ).run(STEPS)
            traces[workers] = [
                e.to_dict() for e in res.trace if e.kind != "parallel_stats"
            ]
        assert traces[1] == traces[4]


class TestMetrics:
    def test_facade_populates_metrics(self, cfg, rmat256):
        res = run_engine("multilogvc", cfg, rmat256, pagerank())
        assert res.metrics is not None
        assert res.metrics["loader.loads"] > 0
        assert res.metrics["sortgroup.records_sorted"] > 0
        assert res.metrics["multilog.mlog.a.appended"] >= 0

    def test_metrics_reconcile_with_records(self, cfg, rmat256):
        from repro.algorithms import BFSProgram, CommunityDetectionProgram

        # (program, seed records logged before superstep 0's record,
        #  does a send-side combine shrink what is logged?)
        for program, seeds, reduces in (
            (pagerank(), 0, True),
            (BFSProgram(0), 1, True),
            (CommunityDetectionProgram(), 0, False),
        ):
            res = run_engine("multilogvc", cfg, rmat256, program)
            appended = sum(res.metrics[f"multilog.mlog.{u}.appended"] for u in "ab")
            # Every logged record sits in one of the two generations.
            assert appended == sum(r.records_logged for r in res.supersteps) + seeds
            assert all(r.records_logged <= r.messages_sent for r in res.supersteps)
            shrunk = any(r.records_logged < r.messages_sent for r in res.supersteps)
            assert shrunk == reduces, program.name

    def test_explicit_registry(self, cfg, rmat256):
        reg = MetricsRegistry()
        res = run_engine("grafboost", cfg, rmat256, pagerank(), metrics=reg)
        assert res.metrics == reg.snapshot()
        assert "grafboost.sort_runs" in res.metrics

    def test_no_registry_no_metrics(self, cfg, rmat256):
        res = MultiLogVC(rmat256, pagerank(), cfg).run(STEPS)
        assert res.metrics is None


class TestProgressHook:
    @pytest.mark.parametrize(
        "engine,cut",
        [pytest.param(e, 0, id=f"{e}-pagerank") for e in sorted(repro.ENGINES)]
        + [pytest.param("multilogvc", 4, id="multilogvc-pagerank-resumed")],
    )
    def test_progress_called_per_superstep(self, cfg, rmat256, engine, cut):
        """The hook sees each superstep the run executes, in order: with
        ``cut``, a run resumed there sees only the later ones, while its
        result still holds every record."""
        full = run_engine(engine, cfg, rmat256, pagerank())
        seen = []
        if cut:
            opts = EngineOptions(checkpoint_every=cut)
            first = MultiLogVC(rmat256, pagerank(), cfg, options=opts)
            first.run(cut)
            res = repro.resume(
                rmat256, pagerank(), CheckpointManager.load_latest(first.fs),
                config=cfg, options=opts, progress=seen.append, max_supersteps=STEPS,
            )
            assert len(full.supersteps) > cut
        else:
            res = run_engine(engine, cfg, rmat256, pagerank(), progress=seen.append)
        assert res.supersteps == full.supersteps
        assert seen == full.supersteps[cut:]


class TestRunFacade:
    def test_matches_direct_construction(self, cfg, rmat256):
        direct = MultiLogVC(rmat256, pagerank(), cfg).run(STEPS)
        facade = run_engine("multilogvc", cfg, rmat256, pagerank())
        assert np.array_equal(norm(direct.values), norm(facade.values))
        for a, b in zip(direct.supersteps, facade.supersteps):
            assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("engine", sorted(repro.ENGINES))
    def test_negative_superstep_cap_rejected(self, cfg, rmat256, engine):
        with pytest.raises(EngineError, match="max_supersteps must be >= 0"):
            repro.run(rmat256, pagerank(), engine=engine, config=cfg, max_supersteps=-3)
        res = repro.run(rmat256, pagerank(), engine=engine, config=cfg, max_supersteps=0)
        assert res.supersteps == [] and not res.converged

    def test_unknown_engine(self, cfg, rmat256):
        with pytest.raises(EngineError, match="unknown engine"):
            repro.run(rmat256, pagerank(), engine="nope", config=cfg)

    def test_options_routed(self, cfg, rmat256):
        res = repro.run(
            rmat256,
            pagerank(),
            engine="multilogvc",
            config=cfg,
            options=EngineOptions(enable_edgelog=False),
            max_supersteps=STEPS,
        )
        assert all(r.edgelog_vertices_logged == 0 for r in res.supersteps)

    def test_gridgraph_grid_p(self, cfg, rmat256):
        res = repro.run(
            rmat256,
            pagerank(),
            engine="gridgraph",
            config=cfg,
            options=EngineOptions(grid_p=4),
            max_supersteps=STEPS,
        )
        assert res.n_supersteps > 0


class TestEngineOptions:
    def test_irrelevant_option_rejected(self, cfg, rmat256):
        with pytest.raises(EngineError, match="do not apply"):
            GraphChi(rmat256, pagerank(), cfg, options=EngineOptions(adapted=True))
        with pytest.raises(EngineError, match="do not apply"):
            MultiLogVC(rmat256, pagerank(), cfg, options=EngineOptions(merge_fanout=8))

    def test_legacy_kwargs_removed(self, cfg, rmat256):
        # The pre-v1 per-engine keyword arguments are gone from every
        # constructor, by keyword and by position (README "API v1
        # migration" maps them to EngineOptions fields).
        with pytest.raises(TypeError, match="enable_edgelog"):
            MultiLogVC(rmat256, pagerank(), cfg, enable_edgelog=False)
        with pytest.raises(TypeError, match="mode"):
            MultiLogVC(rmat256, pagerank(), cfg, mode="async", options=EngineOptions())
        with pytest.raises(TypeError, match="positional"):
            MultiLogVC(rmat256, pagerank(), cfg, None, "async")
        with pytest.raises(TypeError, match="adapted"):
            GraFBoost(rmat256, pagerank(), cfg, adapted=True)
        with pytest.raises(TypeError, match="intervals"):
            GridGraph(rmat256, pagerank(), cfg, intervals=None)

    def test_bad_mode_rejected(self):
        with pytest.raises(EngineError, match="mode"):
            EngineOptions(mode="chaotic").validate_for("multilogvc")


class TestAmbientTracer:
    def test_use_tracer_scopes_recording(self, cfg, rmat256):
        tracer = TraceRecorder()
        assert current_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert current_tracer() is tracer
            res = MultiLogVC(rmat256, pagerank(), cfg).run(STEPS)
        assert current_tracer() is NULL_TRACER
        assert res.trace is not None
        assert len(tracer.events) == len(res.trace)


class TestJsonlRoundTrip:
    def test_write_load_summary(self, cfg, rmat256, tmp_path):
        tracer = TraceRecorder()
        res = run_engine("multilogvc", cfg, rmat256, pagerank(), tracer=tracer)
        path = tmp_path / "trace.jsonl"
        write_jsonl(res.trace, path)
        with path.open() as f:
            for line in f:
                json.loads(line)  # every line is valid JSON
        loaded = load_jsonl(path)
        assert [e.to_dict() for e in loaded] == [e.to_dict() for e in res.trace]
        assert trace_summary(loaded) == trace_summary(res.trace)


class TestRunResultExport:
    def test_to_dict_round_trips_through_json(self, cfg, rmat256):
        tracer = TraceRecorder()
        res = run_engine("multilogvc", cfg, rmat256, pagerank(), tracer=tracer)
        d = res.to_dict(include_values=False, include_trace=True)
        encoded = json.loads(json.dumps(d))
        assert encoded["engine"] == "multilogvc"
        assert encoded["n_supersteps"] == res.n_supersteps
        assert len(encoded["supersteps"]) == res.n_supersteps
        assert len(encoded["trace"]) == len(res.trace)
        assert encoded["metrics"] == res.metrics

    def test_save_run_helpers(self, cfg, rmat256, tmp_path):
        from repro.metrics.export import save_run_csv, save_run_json

        res = run_engine("graphchi", cfg, rmat256, pagerank())
        jpath = save_run_json(res, tmp_path / "run.json")
        data = json.loads(jpath.read_text())
        assert data["program"] == res.program
        cpath = save_run_csv(res, tmp_path / "run.csv")
        lines = cpath.read_text().strip().splitlines()
        assert len(lines) == res.n_supersteps + 1  # header + rows
        assert lines[0].startswith("index,")


class TestEdgeLogPagesAvoided:
    def test_populated_on_frontier_workload(self):
        # MIS at bench scale keeps a churning frontier long enough for
        # the edge log's predictions to pay off: logged vertices hit the
        # log on later supersteps and dense log pages replace sparse
        # colidx reads, so hypo-pages minus data-pages goes positive.
        from repro.experiments.common import load_dataset, paper_programs, run_mlvc

        g = load_dataset("cf", "bench")
        program = paper_programs(n=g.n)["mis"]()
        res = run_mlvc(g, program, steps=15, enable_edgelog=True)
        logged = sum(r.edgelog_vertices_logged for r in res.supersteps)
        avoided = sum(r.edgelog_pages_avoided for r in res.supersteps)
        assert logged > 0
        assert avoided > 0
        assert all(r.edgelog_pages_avoided >= 0 for r in res.supersteps)

    def test_elog_flush_events_sum_to_edgelog_writes(self, cfg):
        # MIS, whose edge-log flushes span several pages (BFS re-logs
        # few vertices: it reads only improving vertices' edges).
        g = small_rmat(n=4096, m=8 * 4096, seed=3)
        t = TraceRecorder()
        res = repro.run(g, MISProgram(seed=0), config=cfg, tracer=t, max_supersteps=64,
                        options=EngineOptions(enable_edgelog=True))
        flushes = [e.fields for e in t.events if e.kind == "elog_flush"]
        written = res.stats.writes["edgelog"]
        assert flushes and all(f["pages"] >= 1 and f["time_us"] > 0 for f in flushes)
        assert sum(f["pages"] for f in flushes) == written.pages
        assert len(flushes) == written.batches < written.pages
        assert res.metrics["edgelog.flushes"] == written.batches
        assert res.metrics["edgelog.pages_written"] == written.pages

    def test_field_in_record_dict(self, cfg, rmat256):
        res = MultiLogVC(rmat256, GraphColoringProgram(seed=1), cfg).run(8)
        for r in res.supersteps:
            assert "edgelog_pages_avoided" in r.to_dict()
            assert r.edgelog_pages_avoided >= 0
