"""Differential fuzzer and failing-case shrinker (DESIGN.md §9).

The headline demo: an intentionally injected off-by-one in the
multi-log consume path is caught by the differential check and reduced
by the shrinker to a minimal repro (well under the 8-vertex target),
which replays green on the clean engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro.verify.fuzzer as fuzzer_module
from repro.algorithms import MISProgram
from repro.core.multilog import MultiLogUnit
from repro.core.update import UpdateBatch
from repro.graph.partition import VertexIntervals
from repro.mem.pagecache import PageCache
from repro.recovery import count_device_ops
from repro.ssd.array import DeviceArray
from repro.verify import (
    ConformanceCase,
    fuzz,
    generate_cases,
    load_case,
    replay_case,
    run_case,
    save_case,
    shrink,
)
from repro.verify.fuzzer import (
    build_config,
    build_graph,
    build_options,
    build_program,
    explicit_spec,
    generate_case,
)
from repro.verify.shrinker import _ddmin


def test_case_generation_is_deterministic():
    a = [c.to_dict() for c in generate_cases(7, 12)]
    b = [c.to_dict() for c in generate_cases(7, 12)]
    assert a == b
    # JSON round trip preserves the case exactly.
    for d in a:
        assert ConformanceCase.from_dict(json.loads(json.dumps(d))).to_dict() == d


def test_engine_filter_preserves_case_identity():
    all_cases = {c.case_id: c for c in generate_cases(3, 24)}
    only_mlvc = generate_cases(3, 6, engines=["multilogvc"])
    assert all(c.engine == "multilogvc" for c in only_mlvc)
    for c in only_mlvc:
        assert all_cases[c.case_id].to_dict() == c.to_dict()


def test_generated_graphs_cover_adversarial_shapes():
    cases = generate_cases(0, 64)
    kinds = {c.graph["kind"] for c in cases}
    assert {"rmat", "star", "chain", "ring", "two_comp"} <= kinds
    assert any(not c.graph.get("dedup", True) for c in cases)  # multi-edges
    assert any(c.graph.get("self_loops") for c in cases)
    assert any(c.graph.get("pad", 0) > 0 for c in cases)  # empty intervals
    scenarios = {c.scenario for c in cases}
    assert scenarios == {"plain", "resume", "crash_resume", "transient_fault"}
    assert any(c.options.get("mode") == "async" for c in cases)
    # Send-side combine on (the default) and off, MultiLogVC only.
    off = [c for c in cases if c.options.get("enable_precombine") is False]
    assert off and all(c.engine == "multilogvc" for c in off)
    assert any(c.engine == "multilogvc" and "enable_precombine" not in c.options for c in cases)
    # GraphChi's per-edge message slots require simple graphs.
    assert all(c.graph.get("dedup") for c in cases
               if c.engine == "graphchi" and c.graph["kind"] != "explicit")


def test_explicit_spec_round_trips():
    spec = generate_case(0, 4).graph
    g = build_graph(spec)
    g2 = build_graph(explicit_spec(spec))
    assert g.n == g2.n
    assert np.array_equal(g.rowptr, g2.rowptr)
    assert np.array_equal(g.colidx, g2.colidx)
    if g.weights is not None:
        assert np.array_equal(g.weights, g2.weights)


def test_quick_fuzz_all_engines_conform():
    outcomes = fuzz(0, 16)
    bad = [o.describe() for o in outcomes if not o.ok]
    assert bad == []


@pytest.mark.soak
def test_fuzz_soak_many_seeds():
    """Nightly-depth sweep; tools/conformance_soak.py is the CI entry."""
    for seed in range(5):
        bad = [o.describe() for o in fuzz(seed, 60) if not o.ok]
        assert bad == [], f"seed {seed}: {bad}"


def test_ddmin_minimises_synthetic_predicate():
    items = list(range(40))
    # Failure needs both 7 and 23 present.
    result = _ddmin(items, lambda sub: 7 in sub and 23 in sub)
    assert sorted(result) == [7, 23]


def test_save_load_replay_round_trip(tmp_path):
    case = generate_case(0, 0)
    path = save_case(case, str(tmp_path), mismatches=["demo"], note="round trip")
    loaded = load_case(path)
    assert loaded.to_dict() == case.to_dict()
    assert replay_case(path).ok


def test_seeded_tree_mutation_is_caught(monkeypatch):
    """The combine tree is per *source interval*; reducing a fused
    group's sends as one run per destination is a different float tree.
    Case 104 of seed 7 (PageRank, four intervals, fused) is one of the
    3 in 300 generated cases that can tell, and all 3 do (DESIGN.md §15)."""
    import repro.core.engine as engine_module

    case = generate_case(7, 104)
    assert (case.program, case.options) == ("pagerank", {"min_intervals": 4})
    assert run_case(case).ok
    real = engine_module.precombine
    monkeypatch.setattr(
        engine_module, "precombine",
        lambda batch, spec, iv: real(batch, spec, VertexIntervals(iv.boundaries[[0, -1]])),
    )
    outcome = run_case(case)
    assert any("values differ" in m for m in outcome.mismatches)


def _round_zero_priorities(self, graph, superstep, rng):
    self._n = graph.n
    self._pri = self._round_priorities(0)


@pytest.mark.parametrize(
    "stub", [lambda self, graph, superstep, rng: None, _round_zero_priorities],
    ids=["no-op", "round-0"],
)
def test_mis_resume_case_pins_prepare_resume(monkeypatch, stub):
    """The saved MIS resume case resumes mid-run, so the resumed supersteps
    read the round priorities ``prepare_resume()`` rebuilds: without them,
    or with another round's, the replay fails."""
    path = str(Path(__file__).parent / "cases" / "mis-resume-round-state.json")
    assert replay_case(path).ok
    monkeypatch.setattr(MISProgram, "prepare_resume", stub)
    assert not replay_case(path).ok


@pytest.mark.parametrize(
    "index, overlay, knob",
    [(12, DeviceArray, "num_devices"), (100, PageCache, "cache_policy")],
    ids=["device-array", "page-cache"],
)
def test_crash_resume_case_catches_unrestored_overlay(monkeypatch, index, overlay, knob):
    """A resumed run must continue the device array's clocks and the
    cache's counters from the checkpoint.  Left at the fresh engine's,
    the values still match the oracle; only the comparison with the
    uninterrupted run's trace tells."""
    case = generate_case(7, index)
    assert case.scenario == "crash_resume" and knob in case.config
    clean = run_case(case)
    assert clean.ok and clean.note.startswith("crashed, resumed")
    monkeypatch.setattr(overlay, "restore_overlay", lambda self, state: None)
    outcome = run_case(case)
    assert any(m.startswith("resumed trace:") for m in outcome.mismatches)
    assert not any("values" in m for m in outcome.mismatches)


@pytest.mark.slow
def test_resume_cases_resume_with_supersteps_left(monkeypatch):
    """``resume`` cuts power at the second checkpoint, so every case among
    the first 200 of seeds 0 and 7 whose run wrote two re-executes at
    least one superstep after the load."""
    reports = []
    real = fuzzer_module.crash_resume_experiment
    monkeypatch.setattr(
        fuzzer_module,
        "crash_resume_experiment",
        lambda *args, **kwargs: reports.append(real(*args, **kwargs)) or reports[-1],
    )
    resumed = 0
    for case in generate_cases(0, 200) + generate_cases(7, 200):
        if case.scenario != "resume":
            continue
        outcome = run_case(case)
        assert outcome.ok, outcome.describe()
        report = reports[-1]
        written = sum(e.kind == "checkpoint_write" for e in report.baseline.trace)
        if written >= 2:
            assert report.resumed is not None, case.case_id
            assert report.resumed.n_supersteps > report.checkpoint_step + 1, case.case_id
            resumed += 1
    assert len(reports) == 50 and resumed >= 40


@pytest.mark.slow
def test_checkpoint_cases_put_multilog_pages_on_flash():
    """At least one in five ``resume`` / ``crash_resume`` cases among the
    first 200 of seeds 0 and 7 evicts multi-log pages, so random crash
    points land while the logs are on flash."""
    cases = [
        case
        for seed in (0, 7)
        for case in generate_cases(seed, 200)
        if case.scenario in ("resume", "crash_resume")
    ]
    spilled = 0
    for case in cases:
        _, run = count_device_ops(
            lambda: build_graph(case.graph),
            lambda: build_program(case),
            config=build_config(case.config),
            options=build_options(case),
            seed=case.seed,
            max_supersteps=case.max_supersteps,
        )
        spilled += "mlog" in run.stats.writes and run.stats.writes["mlog"].pages > 0
    assert len(cases) == 100 and spilled >= 20


# -- the headline shrinker demo ---------------------------------------------


def _install_off_by_one(monkeypatch):
    """Drop the last record of every consumed multi-log batch."""
    real_consume = MultiLogUnit.consume

    def buggy_consume(self, interval_ids, plan=None):
        batch = real_consume(self, interval_ids, plan=plan)
        if batch.n > 0:
            return UpdateBatch.of(batch.dest[:-1], batch.src[:-1], batch.data[:-1])
        return batch

    monkeypatch.setattr(MultiLogUnit, "consume", buggy_consume)


DEMO_CASE = ConformanceCase(
    case_id="demo-offbyone",
    engine="multilogvc",
    program="bfs",
    prog_params={"source": 0},
    graph={"kind": "chain", "n": 24, "seed": 0, "symmetrize": True, "dedup": False},
    options={},
    config={},
    max_supersteps=30,
    seed=0,
)


def test_injected_off_by_one_is_caught(monkeypatch):
    assert run_case(DEMO_CASE).ok  # clean engine conforms
    _install_off_by_one(monkeypatch)
    outcome = run_case(DEMO_CASE)
    assert not outcome.ok
    assert any("values differ" in m for m in outcome.mismatches)


def test_shrinker_reduces_injected_bug_to_minimal_repro(monkeypatch, tmp_path):
    _install_off_by_one(monkeypatch)
    small = shrink(DEMO_CASE)
    # ISSUE target: <= 8 vertices.  The true minimum is a single vertex:
    # the bug even drops BFS's lone initial message to the source.
    assert small.graph["kind"] == "explicit"
    assert small.graph["n"] <= 8
    assert len(small.graph["src"]) <= 4
    assert small.max_supersteps <= 3
    assert not run_case(small).ok  # still fails under the bug
    path = save_case(small, str(tmp_path), note="injected off-by-one demo")
    monkeypatch.undo()
    outcome = replay_case(path)  # regression replay on the clean engine
    assert outcome.ok


def test_shrink_requires_a_failing_case():
    with pytest.raises(ValueError):
        shrink(DEMO_CASE)  # clean engine: nothing to shrink
