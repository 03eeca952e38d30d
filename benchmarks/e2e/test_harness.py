"""Tests of the benchmark harness itself.

Run by explicit path -- not part of tier-1 collection (``testpaths`` is
``tests``)::

    python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import catalog  # noqa: E402
import layers  # noqa: E402
import run as run_mod  # noqa: E402
from spans import SpanRecorder, summarise  # noqa: E402


# -- span recorder ---------------------------------------------------------------


class _Toy:
    def outer(self, worker=None):
        time.sleep(0.02)
        self.inner()
        if worker is not None:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        self.inner()

    def inner(self):
        time.sleep(0.01)

    def off_thread(self):
        time.sleep(0.03)

    def items(self):
        for i in range(3):
            time.sleep(0.005)
            yield i


def test_self_time_nested_and_two_threads():
    rec = SpanRecorder(anchor="toy.outer")
    rec.wrap(_Toy, "outer", "toy.outer")
    rec.wrap(_Toy, "inner", "toy.inner")
    rec.wrap(_Toy, "off_thread", "toy.off_thread")
    try:
        toy = _Toy()
        toy.outer(worker=toy.off_thread)
    finally:
        rec.restore()
    s = summarise(rec.spans)
    assert s["toy.inner"]["calls"] == 2
    outer, inner, off = s["toy.outer"], s["toy.inner"], s["toy.off_thread"]
    # Same-thread children are subtracted ...
    assert outer["self_s"] == pytest.approx(outer["incl_s"] - inner["incl_s"], abs=1e-9)
    # ... the other thread's span is not (it ran inside outer's interval),
    assert outer["self_s"] >= 0.02 + off["incl_s"] - 0.005
    # but it hangs off the anchor span.
    by_name = {sp[1]: sp for sp in rec.spans}
    assert by_name["toy.off_thread"][4] == by_name["toy.outer"][0]
    assert by_name["toy.off_thread"][5] != by_name["toy.outer"][5]
    assert by_name["toy.outer"][4] == 0
    assert off["self_s"] == pytest.approx(off["incl_s"])


def test_iterator_spans_time_next_not_the_consumer():
    rec = SpanRecorder()
    rec.wrap_iter(_Toy, "items", "toy.next")
    try:
        for _ in _Toy().items():
            time.sleep(0.02)  # consumer work: outside every span
    finally:
        rec.restore()
    s = summarise(rec.spans)["toy.next"]
    assert s["calls"] == 4  # three items + the exhausted call
    assert 0.015 <= s["incl_s"] < 0.05


def test_count_only_wrapper_and_restore():
    rec = SpanRecorder()
    original = _Toy.__dict__["inner"]
    rec.count_calls(_Toy, "inner", "toy.inner")
    _Toy().inner()
    _Toy().inner()
    assert rec.calls["toy.inner"] == 2 and not rec.spans
    rec.restore()
    assert _Toy.__dict__["inner"] is original and rec.installed == 0


def test_layer_wrappers_fully_restored():
    import importlib
    import inspect

    owners = [
        (getattr(importlib.import_module(module), cls), attr)
        for module, cls, attr, _name, _kind in layers.WRAPS
    ]
    before = [owner.__dict__[attr] for owner, attr in owners]
    rec = SpanRecorder()
    layers.install(rec)
    try:
        assert rec.installed == len(layers.WRAPS)
        assert all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(owners, before))
        # repro.run() discovers resume/warm-start support from this signature.
        from repro.core.engine import MultiLogVC

        assert "initial_state" in inspect.signature(MultiLogVC.run).parameters
    finally:
        rec.restore()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(owners, before))


# -- declarations ----------------------------------------------------------------------


def test_every_per_layer_metric_has_a_prediction_and_names_are_unique():
    spec = catalog.load()
    names = [m["name"] for m in spec["per_layer"]] + [m["name"] for m in spec["end_to_end"]]
    assert len(names) == len(set(names))
    missing = [m["name"] for m in spec["per_layer"] if not catalog.predictions_for(m["name"])]
    assert not missing
    assert spec["paths"] == ["benchmarks/e2e"]
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seed_zero_is_the_named_dataset():
    import numpy as np
    from repro.graph.datasets import cf_like
    from workloads import cf_graph

    ours, theirs = cf_graph(0, "test", weighted=True), cf_like("test", weighted=True)
    assert np.array_equal(ours.rowptr, theirs.rowptr)
    assert np.array_equal(ours.colidx, theirs.colidx)
    assert np.array_equal(ours.weights, theirs.weights)
    assert cf_graph(1, "test").m != ours.m or not np.array_equal(cf_graph(1, "test").colidx, ours.colidx)


# -- the command, end to end (quick mode) ----------------------------------------------


def _quick(tmp_path, tag, *extra):
    out = tmp_path / f"{tag}.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), json.loads(proc.stdout.splitlines()[-1]), elapsed


def test_quick_mode_all_workloads_fast_correct_and_repeatable(tmp_path):
    doc1, last1, elapsed = _quick(tmp_path, "a", "--all", "--trace")
    assert elapsed < 15.0
    assert doc1["quick"] is True and all(r["quick"] for r in doc1["workloads"].values())
    assert last1["correct"] is True and last1["failed"] == 0 and last1["attempted"] >= 5
    assert set(doc1["configs"]) == {"BASE", "PARALLEL", "CACHED", "TIGHT", "BASE+stream"}
    assert set(doc1["host_info"]) == {"nproc", "python", "numpy"}

    doc2, _, _ = _quick(tmp_path, "b", "--all", "--trace")
    for name, r1 in doc1["workloads"].items():
        r2 = doc2["workloads"][name]
        assert r1["simulated"] == r2["simulated"]
        sim_layers = {k: v for k, v in r1["per_layer"].items() if catalog.kind(k) == "simulated"}
        assert sim_layers == {k: r2["per_layer"][k] for k in sim_layers}

    import compare

    rows = compare.compare(doc1, doc2, catalog.load())
    assert not [r for r in rows if r["kind"] == "simulated" and r["verdict"] != "ok"]
    gated = {(r["workload"], r["metric"]) for r in rows}
    assert ("stream_churn", "batch_ms_p90") in gated and ("pr_dense", "wall_s") in gated
    assert ("pr_dense", "ref_s") not in gated and ("pr_dense", "batch_ms_p90") not in gated

    # Layers a workload bypasses are left out, not zero-filled.
    dense = doc1["workloads"]["pr_dense"]["per_layer"]
    assert not any(k.startswith(("pagecache.", "ioplan.", "array.", "scheduler.", "stream.")) for k in dense)
    assert "pagecache.hit_rate" in doc1["workloads"]["pr_cached"]["per_layer"]
    assert doc1["workloads"]["pr_parallel"]["per_layer"]["scheduler.groups"] > 0
    assert "stream.write_amp" in doc1["workloads"]["stream_churn"]["per_layer"]
    assert (HERE / "out" / "trace-pr_dense.jsonl").is_file()


def test_last_line_carries_every_declared_metric(tmp_path):
    spec = catalog.load()
    _, last, _ = _quick(tmp_path, "e2e", "--workload", "stream_churn", "--trace", "0")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] != 0 for v in last["metrics"].values())
    _, last, _ = _quick(tmp_path, "layer", "--workload", "bfs_tightcache", "--trace", "1")
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert last["metrics"]["stream.compactions"]["value"] == 0  # bypassed: zero here only


def test_repro_env_knobs_are_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_WORKERS", "4")
    monkeypatch.setenv("REPRO_IO_PLAN", "coalesce")
    env = run_mod.child_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_refuses_a_short_sample():
    import worker

    with pytest.raises(worker.HarnessError):
        worker.host_stat([1.0, 1.1, 1.2], need=5)
    assert worker.host_stat([1.0, 2.0, 3.0], need=3)["median"] == 2.0


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    # What the external driver checks: only BENCHMARK.json and the files
    # under ``paths`` exist.
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "pr_dense", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    import compare

    assert compare.verdict(1.0, 1.05, "lower", 0.10, 0.02) == "ok"
    assert compare.verdict(1.0, 1.20, "lower", 0.10, 0.02) == "regressed"
    assert compare.verdict(1.0, 0.80, "higher", 0.10, 0.02) == "regressed"
    assert compare.verdict(1.0, 1.20, "higher", 0.10, 0.02) == "ok"
    assert compare.verdict(1.0, 1.01, "lower", 0.10, 0.15) == "unresolved"
    assert compare.verdict(903.78, 903.79, "lower", 0.0, 0.0) == "regressed"
