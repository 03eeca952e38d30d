"""The edge log's batched writer against the eager writer it replaced.

The eager writer wrote every page the moment it filled and the trailing
partial page on its own at superstep end.  The batched writer keeps
completed pages in the B% buffer (``MemoryBudget.edgelog_pages``, in-fill
page included) and writes them as one striped batch when the next entry
does not fit; an entry larger than the whole buffer is written as soon
as it completes.  Only the number of write ops may differ: the page
maps, the pages written with their useful bytes and the pages a loader
reads must be identical.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import EngineOptions
from repro.algorithms import BFSProgram, MISProgram
from repro.config import MemoryConfig, SimConfig, SSDConfig
from repro.core import engine as engine_mod
from repro.core.edgelog import EdgeLogOptimizer
from repro.graph.datasets import bfs_chain_graph, small_rmat
from repro.mem import MemoryBudget
from repro.obs import TraceRecorder, write_jsonl
from repro.ssd import SimFS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from validate_trace import validate_file  # noqa: E402


class EagerEdgeLog(EdgeLogOptimizer):
    """Reference model: the per-vertex writer the batched one replaced.

    Each entry is appended on its own and the pages it completes are
    written at once; the base class's superstep end then finds only the
    partial tail page left to write.
    """

    def consider(self, vertices, degrees) -> int:
        rec = self.config.records
        logged = 0
        for v, degree in zip(np.asarray(vertices).tolist(), np.asarray(degrees).tolist()):
            self.considered += 1
            if degree <= 0:
                continue
            nbytes = rec.edgelog_header_bytes + degree * rec.edgelog_entry_bytes
            first, last, completed = self._pager.append(nbytes)
            self._next_first[v] = first
            self._next_last[v] = last
            if len(completed):
                self._file_next.append_pages([None] * len(completed))
            self.vertices_logged += 1
            self.total_logged += 1
            logged += 1
        return logged


def buffer_batches(supersteps, page: int, cap: int, entry_bytes) -> list:
    """Page-at-a-time model of the B% buffer: ``(pages, why)`` per write batch.

    ``why`` is ``"full"`` (the next entry did not fit beside the pages
    held), ``"hub"`` (one entry larger than the whole buffer) or
    ``"end"`` (superstep end).
    """
    out = []
    for groups in supersteps:
        offset = written = 0
        for degrees in groups:
            for deg in degrees:
                if deg <= 0:
                    continue
                first, end = offset // page, offset + entry_bytes(deg)
                if -(-end // page) - written > cap:
                    if first > written:
                        out.append((first - written, "full"))
                        written = first
                    if -(-end // page) - written > cap:
                        out.append((end // page - written, "hub"))
                        written = end // page
                offset = end
        held = -(-offset // page) - written
        if held:
            out.append((held, "end"))
    return out


def make(cls, page_size: int, total_bytes: int, n: int, tracer=None):
    cfg = SimConfig(
        ssd=SSDConfig(page_size=page_size, channels=4),
        memory=MemoryConfig(total_bytes=total_bytes),
    )
    fs = SimFS(cfg)
    budget = MemoryBudget.resolve(cfg, 4)
    kw = {} if tracer is None else {"tracer": tracer}
    return fs, cls(fs, n, cfg, budget, **kw)


def write_ops(fs) -> int:
    c = fs.stats.writes.get("edgelog")
    return c.batches if c else 0


def pages_written(fs) -> int:
    c = fs.stats.writes.get("edgelog")
    return c.pages if c else 0


degree = st.one_of(st.integers(0, 60), st.integers(0, 4000))
supersteps_st = st.lists(
    st.lists(st.lists(degree, max_size=12), max_size=6), min_size=1, max_size=3
)


def check_batched_matches_eager(supersteps, page_size, total_bytes):
    n = max(1, max(sum(len(g) for g in groups) for groups in supersteps))
    tracer = TraceRecorder()
    fs_b, batched = make(EdgeLogOptimizer, page_size, total_bytes, n, tracer)
    fs_e, eager = make(EagerEdgeLog, page_size, total_bytes, n)
    cap = batched.budget.edgelog_pages
    rec = batched.config.records
    for groups in supersteps:
        v0 = 0
        for degrees in groups:
            verts = np.arange(v0, v0 + len(degrees), dtype=np.int64)[::-1]
            degs = np.array(degrees, dtype=np.int64)
            v0 += len(degrees)
            assert batched.consider(verts, degs) == eager.consider(verts, degs)
            # After every group the buffer holds at most B% worth of pages.
            held = -(-batched._pager.offset // page_size) - batched._file_next.n_pages
            assert held <= cap
        batched.end_superstep()
        eager.end_superstep()
        for a, b in ((batched._cur_first, eager._cur_first), (batched._cur_last, eager._cur_last)):
            assert np.array_equal(a, b)
        assert batched._file_cur.n_pages == eager._file_cur.n_pages
        assert batched._file_cur._useful == eager._file_cur._useful
        every = np.arange(n, dtype=np.int64)
        assert np.array_equal(batched.pages_of(every), eager.pages_of(every))
        assert batched.charge_read(every) == eager.charge_read(every)
        assert fs_b.stats.reads.get("edgelog") == fs_e.stats.reads.get("edgelog")
    assert (batched.considered, batched.total_logged) == (eager.considered, eager.total_logged)
    assert pages_written(fs_b) == pages_written(fs_e)
    assert write_ops(fs_b) <= write_ops(fs_e)
    model = buffer_batches(
        supersteps, page_size, cap,
        lambda d: rec.edgelog_header_bytes + d * rec.edgelog_entry_bytes,
    )
    assert [e.fields["pages"] for e in tracer.events if e.kind == "elog_flush"] == [p for p, _ in model]
    assert write_ops(fs_b) == len(model)
    # Only a single oversized entry's own batch may exceed the buffer.
    assert all(p <= cap for p, why in model if why != "hub")


writer_cases = dict(
    supersteps=supersteps_st,
    page_size=st.sampled_from([512, 1024, 4096]),
    total_bytes=st.sampled_from([96 << 10, 256 << 10, 1 << 20]),
)


@given(**writer_cases)
@settings(max_examples=30, deadline=None)
def test_batched_writer_matches_eager_layout_with_fewer_ops(supersteps, page_size, total_bytes):
    check_batched_matches_eager(supersteps, page_size, total_bytes)


@pytest.mark.slow
@given(**writer_cases)
@settings(max_examples=120, deadline=None)
def test_batched_writer_matches_eager_layout_with_fewer_ops_full_budget(
    supersteps, page_size, total_bytes
):
    check_batched_matches_eager(supersteps, page_size, total_bytes)


def test_one_write_per_full_buffer(cfg):
    """Forty pages of 128-byte entries: the eager writer made forty writes."""
    fs, e = make(EdgeLogOptimizer, 4096, cfg.memory.total_bytes, 1280)
    cap = e.budget.edgelog_pages
    assert cap >= 2
    rec = e.config.records
    assert rec.edgelog_header_bytes + 10 * rec.edgelog_entry_bytes == 128
    e.consider(np.arange(1280), np.full(1280, 10))
    e.end_superstep()
    assert fs.stats.writes["edgelog"].pages == 40
    assert write_ops(fs) == -(-40 // cap)


def test_hub_written_when_it_completes(cfg):
    tracer = TraceRecorder()
    fs, e = make(EdgeLogOptimizer, 4096, cfg.memory.total_bytes, 8, tracer)
    cap = e.budget.edgelog_pages
    rec = e.config.records
    small, hub = 100, (cap + 2) * 4096 // rec.edgelog_entry_bytes
    e.consider(np.array([0, 1, 2]), np.array([small, small, hub]))
    sizes = [rec.edgelog_header_bytes + d * rec.edgelog_entry_bytes for d in (small, small, hub)]
    pages = [e.fields["pages"] for e in tracer.events if e.kind == "elog_flush"]
    # Nothing complete ahead of the hub: its own complete pages, one batch.
    assert pages == [sum(sizes) // 4096]
    e.end_superstep()
    assert len(pages) + 1 == write_ops(fs)


def test_engine_run_matches_eager_writer(cfg, monkeypatch):
    """A whole MIS run: same values, records and pages; fewer write ops.

    MIS, as in the edge-log ablation: its flushes span several pages,
    where BFS reads only improving vertices' edges and re-logs few."""
    g = small_rmat(n=4096, m=8 * 4096, seed=3)

    def run():
        t = TraceRecorder()
        r = repro.run(g, MISProgram(seed=0), config=cfg, tracer=t, max_supersteps=64,
                      options=EngineOptions(enable_edgelog=True))
        return r, t

    batched, trace = run()
    monkeypatch.setattr(engine_mod, "EdgeLogOptimizer", EagerEdgeLog)
    eager, _ = run()
    assert np.array_equal(batched.values, eager.values)
    fields = ("active_vertices", "edgelog_vertices_logged", "edgelog_pages_avoided",
              "pages_read", "pages_written", "pages_read_by_class")
    for a, b in zip(batched.supersteps, eager.supersteps, strict=True):
        assert all(getattr(a, f) == getattr(b, f) for f in fields)
    wb, we = batched.stats.writes["edgelog"], eager.stats.writes["edgelog"]
    assert wb.pages == we.pages and wb.batches < we.batches
    assert batched.storage_time_us < eager.storage_time_us


def test_trace_validates(cfg, tmp_path):
    g, source = bfs_chain_graph("test", seed=77)
    t = TraceRecorder()
    repro.run(g, BFSProgram(source=source), config=cfg, tracer=t, max_supersteps=64)
    assert any(e.kind == "elog_flush" for e in t.events)
    path = tmp_path / "t.jsonl"
    write_jsonl(t.events, str(path))
    assert validate_file(path) == []


@pytest.mark.parametrize("fields,msg", [
    ('"pages": 0, "time_us": 230.0', "'pages' must be an integer >= 1"),
    ('"pages": 2, "time_us": 0.0', "'time_us' must be > 0"),
])
def test_validator_rejects_empty_or_free_flush(tmp_path, fields, msg):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"kind": "run_begin", "t_us": 0, "step": -1}\n'
        f'{{"kind": "elog_flush", "t_us": 1, "step": 0, {fields}}}\n'
    )
    (err,) = validate_file(path)
    assert msg in err
