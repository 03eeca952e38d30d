"""RunResult/ComputeMeter helpers and direct VertexContext behaviour."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.api import VertexContext
from repro.core.results import ComputeMeter, RunResult, SuperstepRecord, speedup
from repro.errors import ProgramError
from repro.ssd.stats import SSDStats


def make_result(times, engine="e", compute=0.0):
    recs = [
        SuperstepRecord(i, 10, 5, 5, 20, t, 1.0, 3, 2, records_logged=5)
        for i, t in enumerate(times)
    ]
    stats = SSDStats()
    for t in times:
        stats.record_read("x", 3, 3 * 4096, t)
    return RunResult(engine, "p", np.zeros(4), recs, True, stats, compute)


class TestComputeMeter:
    def test_charges_scale_with_cores(self):
        import dataclasses

        c1 = ComputeMeter(dataclasses.replace(DEFAULT_CONFIG.compute, cores=1))
        c4 = ComputeMeter(dataclasses.replace(DEFAULT_CONFIG.compute, cores=4))
        for m in (c1, c4):
            m.charge_vertices(100)
            m.charge_edges(1000)
            m.charge_updates(500)
        assert c1.time_us == pytest.approx(4 * c4.time_us)

    def test_sort_charge_nlogn(self):
        m = ComputeMeter(DEFAULT_CONFIG.compute)
        m.charge_sort(1, 1, "sort_group")  # no-op for n <= 1
        assert m.time_us == 0.0
        # n runs of one key each: the merge is a full n log2 n sort.
        m.charge_sort(1024, 1024, "sort_group")
        c = DEFAULT_CONFIG.compute
        assert m.time_us == 1024 * 10 * c.per_sort_item_us / c.cores


class TestRunResult:
    def test_traces(self):
        r = make_result([5.0, 3.0, 1.0])
        assert list(r.time_trace()) == [6.0, 4.0, 2.0]
        assert list(r.activity_trace()) == [10, 10, 10]
        assert list(r.update_trace()) == [5, 5, 5]

    def test_storage_fraction(self):
        r = make_result([9.0], compute=1.0)
        assert r.storage_fraction() == pytest.approx(0.9)

    def test_speedup(self):
        fast = make_result([1.0])
        slow = make_result([9.0])
        assert speedup(slow, fast) == pytest.approx(9.0)

    def test_speedup_zero_time(self):
        z = RunResult("e", "p", np.zeros(1), [], True, SSDStats(), 0.0)
        assert speedup(make_result([1.0]), z) == float("inf")


def make_ctx(**over):
    sent = []
    kwargs = dict(
        vid=3,
        superstep=2,
        values=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        updates_src=np.array([1, 2], dtype=np.int32),
        updates_data=np.array([10.0, 20.0]),
        out_neighbors=np.array([0, 2, 4], dtype=np.int32),
        out_weights=np.array([1.0, 2.0, 3.0]),
        edge_state=np.array([5.0, 6.0, 7.0]),
        send=lambda d, s, x: sent.append((d, s, x)),
        send_many=lambda ds, s, xs: sent.extend((int(d), s, float(x)) for d, x in zip(ds, xs)),
        rng=np.random.default_rng(0),
        mutate=None,
    )
    kwargs.update(over)
    return VertexContext(**kwargs), sent


class TestVertexContext:
    def test_value_read_write(self):
        ctx, _ = make_ctx()
        assert ctx.value == 3.0
        ctx.value = 9.0
        assert ctx._values[3] == 9.0

    def test_value_of(self):
        ctx, _ = make_ctx()
        assert ctx.value_of(1) == 1.0

    def test_counts(self):
        ctx, _ = make_ctx()
        assert ctx.n_updates == 2
        assert ctx.degree == 3

    def test_send(self):
        ctx, sent = make_ctx()
        ctx.send(4, 1.5)
        assert sent == [(4, 3, 1.5)]

    def test_send_all(self):
        ctx, sent = make_ctx()
        ctx.send_all(2.0)
        assert sent == [(0, 3, 2.0), (2, 3, 2.0), (4, 3, 2.0)]

    def test_send_all_degree_zero(self):
        ctx, sent = make_ctx(out_neighbors=np.empty(0, np.int32), out_weights=None, edge_state=None)
        ctx.send_all(1.0)
        assert sent == []

    def test_send_many(self):
        ctx, sent = make_ctx()
        ctx.send_many(np.array([0, 4]), np.array([1.0, 2.0]))
        assert sent == [(0, 3, 1.0), (4, 3, 2.0)]

    def test_neighbor_index(self):
        ctx, _ = make_ctx()
        assert ctx.neighbor_index(2) == 1
        with pytest.raises(ProgramError):
            ctx.neighbor_index(1)

    def test_set_edge_state(self):
        ctx, _ = make_ctx()
        ctx.set_edge_state(4, 42.0)
        assert ctx.edge_state[2] == 42.0
        assert ctx.edge_state_dirty

    def test_set_edge_state_requires_declaration(self):
        ctx, _ = make_ctx(edge_state=None)
        with pytest.raises(ProgramError):
            ctx.set_edge_state(4, 1.0)

    def test_deactivate(self):
        ctx, _ = make_ctx()
        assert not ctx.deactivated
        ctx.deactivate()
        assert ctx.deactivated

    def test_mutation_without_engine_support(self):
        ctx, _ = make_ctx()
        with pytest.raises(ProgramError):
            ctx.add_edge(2)
        with pytest.raises(ProgramError):
            ctx.remove_edge(0)

    def test_mutation_callback(self):
        ops = []
        ctx, _ = make_ctx(mutate=lambda op, s, d, w: ops.append((op, s, d, w)))
        ctx.add_edge(2, 5.0)
        ctx.remove_edge(0)
        assert ops == [("add", 3, 2, 5.0), ("remove", 3, 0, 0.0)]
