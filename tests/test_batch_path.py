"""Vectorised batch-processing path: equivalence and helpers."""

import numpy as np
import pytest

from repro.config import small_test_config
from repro.options import EngineOptions
from repro.core import MultiLogVC
from repro.core.batch import BatchContext, flatten_ranges
from repro.errors import ProgramError
from repro.graph.datasets import small_rmat, two_components
from repro.algorithms import (
    BFSProgram,
    DeltaPageRankProgram,
    WCCProgram,
    bfs_reference,
    pagerank_reference,
    wcc_reference,
)

from .conftest import scalar_variant


class TestFlattenRanges:
    def test_basic(self):
        idx = flatten_ranges(np.array([0, 5]), np.array([2, 8]))
        assert list(idx) == [0, 1, 5, 6, 7]

    def test_empty_ranges(self):
        idx = flatten_ranges(np.array([3, 4]), np.array([3, 4]))
        assert idx.size == 0

    def test_mixed(self):
        idx = flatten_ranges(np.array([0, 10, 20]), np.array([1, 10, 22]))
        assert list(idx) == [0, 20, 21]


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize(
        "factory,steps",
        [
            (lambda: DeltaPageRankProgram(threshold=1e-3), 15),
            (lambda: BFSProgram(0), 40),
            (lambda: WCCProgram(), 60),
        ],
    )
    def test_values_and_traces_match(self, cfg, rmat256, factory, steps):
        a = MultiLogVC(rmat256, factory(), cfg, options=EngineOptions(min_intervals=4)).run(steps)
        b = MultiLogVC(rmat256, scalar_variant(factory()), cfg, options=EngineOptions(min_intervals=4)).run(steps)
        assert np.array_equal(
            np.nan_to_num(a.values, posinf=-1), np.nan_to_num(b.values, posinf=-1)
        )
        assert np.array_equal(a.activity_trace(), b.activity_trace())
        assert [r.messages_sent for r in a.supersteps] == [r.messages_sent for r in b.supersteps]

    def test_batch_correct_vs_references(self, cfg, rmat256):
        r = MultiLogVC(rmat256, BFSProgram(3), cfg).run(100)
        assert np.array_equal(
            np.nan_to_num(r.values, posinf=-1), np.nan_to_num(bfs_reference(rmat256, 3), posinf=-1)
        )
        r = MultiLogVC(rmat256, DeltaPageRankProgram(threshold=1e-10), cfg).run(200)
        assert np.abs(r.values - pagerank_reference(rmat256)).max() < 1e-6

    def test_batch_on_disconnected_graph(self, cfg, two_comp):
        r = MultiLogVC(two_comp, WCCProgram(), cfg).run(100)
        assert np.array_equal(r.values, wcc_reference(two_comp))

    def test_batch_with_edge_state_runs(self, cfg, rmat256):
        from repro.algorithms import CommunityDetectionProgram

        # CDLP uses edge state: batched via the gather/scatter copy path.
        r = MultiLogVC(rmat256, CommunityDetectionProgram(), cfg).run(5)
        assert r.n_supersteps > 0

    def test_batch_wallclock_not_slower_much(self, rmat256):
        # Sanity only: both paths complete; no timing assertion (flaky).
        cfg = small_test_config()
        MultiLogVC(rmat256, WCCProgram(), cfg).run(20)


def make_batch(sends):
    vids = np.array([2, 5, 7], dtype=np.int64)
    return BatchContext(
        vids=vids,
        superstep=1,
        values=np.arange(10, dtype=np.float64),
        u_lo=np.array([0, 1, 3]),
        u_hi=np.array([1, 3, 3]),
        usrc=np.array([9, 8, 7], dtype=np.int32),
        udata=np.array([1.0, 2.0, 3.0]),
        degrees=np.array([2, 0, 1], dtype=np.int64),
        nb_offsets=np.array([0, 2, 2, 3], dtype=np.int64),
        nb_flat=np.array([1, 3, 9], dtype=np.int64),
        w_flat=None,
        send_batch=lambda d, s, x: sends.append((d.tolist(), s.tolist(), np.asarray(x).tolist())),
        rng=np.random.default_rng(0),
    )


class TestBatchContext:
    def test_geometry(self):
        b = make_batch([])
        assert b.k == 3
        assert b.total_updates == 3
        assert list(b.update_counts) == [1, 2, 0]

    def test_combined_update_requires_single(self):
        b = make_batch([])
        with pytest.raises(ProgramError):
            b.combined_update()

    def test_combined_update(self):
        sends = []
        b = make_batch(sends)
        b.u_lo = np.array([0, 1, 2])
        b.u_hi = np.array([1, 2, 3])  # one update each
        out = b.combined_update(default=-1.0)
        assert list(out) == [1.0, 2.0, 3.0]

    def test_combined_update_default(self):
        b = make_batch([])
        b.u_lo = np.array([0, 0, 0])
        b.u_hi = np.array([1, 0, 0])
        out = b.combined_update(default=7.0)
        assert list(out) == [1.0, 7.0, 7.0]

    def test_send_along_edges(self):
        sends = []
        b = make_batch(sends)
        b.send_along_edges(np.array([True, True, False]), np.array([5.0, 6.0, 7.0]))
        (d, s, x), = sends
        assert d == [1, 3]  # vertex 5 has degree 0
        assert s == [2, 2]
        assert x == [5.0, 5.0]

    def test_send_along_edges_mask_shape(self):
        b = make_batch([])
        with pytest.raises(ProgramError):
            b.send_along_edges(np.array([True]), np.array([1.0]))

    def test_send_edge_values(self):
        sends = []
        b = make_batch(sends)
        b.send_edge_values(np.array([True, False, True]), np.array([10.0, 11.0, 12.0]))
        (d, s, x), = sends
        assert d == [1, 3, 9]
        assert s == [2, 2, 7]
        assert x == [10.0, 11.0, 12.0]

    def test_send_edge_values_length_check(self):
        b = make_batch([])
        with pytest.raises(ProgramError):
            b.send_edge_values(np.array([True, False, False]), np.array([1.0]))

    def test_keep_active(self):
        b = make_batch([])
        b.keep_active(np.array([False, True, False]))
        assert list(b._stay_mask) == [False, True, False]

    def test_no_send_empty_selection(self):
        sends = []
        b = make_batch(sends)
        b.send_along_edges(np.zeros(3, dtype=bool), np.zeros(3))
        assert sends == []
