"""On-SSD graph layouts: interval CSR (GraphOnSSD) and GraphChi shards."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import GraphOnSSD, ShardedGraph, partition_by_update_volume, uniform_partition
from repro.ssd import SimFS


@pytest.fixture
def gos(rmat256, cfg):
    fs = SimFS(cfg)
    iv = uniform_partition(rmat256.n, 4)
    return GraphOnSSD(rmat256.with_unit_weights(), iv, fs, cfg, with_weights=True)


class TestGraphOnSSD:
    def test_neighbors_match_csr(self, gos, rmat256):
        for v in (0, 7, 100, 255):
            assert np.array_equal(gos.neighbors(v), rmat256.neighbors(v))

    def test_degrees(self, gos, rmat256):
        for v in (0, 99, 255):
            assert gos.out_degree(v) == rmat256.out_degree(v)

    def test_weights(self, gos):
        assert (gos.weights(0) == 1.0).all()

    def test_local_ranges(self, gos, rmat256):
        iv = gos.intervals
        lo, hi = iv.span(1)
        vs = np.arange(lo, min(lo + 5, hi))
        local, starts, stops = gos.local_ranges(1, vs)
        assert (stops - starts == rmat256.out_degrees[vs]).all()

    def test_local_ranges_wrong_interval(self, gos):
        with pytest.raises(GraphFormatError):
            gos.local_ranges(0, np.array([gos.intervals.span(0)[1]]))

    def test_total_pages_positive(self, gos):
        assert gos.total_pages() > 0
        assert gos.colidx_pages() > 0

    def test_partition_mismatch_rejected(self, rmat256, cfg):
        fs = SimFS(cfg)
        iv = uniform_partition(rmat256.n - 1, 2)
        with pytest.raises(GraphFormatError):
            GraphOnSSD(rmat256, iv, fs, cfg)

    def test_rebuild_csr_identity(self, gos, rmat256):
        g2 = gos.rebuild_csr()
        assert np.array_equal(g2.rowptr, rmat256.rowptr)
        assert np.array_equal(g2.colidx, rmat256.colidx)

    def test_replace_interval(self, gos):
        files = gos.interval_files(0)
        nv = files.n_vertices
        new_rowptr = np.arange(nv + 1, dtype=np.int64)  # one edge each
        new_col = np.zeros(nv, dtype=np.int32)
        new_val = np.ones(nv)
        gos.replace_interval(0, new_rowptr, new_col, new_val)
        assert gos.out_degree(0) == 1
        assert list(gos.neighbors(0)) == [0]

    def test_replace_interval_validation(self, gos):
        with pytest.raises(GraphFormatError):
            gos.replace_interval(0, np.array([0, 5]), np.zeros(3, np.int32), np.zeros(3))

    def test_unweighted_storage(self, rmat256, cfg):
        fs = SimFS(cfg)
        iv = uniform_partition(rmat256.n, 2)
        g = GraphOnSSD(rmat256, iv, fs, cfg, with_weights=False)
        assert g.weights(0) is None
        assert g.interval_files(0).values is None


@pytest.fixture
def sharded(rmat256, cfg):
    return ShardedGraph(rmat256, SimFS(cfg), cfg, intervals=uniform_partition(rmat256.n, 4))


class TestShardedGraph:
    def test_every_edge_in_exactly_one_shard(self, sharded, rmat256):
        total = sum(s.n_edges for s in sharded.shards)
        assert total == rmat256.m

    def test_shards_sorted_by_src(self, sharded):
        for s in sharded.shards:
            assert (np.diff(s.src) >= 0).all()

    def test_shard_holds_in_edges_of_its_interval(self, sharded):
        for s in sharded.shards:
            assert (s.dst >= s.lo).all() and (s.dst < s.hi).all()

    def test_windows_partition_shard(self, sharded):
        for s in sharded.shards:
            assert s.window_rows[0] == 0
            assert s.window_rows[-1] == s.n_edges
            assert (np.diff(s.window_rows) >= 0).all()

    def test_window_contents(self, sharded):
        iv = sharded.intervals
        for s in sharded.shards:
            for j in range(iv.n_intervals):
                lo_r, hi_r = s.window(j)
                if hi_r > lo_r:
                    jlo, jhi = iv.span(j)
                    assert (s.src[lo_r:hi_r] >= jlo).all()
                    assert (s.src[lo_r:hi_r] < jhi).all()

    def test_in_edges_sorted_by_source(self, sharded, rmat256):
        for v in (0, 50, 200):
            srcs, _ = sharded.in_edge_state(v)
            assert (np.diff(srcs) >= 0).all()
            # symmetric dedup'd graph: in-edge sources == out-neighbors
            assert np.array_equal(srcs, rmat256.neighbors(v).astype(srcs.dtype))

    def test_deliver_and_fresh(self, sharded, rmat256):
        v = 0
        nb = rmat256.neighbors(v)
        u = int(nb[0])
        assert sharded.deliver(v, u, 3.5, stamp=4)
        srcs, vals = sharded.fresh_in_edges(u, 4)
        assert v in srcs.tolist()
        assert 3.5 in vals.tolist()
        # Different stamp -> not fresh.
        srcs, _ = sharded.fresh_in_edges(u, 5)
        assert v not in srcs.tolist()

    def test_deliver_missing_edge(self, sharded, rmat256):
        # Find a non-edge.
        v = 0
        nb = set(rmat256.neighbors(v).tolist())
        w = next(x for x in range(rmat256.n) if x not in nb and x != v)
        assert not sharded.deliver(v, w, 1.0, stamp=0)

    def test_message_slots_survive_next_superstep_write(self, sharded, rmat256):
        v = 0
        u = int(rmat256.neighbors(v)[0])
        sharded.deliver(v, u, 1.0, stamp=2)
        sharded.deliver(v, u, 2.0, stamp=3)  # next superstep, same edge
        _, vals2 = sharded.fresh_in_edges(u, 2)
        _, vals3 = sharded.fresh_in_edges(u, 3)
        assert 1.0 in vals2.tolist()
        assert 2.0 in vals3.tolist()

    def test_deliver_many_equals_one_at_a_time(self, rmat256, cfg):
        """Batch delivery writes what per-message writes in send order would."""
        ref = ShardedGraph(rmat256, SimFS(cfg), cfg, intervals=uniform_partition(rmat256.n, 4))
        sg = ShardedGraph(rmat256, SimFS(cfg), cfg, intervals=uniform_partition(rmat256.n, 4))
        src, dst = rmat256.edge_array()
        rng = np.random.default_rng(0)
        pick = rng.integers(0, src.shape[0], 3000)  # repeats: a later message wins
        data = rng.random(pick.shape[0])
        for k, e in enumerate(pick.tolist()):
            shard = ref.shard_of(int(dst[e]))
            row = shard.edge_row(int(src[e]), int(dst[e]))
            shard.msg_value[1, row] = data[k]
            shard.msg_stamp[1, row] = 3
        assert sg.deliver_many(src[pick], dst[pick], data, stamp=3) == -1
        for a, b in zip(ref.shards, sg.shards):
            assert np.array_equal(a.msg_value, b.msg_value)
            assert np.array_equal(a.msg_stamp, b.msg_stamp)
        # An absent edge is reported by its send position; nothing is written.
        w = next(x for x in range(rmat256.n) if x not in set(rmat256.neighbors(0).tolist()))
        before = [s.msg_stamp.copy() for s in sg.shards]
        assert sg.deliver_many([src[0], 0], [dst[0], w], [1.0, 2.0], stamp=4) == 1
        assert all(np.array_equal(a, s.msg_stamp) for a, s in zip(before, sg.shards))

    def test_edge_row_lookup(self, sharded, rmat256):
        v = 5
        for u in rmat256.neighbors(v)[:3]:
            shard = sharded.shard_of(int(u))
            row = shard.edge_row(v, int(u))
            assert row >= 0
            assert shard.src[row] == v and shard.dst[row] == u

    def test_default_partition(self, rmat256, cfg):
        sg = ShardedGraph(rmat256, SimFS(cfg), cfg)
        assert sg.n_intervals >= 1
        assert sg.total_pages() > 0

    def test_weighted_shards(self, rmat256w, cfg):
        sg = ShardedGraph(rmat256w, SimFS(cfg), cfg)
        for s in sg.shards:
            assert s.weight is not None and s.weight.shape[0] == s.n_edges
