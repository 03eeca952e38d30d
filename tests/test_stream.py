"""Streaming updates: multi-log ingest, merge, compaction, incremental
recompute (DESIGN.md §12).

The acceptance bar everywhere is exactness: after any sequence of
ingests, merges, compactions, crashes and recoveries, the materialized
graph equals the graph built from scratch over the surviving updates,
and every recompute -- incremental or full -- lands on bit-identical
final values.
"""

import numpy as np
import pytest

from repro.algorithms import BFSProgram, DeltaPageRankProgram, SSSPProgram, WCCProgram
from repro.config import DEFAULT_CONFIG, small_test_config
from repro.errors import EngineError, GraphFormatError, SimulatedCrashError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import small_chain, small_rmat
from repro.graph.partition import VertexIntervals
from repro.obs import TraceRecorder
from repro.obs.metrics import MetricsRegistry
from repro.ssd import FaultPlan, FaultRule
from repro.ssd.filesystem import SimFS
from repro.stream import EdgeDelta, StreamSession, StreamStore, random_delta
from repro.stream.delta import OP_ADD, OP_DELETE
from repro.stream.incremental import descendants
from repro.stream.session import _edge_multiset_diff
from repro.verify import OracleEngine


def adds(pairs, w=None):
    src = [s for s, _ in pairs]
    dst = [d for _, d in pairs]
    return EdgeDelta.of([OP_ADD] * len(pairs), src, dst, w=w)


def dels(pairs):
    src = [s for s, _ in pairs]
    dst = [d for _, d in pairs]
    return EdgeDelta.of([OP_DELETE] * len(pairs), src, dst)


class TestEdgeDelta:
    def test_records_roundtrip(self):
        d = EdgeDelta.of([OP_ADD, OP_DELETE], [1, 2], [3, 4], w=[0.5, 0.0])
        back = EdgeDelta.from_records(d.to_records())
        assert np.array_equal(back.op, d.op)
        assert np.array_equal(back.src, d.src)
        assert np.array_equal(back.dst, d.dst)
        assert np.array_equal(back.w, d.w)

    def test_bad_records_rejected(self):
        with pytest.raises(GraphFormatError):
            EdgeDelta.from_records([{"op": "nope", "src": 0, "dst": 1}])
        with pytest.raises(GraphFormatError):
            EdgeDelta.from_records([{"op": "add", "src": 0}])

    def test_validate_bounds(self):
        d = adds([(0, 99)])
        with pytest.raises(GraphFormatError):
            d.validate(10)

    def test_random_delta_deterministic(self):
        g = small_rmat(n=128, m=512, seed=1)
        s, t = g.edge_array()
        a = random_delta(np.random.default_rng(7), g.n, s, t, 20)
        b = random_delta(np.random.default_rng(7), g.n, s, t, 20)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.op, b.op)


def store_on(graph, config=DEFAULT_CONFIG):
    fs = SimFS(config)
    return StreamStore(graph, fs, config), fs


#: a budget tight enough for several intervals on a small graph
SMALL = small_test_config(total_bytes=96 * 1024)

#: four two-vertex intervals over an 8-vertex graph
FOUR_INTERVALS = VertexIntervals(np.array([0, 2, 4, 6, 8]))


def assert_same_graph(a, b):
    assert a.rowptr.tolist() == b.rowptr.tolist()
    assert a.colidx.tolist() == b.colidx.tolist()
    assert (a.weights is None) == (b.weights is None)
    if a.weights is not None:
        assert a.weights.tolist() == b.weights.tolist()


class TestStreamStore:
    def test_ingest_then_apply_materializes_inserts(self):
        g = small_chain(8)
        store, _ = store_on(g)
        out = store.ingest(adds([(0, 5), (5, 2)]))
        assert out["seq"] == 1 and out["records"] == 2
        store.apply_updates()
        mat = store.materialize()
        assert mat.m == g.m + 2
        s, d = mat.edge_array()
        assert ((s == 0) & (d == 5)).any() and ((s == 5) & (d == 2)).any()

    def test_delete_kills_all_duplicates(self):
        g = small_chain(8)
        store, _ = store_on(g)
        # insert a duplicate of an existing base edge, then delete it:
        # base copy and delta copy must both die
        store.ingest(adds([(0, 1)]))
        store.apply_updates()
        store.ingest(dels([(0, 1)]))
        store.apply_updates()
        s, d = store.materialize().edge_array()
        assert not ((s == 0) & (d == 1)).any()

    def test_noop_delete_counted_not_applied(self):
        g = small_chain(8)
        store, _ = store_on(g)
        store.ingest(dels([(0, 7)]))  # no such edge
        out = store.apply_updates()
        assert out["noop_deletes"] == 1
        assert store.materialize().m == g.m

    def test_same_batch_chain_on_one_pair(self):
        # (0, 5) is absent from the chain graph; one batch inserts and
        # deletes it repeatedly: only the insert after the last delete
        # survives, and a delete is a no-op exactly when nothing is live
        g = small_chain(8)
        store, _ = store_on(g)
        chain = [OP_DELETE, OP_ADD, OP_ADD, OP_DELETE, OP_DELETE, OP_ADD, OP_DELETE, OP_ADD]
        store.ingest(EdgeDelta.of(chain, [0] * 8, [5] * 8, w=np.arange(8.0)))
        out = store.apply_updates()
        assert (out["inserts"], out["deletes"], out["noop_deletes"]) == (4, 2, 2)
        ix = store._index
        assert list(ix.d_alive) == [False, False, False, True]
        assert (ix.tombstones[0], ix.dead_base[0], ix.dead_delta[0]) == (4, 0, 3)
        s, d = store.materialize().edge_array()
        assert int(((s == 0) & (d == 5)).sum()) == 1

    def test_index_tallies_are_exact(self):
        # two batches over a chain 0->1->...->7: the second deletes a
        # base edge (with the parallel copy batch one inserted), an
        # absent edge, and a pair it inserts itself
        g = small_chain(8)
        store, _ = store_on(g)
        store.ingest(adds([(0, 1), (2, 6), (2, 6)]))
        out = store.apply_updates()
        assert (out["inserts"], out["deletes"], out["noop_deletes"]) == (3, 0, 0)
        ops = [OP_DELETE, OP_DELETE, OP_ADD, OP_DELETE, OP_DELETE, OP_ADD]
        src = [0, 3, 4, 4, 2, 2]
        dst = [1, 7, 0, 0, 6, 6]
        store.ingest(EdgeDelta.of(ops, src, dst))
        out = store.apply_updates()
        assert (out["inserts"], out["deletes"], out["noop_deletes"]) == (2, 3, 1)
        assert store.noop_deletes == 1 and store.deletes_applied == 3
        ix = store._index
        # dead inserts: (0,1) and both (2,6) of batch one, (4,0) of batch two
        assert (ix.tombstones[0], ix.dead_base[0], ix.dead_delta[0]) == (4, 1, 4)
        assert ix.garbage_records()[0] == 9 and np.count_nonzero(ix.d_alive) == 1
        assert ix.total_records()[0] == g.m + 5 + 4
        assert store.live_edges() == g.m - 1 + 1
        reg = MetricsRegistry()
        store.register_metrics(reg)
        snap = reg.snapshot()
        assert snap["stream.garbage_records"] == 9 and snap["stream.live_edges"] == g.m

    def test_compaction_preserves_graph_and_drops_garbage(self):
        g = small_chain(16)
        cfg = DEFAULT_CONFIG.with_stream(compact_threshold=0.05)
        store, _ = store_on(g, cfg)
        victims = [(i, i + 1) for i in range(0, 12, 2)]
        store.ingest(dels(victims))
        out = store.apply_updates()
        assert out["compactions"] > 0
        mat = store.materialize()
        assert mat.m == g.m - len(victims)
        # garbage is gone after compaction
        assert store._index.garbage_records().sum() == 0

    def test_high_threshold_defers_compaction(self):
        g = small_chain(16)
        store, _ = store_on(g)  # default threshold 0.5
        store.ingest(dels([(0, 1)]))
        out = store.apply_updates()
        assert out["compactions"] == 0

    def test_materialize_invariant_under_compaction(self):
        # same update sequence, aggressive vs deferred compaction:
        # the materialized graphs carry identical edge multisets
        g = small_rmat(n=128, m=512, seed=3)

        def play(store):
            for b in range(3):
                s, t = store.live_edge_arrays()
                store.ingest(
                    random_delta(np.random.default_rng([11, b]), g.n, s, t, 15)
                )
                store.apply_updates()
            return store.materialize()

        m1 = play(store_on(g)[0])
        m2 = play(store_on(g, DEFAULT_CONFIG.with_stream(compact_threshold=0.05))[0])
        assert m1.m == m2.m
        e1 = sorted(zip(*(a.tolist() for a in m1.edge_array())))
        e2 = sorted(zip(*(a.tolist() for a in m2.edge_array())))
        assert e1 == e2

    def test_charges_are_positive(self):
        g = small_chain(8)
        store, fs = store_on(g)
        t0 = fs.stats.total_time_us
        assert store.charge_rows(np.array([0, 1, 2])) > 0
        assert store.charge_seed_scan() > 0
        assert fs.stats.total_time_us > t0


class TestCrashRecovery:
    def test_crash_mid_ingest_loses_uncommitted_batch(self):
        g = small_chain(8)
        cfg = DEFAULT_CONFIG
        fs = SimFS(cfg)
        store = StreamStore(g, fs, cfg)
        store.ingest(adds([(0, 5)]))
        store.apply_updates()
        fs.device.fault_plan = FaultPlan.crash_after(0, klass="ulog")
        with pytest.raises(SimulatedCrashError):
            store.ingest(adds([(1, 6), (2, 7)]))
        fs.device.fault_plan = None
        store.recover()
        assert store.last_ingested == 1 and store.last_applied == 1
        # the lost batch can be re-ingested and applied cleanly
        store.ingest(adds([(1, 6), (2, 7)]))
        store.apply_updates()
        assert store.materialize().m == g.m + 3

    def test_crash_mid_apply_keeps_batch_pending(self):
        g = small_chain(8)
        cfg = DEFAULT_CONFIG
        fs = SimFS(cfg)
        store = StreamStore(g, fs, cfg)
        store.ingest(adds([(0, 5), (5, 2), (3, 7)]))
        # the merge's one write is its ``applied`` marker
        fs.device.fault_plan = FaultPlan.crash_after(0, klass="stream_meta")
        with pytest.raises(SimulatedCrashError):
            store.apply_updates()
        fs.device.fault_plan = None
        store.recover()
        # durably ingested, not applied: still pending
        assert store.last_ingested == 1 and store.last_applied == 0
        store.apply_updates()
        assert store.materialize().m == g.m + 3

    def test_torn_grouped_ingest_write_is_dropped_whole(self):
        # one page per record, so the batch's single striped write spans
        # four interval logs and tears at a page inside the third
        g = small_chain(8)
        cfg = DEFAULT_CONFIG
        first = adds([(0, 3), (2, 5)])
        batch = adds([(0, 5), (1, 6), (2, 7), (3, 0), (4, 1), (5, 0), (6, 2), (7, 3)])
        fs = SimFS(cfg)
        store = StreamStore(g, fs, cfg, intervals=FOUR_INTERVALS)
        store.records_per_page = 1
        store.ingest(first)
        store.apply_updates()
        before = [log.n_pages for log in store._logs]
        fs.device.fault_plan = FaultPlan([FaultRule(op="write", kind="torn")], seed=4)
        with pytest.raises(SimulatedCrashError) as exc:
            store.ingest(batch)
        fs.device.fault_plan = None
        persisted = exc.value.pages_persisted
        # each log kept its share of the persisted prefix, in interval order
        grown = [log.n_pages - b for log, b in zip(store._logs, before)]
        assert grown == [min(2, max(0, persisted - 2 * k)) for k in range(4)]
        assert grown[0] == 2 and 0 < grown[2] < 2  # crosses intervals

        out = store.recover()
        assert out["pages_dropped"] == persisted
        assert (store.last_ingested, store.last_applied) == (1, 1)
        assert [log.n_pages for log in store._logs] == before
        store.ingest(batch)
        store.apply_updates()

        ref = StreamStore(g, SimFS(cfg), cfg, intervals=FOUR_INTERVALS)
        for delta in (first, batch):
            ref.ingest(delta)
            ref.apply_updates()
        assert_same_graph(store.materialize(), ref.materialize())

    def test_crash_between_data_write_and_ingest_marker(self):
        g = small_chain(8)
        cfg = DEFAULT_CONFIG
        batch = adds([(0, 5), (3, 7), (6, 1)])
        fs = SimFS(cfg)
        store = StreamStore(g, fs, cfg, intervals=FOUR_INTERVALS)
        # ingest's writes: the striped data batch, then the marker
        fs.device.fault_plan = FaultPlan([FaultRule(op="write", kind="crash", after_ops=1)])
        with pytest.raises(SimulatedCrashError):
            store.ingest(batch)
        fs.device.fault_plan = None
        assert sum(log.n_pages for log in store._logs) == 3  # all data durable
        out = store.recover()
        assert out == {"last_ingested": 0, "last_applied": 0, "pages_dropped": 3}
        store.ingest(batch)
        store.apply_updates()
        ref = StreamStore(g, SimFS(cfg), cfg, intervals=FOUR_INTERVALS)
        ref.ingest(batch)
        ref.apply_updates()
        assert_same_graph(store.materialize(), ref.materialize())

    def test_recover_is_idempotent_when_clean(self):
        g = small_chain(8)
        store, _ = store_on(g)
        store.ingest(adds([(0, 5)]))
        store.apply_updates()
        before = store.materialize()
        store.recover()
        after = store.materialize()
        assert np.array_equal(before.edge_array()[0], after.edge_array()[0])
        assert np.array_equal(before.edge_array()[1], after.edge_array()[1])

    def test_recover_recounts_ingested_records(self):
        # three batches merged, a fourth pending: recovery replays the
        # merge tallies, so it must recount what was ingested beside them
        g = small_rmat(n=128, m=512, seed=3)
        store, _ = store_on(g)
        deltas = []
        for b in range(4):
            s, t = store.live_edge_arrays()
            deltas.append(random_delta(np.random.default_rng([5, b]), g.n, s, t, 50))
            store.ingest(deltas[-1])
            if b < 3:
                store.apply_updates()
        assert store.compactions == 0
        store.recover()
        merged = store.inserts_applied + store.deletes_applied + store.noop_deletes
        assert merged == sum(d.n for d in deltas[:3])
        assert merged + deltas[3].n == store.records_ingested
        store.apply_updates()
        merged = store.inserts_applied + store.deletes_applied + store.noop_deletes
        assert merged == store.records_ingested == sum(d.n for d in deltas)


def reference_diff(prev, new):
    """The three-key lexsort formulation ``_edge_multiset_diff`` replaced:
    every row of both graphs sorted by (src, dst, w), identities counted
    on the whole."""
    ps, pd = prev.edge_array()
    ns, nd = new.edge_array()
    weighted = new.weights is not None
    s = np.concatenate([ps, ns]).astype(np.int64)
    d = np.concatenate([pd, nd]).astype(np.int64)
    if weighted:
        w = np.concatenate([prev.weights, new.weights]).astype(np.float64)
    else:
        w = np.zeros(s.size, dtype=np.float64)
    order = np.lexsort((w, d, s))
    ss, dd, ww = s[order], d[order], w[order]
    if s.size == 0:
        e = np.empty(0, np.int64)
        return e, e, e, e, (np.empty(0, np.float64) if weighted else None)
    boundary = np.empty(ss.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (ss[1:] != ss[:-1]) | (dd[1:] != dd[:-1]) | (ww[1:] != ww[:-1])
    codes_sorted = np.cumsum(boundary) - 1
    n_codes = int(codes_sorted[-1]) + 1
    codes = np.empty(ss.size, dtype=np.int64)
    codes[order] = codes_sorted
    cp = np.bincount(codes[: ps.size], minlength=n_codes)
    cn = np.bincount(codes[ps.size :], minlength=n_codes)
    # First occurrence (in sorted order) represents each identity.
    rep = np.empty(n_codes, dtype=np.int64)
    rep[codes_sorted[::-1]] = order[::-1]
    del_idx, ins_idx = rep[cp > cn], rep[cn > cp]
    return s[del_idx], d[del_idx], s[ins_idx], d[ins_idx], (w[ins_idx] if weighted else None)


def assert_diff_matches_reference(prev, new):
    got, want = _edge_multiset_diff(prev, new), reference_diff(prev, new)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.tolist() == w.tolist()
    return got


def random_multigraph(rng, n, m, weighted):
    """Uniform pairs over a small id space: parallel edges are common,
    and weights come from three values so copies both agree and differ."""
    w = rng.choice([0.5, 1.0, 2.0], m) if weighted else None
    return CSRGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), w)


class TestDiffAndCone:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_diff_matches_reference_on_random_pairs(self, weighted):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = random_multigraph(rng, n, int(rng.integers(0, 40)), weighted)
            if rng.random() < 0.5:
                # mostly-shared edges, the streaming shape: drop a few, add a few
                s, d = a.edge_array()
                keep = rng.random(a.m) < 0.8
                extra = random_multigraph(rng, n, int(rng.integers(0, 6)), weighted)
                es, ed = extra.edge_array()
                w = np.concatenate([a.weights[keep], extra.weights]) if weighted else None
                b = CSRGraph.from_edges(
                    n, np.concatenate([s[keep], es]), np.concatenate([d[keep], ed]), w
                )
            else:
                b = random_multigraph(rng, n, int(rng.integers(0, 40)), weighted)
            assert_diff_matches_reference(a, b)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_diff_matches_reference_on_edge_shapes(self, weighted):
        w = (lambda *x: list(x)) if weighted else (lambda *x: None)
        empty = CSRGraph.from_edges(4, [], [], w())
        a = CSRGraph.from_edges(4, [0, 0, 1], [1, 1, 2], w(1.0, 2.0, 1.0))
        disjoint = CSRGraph.from_edges(4, [2, 3], [3, 0], w(1.0, 1.0))
        reweighted = CSRGraph.from_edges(4, [0, 0, 1], [1, 1, 2], w(1.0, 2.0, 3.0))
        pairs = [(empty, empty), (empty, a), (a, empty), (a, a), (a, disjoint), (a, reweighted)]
        for prev, new in pairs:
            ds, _, is_, _, _ = assert_diff_matches_reference(prev, new)
            if prev is new:
                assert ds.size == 0 and is_.size == 0
        ds, _, is_, _, iw = _edge_multiset_diff(a, reweighted)
        assert (ds.size, is_.size) == ((1, 1) if weighted else (0, 0))
        assert iw is None or iw.tolist() == [3.0]

    def test_diff_matches_reference_on_bench_shaped_pair(self):
        # a skewed graph with a few percent of its edges churned, as
        # between two recomputes of the stream_churn benchmark pass
        from repro.graph.datasets import cf_like

        g = cf_like(scale="test", weighted=True)
        rng = np.random.default_rng(11)
        s, d = g.edge_array()
        keep = rng.random(g.m) > 0.03
        k = g.m // 14
        new = CSRGraph.from_edges(
            g.n,
            np.concatenate([s[keep], rng.integers(0, g.n, k)]),
            np.concatenate([d[keep], rng.integers(0, g.n, k)]),
            np.concatenate([g.weights[keep], rng.uniform(0.5, 4.0, k)]),
        )
        ds, _, is_, _, _ = assert_diff_matches_reference(g, new)
        assert ds.size > 0 and is_.size > 0

    def test_diff_insert_delete(self):
        a = CSRGraph.from_edges(4, [0, 1], [1, 2])
        b = CSRGraph.from_edges(4, [0, 2], [1, 3])
        ds, dd, is_, id_, iw = _edge_multiset_diff(a, b)
        assert list(zip(ds, dd)) == [(1, 2)]
        assert list(zip(is_, id_)) == [(2, 3)]
        assert iw is None

    def test_diff_multiplicity(self):
        a = CSRGraph.from_edges(3, [0], [1])
        b = CSRGraph.from_edges(3, [0, 0], [1, 1])
        ds, dd, is_, id_, _ = _edge_multiset_diff(a, b)
        assert ds.size == 0 and list(zip(is_, id_)) == [(0, 1)]

    def test_diff_identical_graphs_empty(self):
        g = small_rmat(n=64, m=256, seed=5)
        ds, dd, is_, id_, _ = _edge_multiset_diff(g, g)
        assert ds.size == 0 and is_.size == 0

    def test_descendants_chain(self):
        g = CSRGraph.from_edges(5, [0, 1, 2], [1, 2, 3])
        values = np.array([0.0, 1.0, 2.0, 3.0, np.inf])  # BFS from 0
        roots, cone = descendants(g, values, BFSProgram.relax, [0], [1])
        assert roots.tolist() == [1]
        assert cone.tolist() == [1, 2, 3]

    def test_descendants_empty_roots(self):
        g = small_chain(8)
        empty = np.array([], dtype=np.int64)
        roots, cone = descendants(g, np.arange(8.0), BFSProgram.relax, empty, empty)
        assert roots.size == 0 and cone.size == 0

    def test_descendants_skip_non_tight_edges(self):
        # 0->1->2->3 of weight 1 and a longer shortcut 0->3 of weight 5:
        # deleting the shortcut resets nothing, deleting 1->2 only the
        # suffix that took its value through it
        g = CSRGraph.from_edges(4, [0, 0, 1, 2], [1, 3, 2, 3], [1.0, 5.0, 1.0, 1.0])
        values = np.array([0.0, 1.0, 2.0, 3.0])  # SSSP from 0
        roots, cone = descendants(g, values, SSSPProgram.relax, [0], [3])
        assert roots.size == 0 and cone.size == 0
        roots, cone = descendants(g, values, SSSPProgram.relax, [1], [2])
        assert roots.tolist() == [2] and cone.tolist() == [2, 3]


PROGRAMS = {
    "wcc": lambda: WCCProgram(),
    "bfs": lambda: BFSProgram(source=0),
    "sssp": lambda: SSSPProgram(source=0),
}


class TestStreamSession:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_incremental_matches_oracle(self, name):
        g = small_rmat(n=128, m=512, seed=9, weighted=(name == "sssp"))
        sess = StreamSession(g, PROGRAMS[name]())
        sess.recompute(max_supersteps=200)
        for b in range(2):
            s, t = sess.store.live_edge_arrays()
            delta = random_delta(
                np.random.default_rng([9, b]), g.n, s, t, 10,
                weighted=(name == "sssp"),
            )
            sess.ingest(delta)
            sess.apply_updates()
            r = sess.recompute(max_supersteps=200, mode="incremental")
            assert r.mode == "incremental"
            oracle = OracleEngine(
                sess.store.materialize(), PROGRAMS[name]()
            ).run(200, seed=0)
            assert np.array_equal(
                np.nan_to_num(r.result.values, posinf=-1),
                np.nan_to_num(oracle.values, posinf=-1),
            )

    def test_auto_falls_back_to_full_on_large_delta(self):
        g = small_chain(8)
        cfg = DEFAULT_CONFIG.with_stream(max_delta_fraction=0.0)
        sess = StreamSession(g, WCCProgram(), config=cfg)
        sess.recompute(max_supersteps=50)
        sess.ingest(adds([(0, 5)]))
        sess.apply_updates()
        r = sess.recompute(max_supersteps=50)
        assert r.requested == "auto" and r.mode == "full"

    def test_incremental_on_incapable_engine_raises(self):
        g = small_chain(8)
        sess = StreamSession(g, WCCProgram(), engine="xstream")
        sess.recompute(max_supersteps=50)
        with pytest.raises(EngineError):
            sess.recompute(max_supersteps=50, mode="incremental")

    def test_invalid_mode_raises(self):
        sess = StreamSession(small_chain(8), WCCProgram())
        with pytest.raises(EngineError):
            sess.recompute(mode="sometimes")

    def test_session_policy_is_a_keyword(self):
        sess = StreamSession(small_chain(8), WCCProgram(), recompute="full")
        sess.recompute(max_supersteps=50)
        sess.ingest(adds([(0, 5)]))
        sess.apply_updates()
        r = sess.recompute(max_supersteps=50)
        assert r.requested == "full" and r.mode == "full"

    def test_stack_knobs_reach_store_and_engines(self):
        """One config describes the machine: the session's store SSD
        and every recompute engine's both get its cache and devices."""
        cfg = DEFAULT_CONFIG.with_cache().with_devices(4)
        sess = StreamSession(small_rmat(n=128, m=512, seed=2), WCCProgram(), config=cfg)
        assert sess.fs.cache is not None
        assert sess.fs.cache.capacity == cfg.cache_pages
        assert sess.fs.device.num_devices == 4
        m = sess.recompute(max_supersteps=50).result.metrics
        assert m["cache.capacity_pages"] == cfg.cache_pages
        assert m["device.devices"] == 4

    @pytest.mark.parametrize(
        "stack",
        [
            SMALL.with_devices(1).with_cache(),
            SMALL.with_devices(4, placement="stripe"),
            SMALL.with_devices(4, placement="affinity"),
        ],
        ids=["cache", "stripe4", "affinity4"],
    )
    def test_stack_keeps_values_of_one_plain_device(self, stack):
        """The grouped log writes and reads go through the cache and
        the device array like every other charge: values, graph and
        (on an array) canonical stats equal a plain device's, and the
        store SSD's ``device.*`` gauges reconcile with its stats."""
        g = small_rmat(n=512, m=8192, seed=6, weighted=True)  # three intervals

        def play(cfg):
            cfg = cfg.with_stream(compact_threshold=0.01)
            sess = StreamSession(g, SSSPProgram(source=0), config=cfg)
            values = [sess.recompute(max_supersteps=200).result.values]
            for b in range(4):
                s, t = sess.store.live_edge_arrays()
                rng = np.random.default_rng([6, b])
                sess.ingest(random_delta(rng, g.n, s, t, 40, weighted=True))
                sess.apply_updates()
                values.append(sess.recompute(max_supersteps=200).result.values)
            return sess, values

        plain, want = play(SMALL.with_devices(1).with_cache("none"))
        sess, got = play(stack)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert_same_graph(sess.store.materialize(), plain.store.materialize())
        assert sess.store.compactions == plain.store.compactions > 0
        if stack.cache_policy != "none":
            # a merge reads back log pages its ingest just cached
            assert "ulog" in plain.fs.stats.reads and "ulog" not in sess.fs.stats.reads
        if stack.num_devices > 1:
            assert sess.fs.stats.to_dict() == plain.fs.stats.to_dict()
            snap = sess.metrics.snapshot()
            stats = sess.fs.stats
            assert snap["device.devices"] == 4
            assert snap["device.ops"] == sum(
                c.batches for c in (*stats.reads.values(), *stats.writes.values())
            )
            assert snap["device.serial_us"] == pytest.approx(stats.total_time_us, rel=1e-12)
            assert 0 < snap["device.saved_us"] < snap["device.serial_us"]
            assert snap["device.busy_max_us"] <= snap["device.array_us"]

    def test_recover_discards_warm_state(self):
        g = small_chain(8)
        sess = StreamSession(g, WCCProgram())
        sess.recompute(max_supersteps=50)
        sess.ingest(adds([(0, 5)]))
        sess.apply_updates()
        sess.recover()
        r = sess.recompute(max_supersteps=50, mode="auto")
        assert r.mode == "full"

    def test_unconverged_values_not_reused(self):
        g = small_rmat(n=128, m=512, seed=2)
        sess = StreamSession(g, WCCProgram())
        r0 = sess.recompute(max_supersteps=1)
        assert not r0.result.converged
        sess.ingest(adds([(0, 5)]))
        sess.apply_updates()
        r1 = sess.recompute(max_supersteps=200)
        assert r1.mode == "full"

    def test_insert_only_warm_start_charges_no_seed_scan(self):
        g = small_rmat(n=128, m=512, seed=4)
        sess = StreamSession(g, WCCProgram())
        sess.recompute(max_supersteps=200)
        sess.ingest(adds([(0, 5), (5, 9)]))
        sess.apply_updates()
        r = sess.recompute(max_supersteps=200, mode="incremental")
        assert r.mode == "incremental"
        assert r.seed_io_us == 0.0

    def test_non_tight_delete_reads_only_the_tails_row(self):
        # SSSP over 0->1->2->3 (weight 1) with a longer shortcut 0->3
        # (weight 5): deleting the shortcut resets nothing, so the warm
        # start reads the deleted edge's tail row to test its tightness
        # and skips the in-edge sweep
        g = CSRGraph.from_edges(4, [0, 0, 1, 2], [1, 3, 2, 3], [1.0, 5.0, 1.0, 1.0])
        tracer = TraceRecorder()
        sess = StreamSession(g, SSSPProgram(source=0), tracer=tracer)
        sess.recompute(max_supersteps=50)
        sess.ingest(dels([(0, 3)]))
        sess.apply_updates()
        r = sess.recompute(max_supersteps=50, mode="incremental")
        assert r.mode == "incremental"
        assert r.result.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert r.seed_io_us == sess.store.charge_rows(np.array([0])) > 0
        (ev,) = [e for e in tracer.events if e.kind == "warm_start"]
        assert ev.fields == {
            "roots": 0, "cone": 0, "walk_rows": 1, "scan": False, "io_us": r.seed_io_us,
        }

    def test_tight_delete_resets_its_cone_and_sweeps(self):
        g = CSRGraph.from_edges(4, [0, 0, 1, 2], [1, 3, 2, 3], [1.0, 5.0, 1.0, 1.0])
        tracer = TraceRecorder()
        sess = StreamSession(g, SSSPProgram(source=0), tracer=tracer)
        sess.recompute(max_supersteps=50)
        sess.ingest(dels([(1, 2)]))
        sess.apply_updates()
        r = sess.recompute(max_supersteps=50, mode="incremental")
        assert r.result.values.tolist() == [0.0, 1.0, np.inf, 5.0]
        (ev,) = [e for e in tracer.events if e.kind == "warm_start"]
        assert (ev.fields["roots"], ev.fields["cone"], ev.fields["walk_rows"]) == (1, 2, 3)
        assert ev.fields["scan"] is True
        assert ev.fields["io_us"] == r.seed_io_us > sess.store.charge_rows(np.arange(1, 4))

    def test_program_without_relax_skips_the_cone(self, monkeypatch):
        import repro.stream.session as session_mod

        def no_cone(*args):
            raise AssertionError("cone computed for a program without relax")

        monkeypatch.setattr(session_mod, "descendants", no_cone)
        g = small_rmat(n=64, m=256, seed=4)
        sess = StreamSession(g, DeltaPageRankProgram())
        sess.recompute(max_supersteps=20)
        s, t = sess.store.live_edge_arrays()
        sess.ingest(dels([(int(s[0]), int(t[0]))]))
        sess.apply_updates()
        assert sess.recompute(max_supersteps=20).mode == "full"
