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
from repro.errors import EngineError, GraphFormatError, SimulatedCrashError, StorageError
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
        # the lost write also carried batch 1's applied mark
        assert store.last_ingested == 1 and store.last_applied == 0
        # the lost batch can be re-ingested and applied cleanly
        store.ingest(adds([(1, 6), (2, 7)]))
        store.apply_updates()
        assert store.materialize().m == g.m + 3

    def test_lost_applied_mark_refolds_the_batch_exactly_once(self):
        g = small_chain(8)
        store, _ = store_on(g)
        store.ingest(adds([(0, 5), (5, 2), (3, 7)]))
        store.apply_updates()  # writes nothing: the mark rides on the next write
        assert store.recover() == {"last_ingested": 1, "last_applied": 0, "pages_dropped": 0}
        assert store.materialize().m == g.m and store.inserts_applied == 0
        out = store.apply_updates()
        assert (out["batches"], out["inserts"]) == (1, 3)
        assert store.materialize().m == g.m + 3 and store.inserts_applied == 3
        # the next ingest's page headers carry the mark
        store.ingest(adds([(1, 4)]))
        assert store.recover() == {"last_ingested": 2, "last_applied": 1, "pages_dropped": 0}
        assert store.materialize().m == g.m + 3 and store.inserts_applied == 3

    def test_torn_grouped_ingest_write_is_dropped_whole(self):
        # one page per record, so the batch's single striped write spans
        # eight log pages and tears at a page inside it
        g = small_chain(8)
        cfg = DEFAULT_CONFIG
        first = adds([(0, 3), (2, 5)])
        batch = adds([(0, 5), (1, 6), (2, 7), (3, 0), (4, 1), (5, 0), (6, 2), (7, 3)])
        fs = SimFS(cfg)
        store = StreamStore(g, fs, cfg, intervals=FOUR_INTERVALS)
        store.records_per_page = 1
        store.ingest(first)
        store.apply_updates()
        before = store._log.n_pages
        fs.device.fault_plan = FaultPlan([FaultRule(op="write", kind="torn")], seed=4)
        with pytest.raises(SimulatedCrashError) as exc:
            store.ingest(batch)
        fs.device.fault_plan = None
        persisted = exc.value.pages_persisted
        assert 0 < persisted < batch.n  # part of the batch is on the log
        assert store._log.n_pages == before + persisted

        out = store.recover()
        assert out["pages_dropped"] == persisted
        assert (store.last_ingested, store.last_applied) == (1, 0)
        assert store._log.n_pages == before
        store.ingest(batch)
        store.apply_updates()

        ref = StreamStore(g, SimFS(cfg), cfg, intervals=FOUR_INTERVALS)
        for delta in (first, batch):
            ref.ingest(delta)
            ref.apply_updates()
        assert_same_graph(store.materialize(), ref.materialize())
        assert store.records_ingested == ref.records_ingested == first.n + batch.n
        assert store.inserts_applied == ref.inserts_applied

    def test_batch_whose_pages_all_landed_is_committed(self):
        # three pages in one write; the power cut comes right after it
        g = small_chain(8)
        cfg = DEFAULT_CONFIG
        batch = adds([(0, 5), (3, 7), (6, 1)])
        fs = SimFS(cfg)
        store = StreamStore(g, fs, cfg, intervals=FOUR_INTERVALS)
        store.records_per_page = 1
        out = store.ingest(batch)
        assert out["pages"] == 3 and fs.stats.writes["ulog"].batches == 1
        assert store.recover() == {"last_ingested": 1, "last_applied": 0, "pages_dropped": 0}
        store.apply_updates()
        ref = StreamStore(g, SimFS(cfg), cfg, intervals=FOUR_INTERVALS)
        ref.ingest(batch)
        ref.apply_updates()
        assert_same_graph(store.materialize(), ref.materialize())

    def test_empty_batch_keeps_last_ingested(self):
        g = small_chain(8)
        store, fs = store_on(g)
        out = store.ingest(EdgeDelta.empty())
        assert (out["seq"], out["pages"]) == (1, 1)  # one header-only page
        store.apply_updates()
        assert store.recover()["last_ingested"] == 1
        assert store.apply_updates()["batches"] == 1
        assert store.ingest(adds([(0, 5)]))["seq"] == 2
        assert store.recover()["last_ingested"] == 2
        store.apply_updates()
        assert store.materialize().m == g.m + 1

    def test_batch_after_every_interval_compacted_keeps_last_ingested(self):
        # one delete in every interval: all four compact, their bases
        # absorb every log record, and the log is trimmed whole
        g = small_chain(8)
        cfg = DEFAULT_CONFIG.with_stream(compact_threshold=0.05)
        store = StreamStore(g, SimFS(cfg), cfg, intervals=FOUR_INTERVALS)
        store.ingest(dels([(0, 1), (2, 3), (4, 5), (6, 7)]))
        assert store.apply_updates()["compactions"] == 4
        assert store._log.n_pages == 0
        assert store.recover() == {"last_ingested": 1, "last_applied": 1, "pages_dropped": 0}
        assert store.ingest(adds([(1, 6)]))["seq"] == 2
        assert store.recover() == {"last_ingested": 2, "last_applied": 1, "pages_dropped": 0}
        store.apply_updates()
        assert store.ingest(adds([(3, 0)]))["seq"] == 3
        store.apply_updates()
        ref = StreamStore(g, SimFS(cfg), cfg, intervals=FOUR_INTERVALS)
        for delta in (dels([(0, 1), (2, 3), (4, 5), (6, 7)]), adds([(1, 6)]), adds([(3, 0)])):
            ref.ingest(delta)
            ref.apply_updates()
        assert_same_graph(store.materialize(), ref.materialize())

    def test_recover_is_idempotent_when_clean(self):
        g = small_chain(8)
        store, _ = store_on(g)
        store.ingest(adds([(0, 5)]))
        store.apply_updates()
        before = store.materialize()
        store.recover()
        store.apply_updates()
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

    def test_recover_keeps_tallies_across_compactions(self):
        # compacted bases absorb log records; their headers carry the
        # absorbed tallies, so recovery restores every lifetime tally
        g = small_rmat(n=128, m=512, seed=3)
        cfg = DEFAULT_CONFIG.with_stream(compact_threshold=0.05)
        intervals = VertexIntervals(np.array([0, 32, 64, 96, 128]))
        store = StreamStore(g, SimFS(cfg), cfg, intervals=intervals)
        deltas = []
        for b in range(6):
            s, t = store.live_edge_arrays()
            deltas.append(random_delta(np.random.default_rng([5, b]), g.n, s, t, 60))
            store.ingest(deltas[-1])
            store.apply_updates()
        tallies = (
            "records_ingested", "inserts_applied", "deletes_applied", "noop_deletes",
            "compactions", "batches_ingested", "batches_applied",
        )
        want = {t: getattr(store, t) for t in tallies}
        assert want["records_ingested"] == 360 and want["compactions"] >= 4
        # device work done before the cut: a crash does not undo it
        device = ("ulog_pages_written", "ingest_io_us", "apply_io_us", "compact_io_us")
        before = {t: getattr(store, t) for t in device}
        assert all(before.values())
        graph = store.materialize()
        store.recover()
        assert all(getattr(store, t) >= before[t] for t in device)
        assert store.records_ingested == 360 and store.compactions == want["compactions"]
        merged = store.inserts_applied + store.deletes_applied + store.noop_deletes
        unapplied = range(store.last_applied + 1, store.last_ingested + 1)
        pending = sum(deltas[s - 1].n for s in unapplied)
        assert merged + pending == store.records_ingested
        store.apply_updates()  # re-folds a batch whose mark was lost, if any
        assert {t: getattr(store, t) for t in tallies} == want
        assert all(getattr(store, t) >= before[t] for t in device)
        assert_same_graph(store.materialize(), graph)


def _edge_multiset_diff(prev, new):
    """Multiset difference of two graphs' edge lists: the reference
    ``StreamStore.take_changes`` is pinned to.

    Returns ``(del_src, del_dst, ins_src, ins_dst, ins_w)`` -- one
    representative per edge identity ``(src, dst[, w])`` whose
    multiplicity dropped (deleted) or grew (inserted), ascending by
    identity.  Representatives suffice for warm-start seeding:
    duplicate edges carry identical messages and min-combine is
    idempotent.

    Merge, then residue: one stable argsort of the
    packed ``src * n + dst`` key merges the two edge lists (both are
    already in that order, so it is a merge of two presorted runs),
    every key held by exactly one old and one new row of equal weight
    is dropped, and identities are counted on the small residue.  An
    identity's rows share a key, so a dropped group -- one old, one new
    copy of one identity -- could not have contributed.
    """
    weighted = new.weights is not None
    n = max(prev.n, new.n)
    n_prev = prev.m
    key = np.empty(n_prev + new.m, dtype=np.int64)
    for g, out in ((prev, key[:n_prev]), (new, key[n_prev:])):
        src, dst = g.edge_array()
        np.multiply(src, n, out=out)
        out += dst
    w = np.concatenate([prev.weights, new.weights]) if weighted else np.zeros(key.size)
    order = np.argsort(key, kind="stable")
    ks = key[order]
    # Two-row key groups, by the sorted position of their first row.
    head = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
    head = head[np.diff(head, append=ks.size) == 2]
    a, b = order[head], order[head + 1]  # stable: a < b, old rows first
    same = (a < n_prev) & (b >= n_prev) & (w[a] == w[b])
    changed = np.ones(key.size, dtype=bool)
    changed[a[same]] = False
    changed[b[same]] = False
    n_prev = int(np.count_nonzero(changed[:n_prev]))
    key, w = key[changed], w[changed]
    # Identity = (key, w); its first row in sorted order represents it.
    order = np.lexsort((w, key))
    ks, ws = key[order], w[order]
    first = np.ones(ks.size, dtype=bool)
    first[1:] = (ks[1:] != ks[:-1]) | (ws[1:] != ws[:-1])
    codes = np.empty(ks.size, dtype=np.int64)
    codes[order] = np.cumsum(first) - 1
    rep = order[first]
    cp = np.bincount(codes[:n_prev], minlength=rep.size)
    cn = np.bincount(codes[n_prev:], minlength=rep.size)
    s, d = np.divmod(key, n)
    del_idx = rep[cp > cn]
    ins_idx = rep[cn > cp]
    return (
        s[del_idx], d[del_idx],
        s[ins_idx], d[ins_idx],
        (w[ins_idx] if weighted else None),
    )


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


def assert_same_changes(got, want):
    """Two ``(del_src, del_dst, ins_src, ins_dst, ins_w)`` tuples agree
    element for element, dtypes included."""
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.tolist() == w.tolist()


def assert_diff_matches_reference(prev, new):
    got = _edge_multiset_diff(prev, new)
    assert_same_changes(got, reference_diff(prev, new))
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


def pin_changes_to_diff(monkeypatch):
    """Make every ``StreamStore.take_changes()`` assert that it equals the
    multiset diff of the live graph at the previous take (or at
    construction or recovery) and now.  Returns the list of takes."""
    takes = []
    clear, take = StreamStore._clear_changes, StreamStore.take_changes

    def pinned_clear(self):
        clear(self)
        self.pinned_graph = self.materialize()

    def pinned_take(self):
        want = _edge_multiset_diff(self.pinned_graph, self.materialize())
        got = take(self)
        assert_same_changes(got, want)
        takes.append(got)
        return got

    monkeypatch.setattr(StreamStore, "_clear_changes", pinned_clear)
    monkeypatch.setattr(StreamStore, "take_changes", pinned_take)
    return takes


def check_fuzzer_windows_match_the_diff(monkeypatch, n_cases):
    from repro.verify.streamcases import generate_stream_cases, run_stream_case

    takes = pin_changes_to_diff(monkeypatch)
    for case in generate_stream_cases(0, n_cases):
        outcome = run_stream_case(case)
        assert outcome.ok, outcome.describe()
    assert len(takes) > n_cases


class TestChangeRecord:
    """The store's signed change record against the graph diff it replaced.

    The stream fuzzer's cases recompute after every batch under every
    policy, cut power mid-ingest and mid-merge, compact at thresholds
    down to 0.05, and every fourth one churns a handful of pairs (and
    self-loops) inside one batch."""

    def test_fuzzer_windows_match_the_diff(self, monkeypatch):
        check_fuzzer_windows_match_the_diff(monkeypatch, 24)

    @pytest.mark.slow
    def test_fuzzer_windows_match_the_diff_full_budget(self, monkeypatch):
        check_fuzzer_windows_match_the_diff(monkeypatch, 150)

    def test_windows_around_full_and_unconverged_recomputes(self, monkeypatch):
        takes = pin_changes_to_diff(monkeypatch)
        # unweighted, with self-loops: logged inserts carry w = 1.0, the
        # base none, and both must net to one identity per pair
        g = CSRGraph.from_edges(8, [0, 0, 1, 2, 3, 3, 4, 5, 6], [1, 0, 2, 3, 3, 4, 5, 6, 7])
        cfg = DEFAULT_CONFIG.with_stream(compact_threshold=0.05)
        sess = StreamSession(g, BFSProgram(source=0), config=cfg)
        sess.recompute(max_supersteps=50)
        # one self-loop inserted and deleted over and over in one window
        churn = EdgeDelta.of([OP_ADD, OP_DELETE] * 3 + [OP_ADD], [3] * 7, [3] * 7)
        windows = [
            (churn, {}),
            (adds([(0, 0), (7, 0), (3, 3)]), {"mode": "full"}),
            (dels([(3, 4)]), {"mode": "full", "max_supersteps": 1}),  # cut short
            (adds([(0, 1), (0, 1)]), {}),
            (EdgeDelta.concat([dels([(0, 1), (3, 3)]), adds([(0, 1)])]), {}),
        ]
        converged = [True]
        for delta, kw in windows:
            sess.ingest(delta)
            sess.apply_updates()
            r = sess.recompute(**{"max_supersteps": 50, **kw})
            # the window's changes are reported after a converged recompute
            d_src, _, i_src, _, _ = takes[-1]
            assert r.changed_edges == (d_src.size + i_src.size if converged[-1] else 0)
            converged.append(r.result.converged)
        assert converged == [True, True, True, False, True, True]
        assert sess.store.compactions > 0
        assert len(takes) == 1 + len(windows)

    def test_drift_raises(self):
        store, _ = store_on(small_rmat(n=64, m=256, seed=2))
        s, t = store.live_edge_arrays()
        store.ingest(dels([(int(s[0]), int(t[0]))]))
        store.apply_updates()
        assert store.take_changes()[0].size == 1
        # an edge killed behind the record's back
        store._index.base_alive[np.flatnonzero(store._index.base_alive)[0]] = False
        with pytest.raises(StorageError, match="drifted"):
            store.take_changes()


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
            assert snap["device.serial_us"] == stats.total_time_us
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
        # the source's own seed (0 at a vertex already at 0) is dropped
        assert ev.fields == {
            "roots": 0, "cone": 0, "walk_rows": 1, "scan": False,
            "seeds": 0, "seeds_dropped": 1, "io_us": r.seed_io_us,
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
        # 0 -> 3 re-seeds the cone; the source's own seed cannot improve
        assert (ev.fields["seeds"], ev.fields["seeds_dropped"]) == (1, 1)
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
