"""The stream store's columnar batch fold against its per-record reference.

``StreamStore._fold`` folds a whole batch, every interval's run at once,
into the one host index (DESIGN.md §12, "Merge, tombstones,
compaction").  The model below is the loop it replaced -- one record at
a time, each delete scanning its base row and the whole delta arena --
and the two must agree on every tally that feeds compaction (and
therefore simulated ``pages_written``), every alive mask, the arena's
order, the materialised graph and the device statistics, on inputs
built to collide: a tiny id space, insert -> delete -> insert chains of
one pair inside one batch, parallel edges, deletes that hit base copies
and earlier batches' inserts, several intervals, and base rows that are
not dst-sorted.  After every batch, compaction and recovery the index
must also hold its own invariants: the sorted key index sorts the
arena, and every interval's base + inserts + tombstones are the records
it holds on flash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexIntervals
from repro.ssd.filesystem import SimFS
from repro.stream import EdgeDelta, StreamStore
from repro.stream.delta import OP_ADD, OP_DELETE

# -- reference model ----------------------------------------------------------


class ReferenceStore(StreamStore):
    """The store with its fold done one record at a time, in order."""

    def _fold(self, part):
        ix = self._index
        d_src, d_dst = ix.d_src.tolist(), ix.d_dst.tolist()
        d_w, d_alive = ix.d_w.tolist(), ix.d_alive.tolist()
        inserts = deletes = noops = 0
        for k in range(part.n):
            s, d = int(part.src[k]), int(part.dst[k])
            i = self.intervals.interval_of_one(s)
            if part.op[k] == OP_DELETE:
                ix.tombstones[i] += 1
                killed = 0
                a, b = int(ix.rowptr[s]), int(ix.rowptr[s + 1])
                hits = a + np.flatnonzero((ix.col[a:b] == d) & ix.base_alive[a:b])
                if hits.size:
                    ix.base_alive[hits] = False
                    ix.dead_base[i] += int(hits.size)
                    killed += int(hits.size)
                for j in range(len(d_src)):
                    if d_alive[j] and d_src[j] == s and d_dst[j] == d:
                        d_alive[j] = False
                        ix.dead_delta[i] += 1
                        killed += 1
                if killed:
                    deletes += 1
                else:
                    noops += 1
            else:
                d_src.append(s)
                d_dst.append(d)
                d_w.append(float(part.w[k]))
                d_alive.append(True)
                ix.d_count[i] += 1
                inserts += 1
        ix.d_src = np.asarray(d_src, dtype=np.int64)
        ix.d_dst = np.asarray(d_dst, dtype=np.int64)
        ix.d_w = np.asarray(d_w, dtype=np.float64)
        ix.d_alive = np.asarray(d_alive, dtype=bool)
        ix.d_key = ix.d_src * self.n + ix.d_dst
        ix.sp = np.argsort(ix.d_key, kind="stable")
        ix.sk = ix.d_key[ix.sp]
        return inserts, deletes, noops


# -- comparison ---------------------------------------------------------------

TALLIES = (
    "last_ingested",
    "last_applied",
    "batches_ingested",
    "batches_applied",
    "records_ingested",
    "inserts_applied",
    "deletes_applied",
    "noop_deletes",
    "ulog_pages_written",
    "compactions",
    "ingest_io_us",
    "apply_io_us",
    "compact_io_us",
)


ARENA = ("d_src", "d_dst", "d_w", "d_alive", "d_key")
TALLY_ARRAYS = ("tombstones", "dead_base", "dead_delta", "d_count")


def as_plain(v):
    return (str(v.dtype), v.tolist()) if isinstance(v, np.ndarray) else v


def index_state(store):
    """The index as comparable plain values, one view per interval: its
    base-alive slice, its arena entries in order, and its tallies."""
    ix = store._index
    iv = store.intervals.interval_of(ix.d_src)
    out = []
    for i in range(store.intervals.n_intervals):
        mine = iv == i
        view = {"base_alive": ix.base_alive[ix.base_off[i] : ix.base_off[i + 1]]}
        view.update((f, getattr(ix, f)[mine]) for f in ARENA)
        view.update((f, getattr(ix, f)[i]) for f in TALLY_ARRAYS)
        out.append({k: as_plain(v) for k, v in view.items()})
    return out


def assert_index_invariants(store):
    """The sorted key index sorts the arena, every interval's records
    are accounted for on flash, and the live count is the graph's."""
    ix = store._index
    sp = np.argsort(ix.d_key, kind="stable")
    assert ix.sp.tolist() == sp.tolist() and ix.sk.tolist() == ix.d_key[sp].tolist()
    iv = store.intervals.interval_of(ix.d_src)
    for i, log in enumerate(store._logs):
        pages, _ = log.read_pages(np.arange(store._applied[i]), charge=False)
        base = store._col_files[i].array.size
        assert ix.base_off[i + 1] - ix.base_off[i] == base
        assert ix.d_count[i] == np.count_nonzero(iv == i)
        # base + inserts + tombstones == the records on flash
        assert ix.total_records()[i] == base + sum(len(p[1]) for p in pages)
    assert store.live_edges() == store.materialize().m


def assert_same_store(a, b):
    assert index_state(a) == index_state(b)
    assert_index_invariants(a)
    assert_index_invariants(b)
    assert {t: getattr(a, t) for t in TALLIES} == {t: getattr(b, t) for t in TALLIES}
    assert a.live_edges() == b.live_edges()
    ga, gb = a.materialize(), b.materialize()
    assert ga.rowptr.tolist() == gb.rowptr.tolist()
    assert ga.colidx.tolist() == gb.colidx.tolist()
    assert (ga.weights is None) == (gb.weights is None)
    if ga.weights is not None:
        assert ga.weights.tolist() == gb.weights.tolist()
    assert a.fs.stats.to_dict() == b.fs.stats.to_dict()


# -- cases --------------------------------------------------------------------

WEIGHTS = (0.5, 1.0, 2.0)  # few values: parallel edges of equal and of differing weight


@st.composite
def fold_cases(draw):
    n = draw(st.integers(2, 8))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex)
    # A handful of hot pairs carries most ops, so chains on one pair
    # (insert, delete, insert, delete, delete ...) are the common case.
    hot = draw(st.lists(pair, min_size=1, max_size=3))
    any_pair = st.one_of(st.sampled_from(hot), st.sampled_from(hot), pair)
    base = draw(st.lists(st.tuples(any_pair, st.sampled_from(WEIGHTS)), max_size=24))
    op = st.tuples(st.sampled_from((OP_ADD, OP_DELETE)), any_pair, st.sampled_from(WEIGHTS))
    batches = draw(st.lists(st.lists(op, min_size=1, max_size=30), min_size=1, max_size=5))
    return {
        "n": n,
        "boundaries": [0, *cuts, n],
        "weighted": draw(st.booleans()),
        "base": base,
        "batches": batches,
        "threshold": draw(st.sampled_from((0.05, 0.3, 1.0))),
        # 1: every record on a log page of its own
        "records_per_page": draw(st.sampled_from((1, 3, 20))),
    }


def unsorted_base(n, edges, weighted):
    """A CSR built directly: rows in draw order, so not dst-sorted."""
    src = np.array([s for (s, _), _ in edges], dtype=np.int64)
    order = np.argsort(src, kind="stable")
    rowptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    dst = np.array([d for (_, d), _ in edges], dtype=np.int64)[order]
    w = np.array([x for _, x in edges], dtype=np.float64)[order] if weighted else None
    return CSRGraph(rowptr, dst, w)


def build(cls, case):
    cfg = DEFAULT_CONFIG.with_stream(compact_threshold=case["threshold"])
    graph = unsorted_base(case["n"], case["base"], case["weighted"])
    store = cls(graph, SimFS(cfg), cfg, intervals=VertexIntervals(np.array(case["boundaries"])))
    store.records_per_page = case["records_per_page"]
    return store


def as_delta(ops, ts0):
    return EdgeDelta.of(
        [o for o, _, _ in ops],
        [s for _, (s, _), _ in ops],
        [d for _, (_, d), _ in ops],
        w=[x for _, _, x in ops],
        ts=ts0 + np.arange(len(ops)),
    )


def arena(store):
    """The whole delta arena, order included."""
    ix = store._index
    return [as_plain(getattr(ix, f)) for f in ARENA]


def check_fold_matches_reference(case):
    fold, ref = build(StreamStore, case), build(ReferenceStore, case)
    for b, ops in enumerate(case["batches"]):
        delta = as_delta(ops, 100 * b)
        assert fold.ingest(delta) == ref.ingest(delta)
        assert fold.apply_updates() == ref.apply_updates()
        assert_same_store(fold, ref)

    # Recovery rebuilds the index from the base files and replays the
    # surviving log pages batch by batch through the same fold; the
    # index is derived state, so it must come back unchanged.
    before = index_state(fold), arena(fold)
    assert fold.recover() == ref.recover()
    assert (index_state(fold), arena(fold)) == before
    assert_same_store(fold, ref)


class TestFoldAgainstReference:
    @given(fold_cases())
    @settings(max_examples=100, deadline=None)
    def test_same_stats_index_graph_and_device_charges(self, case):
        check_fold_matches_reference(case)

    @pytest.mark.slow
    @given(fold_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_stats_index_graph_and_device_charges_full_budget(self, case):
        check_fold_matches_reference(case)

    @given(fold_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_run_split_anywhere_folds_the_same(self, case, data):
        """fold(batch) == fold(head) then fold(tail), for any cut."""
        whole, split = build(StreamStore, case), build(StreamStore, case)
        for b, ops in enumerate(case["batches"]):
            delta = as_delta(ops, 100 * b)
            part = EdgeDelta.concat(p for _, p in delta.by_interval(whole.intervals))
            cut = data.draw(st.integers(0, part.n))
            got = whole._fold(part)
            head = split._fold(part.take(slice(0, cut)))
            tail = split._fold(part.take(slice(cut, part.n)))
            assert got == tuple(h + t for h, t in zip(head, tail))
            assert (index_state(whole), arena(whole)) == (index_state(split), arena(split))
