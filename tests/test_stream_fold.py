"""The stream store's columnar batch fold against its per-record reference.

``StreamStore._apply_rows`` folds a whole record run into the host index
at once (DESIGN.md §12, "Merge, tombstones, compaction").  The model
below is the loop it replaced -- one record at a time, each delete
scanning the interval's base row and its whole delta index -- and the
two must agree on every tally that feeds compaction (and therefore
simulated ``pages_written``), every alive mask, the materialised graph
and the device statistics, on inputs built to collide: a tiny id space,
insert -> delete -> insert chains of one pair inside one batch, parallel
edges, deletes that hit base copies and earlier batches' inserts,
several intervals, and base rows that are not dst-sorted.
"""

import dataclasses

import numpy as np
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

    def _apply_rows(self, i, part):
        ix = self._index[i]
        lo, _ = self.intervals.span(i)
        rowptr = self._rowptr_files[i].array
        col = self._col_files[i].array
        d_src, d_dst = ix.d_src.tolist(), ix.d_dst.tolist()
        d_w, d_alive = ix.d_w.tolist(), ix.d_alive.tolist()
        inserts = deletes = noops = 0
        for k in range(part.n):
            s, d = int(part.src[k]), int(part.dst[k])
            if part.op[k] == OP_DELETE:
                ix.tombstones += 1
                killed = 0
                a, b = int(rowptr[s - lo]), int(rowptr[s - lo + 1])
                hits = a + np.flatnonzero((col[a:b] == d) & ix.base_alive[a:b])
                if hits.size:
                    ix.base_alive[hits] = False
                    ix.dead_base += int(hits.size)
                    killed += int(hits.size)
                for j in range(len(d_src)):
                    if d_alive[j] and d_src[j] == s and d_dst[j] == d:
                        d_alive[j] = False
                        ix.dead_delta += 1
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
                inserts += 1
        ix.d_src = np.asarray(d_src, dtype=np.int64)
        ix.d_dst = np.asarray(d_dst, dtype=np.int64)
        ix.d_w = np.asarray(d_w, dtype=np.float64)
        ix.d_alive = np.asarray(d_alive, dtype=bool)
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


def index_state(store):
    """Every interval's index as comparable plain values."""
    out = []
    for ix in store._index:
        cols = dataclasses.asdict(ix).items()
        out.append(
            {k: (str(v.dtype), v.tolist()) if isinstance(v, np.ndarray) else v for k, v in cols}
        )
    return out


def assert_same_store(a, b):
    assert index_state(a) == index_state(b)
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
        # 1: recovery replays the delta log record by record
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


class TestFoldAgainstReference:
    @given(fold_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_stats_index_graph_and_device_charges(self, case):
        fold, ref = build(StreamStore, case), build(ReferenceStore, case)
        for b, ops in enumerate(case["batches"]):
            delta = as_delta(ops, 100 * b)
            assert fold.ingest(delta) == ref.ingest(delta)
            assert fold.apply_updates() == ref.apply_updates()
            assert_same_store(fold, ref)

        # The same batches fed whole (above) and page by page: recovery
        # replays the surviving delta pages through the same fold, and
        # the index is derived state, so it must come back unchanged.
        before = index_state(fold)
        assert fold.recover() == ref.recover()
        assert index_state(fold) == before
        assert_same_store(fold, ref)

    @given(fold_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_run_split_anywhere_folds_the_same(self, case, data):
        """fold(run) == fold(head) then fold(tail), for any cut."""
        whole, split = build(StreamStore, case), build(StreamStore, case)
        for b, ops in enumerate(case["batches"]):
            delta = as_delta(ops, 100 * b)
            cut = data.draw(st.integers(0, delta.n))
            for i, part in delta.by_interval(whole.intervals):
                got = whole._apply_rows(i, part)
                k = min(cut, part.n)
                head = split._apply_rows(i, part.take(slice(0, k)))
                tail = split._apply_rows(i, part.take(slice(k, part.n)))
                assert got == tuple(h + t for h, t in zip(head, tail))
            assert index_state(whole) == index_state(split)
