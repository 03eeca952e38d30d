"""The tight deletion cone (DESIGN.md §12) against plain-Python references.

A warm start resets only the vertices whose converged value could have
come through a deleted edge: the tight descendants of deleted tight
edges.  These tests pin :func:`repro.stream.incremental.descendants` to
a per-edge reference of that rule, check it never exceeds the plain
reachability cone, and check that warm-starting from it lands on
bit-exactly the values of a from-scratch oracle run -- on small graphs
with parallel edges, self-loops, unreachable parts and integer weights
in {0, 1, 2}, so ties and zero-weight tight cycles occur.  Dropping a
tight descendant from the cone must break exactness somewhere: the
reset cannot stop at the roots.  The warm start's seed batch, whose
in-edges are gathered by a mask over the edge list, must equal element
for element the batch a transpose's rows give, less every seed that
cannot improve its destination; and the batch with those seeds kept
must converge to the very same values.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import BFSProgram, SSSPProgram, WCCProgram
from repro.core.api import InitialState
from repro.core.update import UpdateBatch
from repro.graph.csr import CSRGraph
from repro.graph.datasets import small_rmat
from repro.obs import TraceRecorder, write_jsonl
from repro.stream import StreamSession, random_delta
from repro.stream.incremental import descendants
from repro.verify import OracleEngine

from .test_stream import _edge_multiset_diff

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from validate_trace import validate_file  # noqa: E402

PROGRAMS = {
    "bfs": lambda: BFSProgram(source=0),
    "sssp": lambda: SSSPProgram(source=0),
    "wcc": lambda: WCCProgram(),
}

MAX_SUPERSTEPS = 64


@st.composite
def stream_cases(draw):
    """(program, n, edges, batches); a batch is (delete picks, inserts)."""
    program = draw(st.sampled_from(sorted(PROGRAMS)))
    n = draw(st.integers(2, 8))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2))
    edges = draw(st.lists(edge, min_size=n, max_size=3 * n))
    batch = st.tuples(
        st.lists(st.integers(0, 63), min_size=1, max_size=3), st.lists(edge, max_size=3)
    )
    return program, n, edges, draw(st.lists(batch, min_size=1, max_size=2))


def build(n, edges, weighted):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([float(e[2]) for e in edges]) if weighted else None
    return CSRGraph.from_edges(n, src, dst, w)


def oracle(graph, program, initial_state=None):
    r = OracleEngine(graph, PROGRAMS[program]()).run(
        MAX_SUPERSTEPS, initial_state=initial_state
    )
    assert r.converged
    return r.values


def reference_cones(graph, values, relax, deleted):
    """(tight cone, reachability cone) of the deleted pairs, edge by edge."""
    src, dst = graph.edge_array()
    edges = [
        (int(s), int(d), None if graph.weights is None else graph.weights[i])
        for i, (s, d) in enumerate(zip(src, dst))
    ]

    def tight(s, d, w):
        return bool(np.isfinite(values[d]) and relax(values[s], w) == values[d])

    def closure(roots, follow):
        seen, stack = set(roots), list(roots)
        while stack:
            u = stack.pop()
            for s, d, w in edges:
                if s == u and d not in seen and follow(s, d, w):
                    seen.add(d)
                    stack.append(d)
        return seen

    tight_roots = {d for s, d, w in edges if (s, d) in deleted and tight(s, d, w)}
    heads = {d for s, d in deleted}
    return closure(tight_roots, tight), closure(heads, lambda s, d, w: True)


def play(program, n, edges, batches):
    """Yield every batch's (old graph, old values, new graph, diff, roots, cone)."""
    weighted = program == "sssp"
    cur = list(edges)
    graph = build(n, cur, weighted)
    values = oracle(graph, program)
    for picks, inserts in batches:
        gone = {cur[i % len(cur)][:2] for i in picks} if cur else set()
        cur = [e for e in cur if e[:2] not in gone] + list(inserts)
        new = build(n, cur, weighted)
        diff = _edge_multiset_diff(graph, new)
        roots, cone = descendants(graph, values, PROGRAMS[program]().relax, diff[0], diff[1])
        yield graph, values, new, diff, roots, cone
        graph, values = new, oracle(new, program)


def warm_state(program, new, values, cone, diff):
    _, _, i_src, i_dst, i_w = diff
    return PROGRAMS[program]().warm_start(
        new, values, cone, i_src, i_dst, i_w, np.random.default_rng(0)
    )


def warm_values(program, new, values, cone, diff):
    return oracle(new, program, initial_state=warm_state(program, new, values, cone, diff))


def transpose_seeds(program, new, values, reset, diff, improving_only=True):
    """The warm start's seed batch with the in-edges into ``reset`` read
    off a transpose, row by row: the source seed, the in-edges from
    outside ``reset``, the inserts from outside it, then (WCC) each reset
    vertex's kick along its out-edges -- each seed kept only if its data
    is below its destination's warm value, unless ``improving_only`` is
    off (the rule before non-improving seeds were dropped)."""
    relax = PROGRAMS[program]().relax
    _, _, i_src, i_dst, i_w = diff
    src, dst = new.edge_array()
    rev = CSRGraph.from_edges(new.n, dst, src, new.weights)
    warm = values.copy()
    warm[reset] = reset if program == "wcc" else np.inf
    in_reset = np.isin(np.arange(new.n), reset)
    seeds = [] if program == "wcc" else [UpdateBatch.of([0], [0], [0.0])]

    def from_outside(dest, tails, w):
        keep = ~in_reset[tails] & np.isfinite(warm[tails])
        data = relax(warm[tails[keep]], None if w is None else w[keep])
        seeds.append(UpdateBatch.of(dest[keep], tails[keep], data))

    for r in reset.tolist():
        row = slice(rev.rowptr[r], rev.rowptr[r + 1])
        tails = rev.colidx[row].astype(np.int64)
        w = None if rev.weights is None else rev.weights[row]
        from_outside(np.full(tails.size, r), tails, w)
    from_outside(i_dst, i_src, i_w)
    if program == "wcc":
        for v in reset.tolist():
            row = slice(new.rowptr[v], new.rowptr[v + 1])
            heads = new.colidx[row].astype(np.int64)
            tails = np.full(heads.size, v)
            seeds.append(UpdateBatch.of(heads, tails, relax(warm[tails], None)))
    batch = UpdateBatch.concat(seeds)
    if improving_only:
        keep = batch.data < warm[batch.dest]
        batch = UpdateBatch(batch.dest[keep], batch.src[keep], batch.data[keep])
    return batch


@settings(max_examples=60, deadline=None)
@given(case=stream_cases())
def test_tight_cone_matches_reference_and_warm_start_is_exact(case):
    program, n = case[:2]
    relax = PROGRAMS[program]().relax
    for graph, values, new, diff, roots, cone in play(*case):
        deleted = set(zip(diff[0].tolist(), diff[1].tolist()))
        tight, reachable = reference_cones(graph, values, relax, deleted)
        assert cone.tolist() == sorted(tight)
        assert set(roots.tolist()) <= tight <= reachable
        # The seed batch, gathered by mask, against a transpose's rows.
        # The even and the odd vertices are no cone, but they put many
        # heads, fed by interleaved tails, into one gather.
        for reset in (cone, np.arange(0, n, 2), np.arange(1, n, 2)):
            got = warm_state(program, new, values, reset, diff).messages
            want = transpose_seeds(program, new, values, reset, diff)
            got = UpdateBatch.empty() if got is None else got
            for col in ("dest", "src", "data"):
                assert getattr(got, col).tolist() == getattr(want, col).tolist()
        assert np.array_equal(warm_values(program, new, values, cone, diff), oracle(new, program))


def check_non_improving_seeds_change_nothing(case):
    """The warm start with and without its non-improving seeds lands on
    the same values, on the oracle and on MultiLogVC alike, for the
    tight cone and for the even and the odd vertices as reset sets."""
    program, n = case[:2]
    for _, values, new, diff, _, cone in play(*case):
        for reset in (cone, np.arange(0, n, 2), np.arange(1, n, 2)):
            state = warm_state(program, new, values, reset, diff)
            every = transpose_seeds(program, new, values, reset, diff, improving_only=False)
            assert state.seeds_dropped == every.n - state.messages.n
            for engine in ("oracle", "multilogvc"):
                got = [
                    repro.run(
                        new, PROGRAMS[program](), engine, max_supersteps=MAX_SUPERSTEPS,
                        initial_state=InitialState(state.values, state.active, seeds),
                    )
                    for seeds in (state.messages, every)
                ]
                assert all(r.converged for r in got)
                assert got[0].values.tolist() == got[1].values.tolist()


@settings(max_examples=30, deadline=None)
@given(case=stream_cases())
def test_non_improving_seeds_change_nothing(case):
    check_non_improving_seeds_change_nothing(case)


@pytest.mark.slow
@settings(max_examples=120, deadline=None)
@given(case=stream_cases())
def test_non_improving_seeds_change_nothing_full_budget(case):
    check_non_improving_seeds_change_nothing(case)


def test_dropping_a_tight_descendant_breaks_exactness():
    """Every cone vertex is needed somewhere: run the generated cases
    again with one non-root cone vertex left out of the reset set, and
    at least one of them must land on wrong values."""
    broken = []

    @settings(max_examples=60, deadline=None, database=None)
    @given(case=stream_cases())
    def probe(case):
        program = case[0]
        for _, values, new, diff, roots, cone in play(*case):
            extra = np.setdiff1d(cone, roots)
            if extra.size:
                got = warm_values(program, new, values, cone[cone != extra[-1]], diff)
                if not np.array_equal(got, oracle(new, program)):
                    broken.append(program)

    probe()
    assert broken


def test_dropping_the_chain_tail_breaks_exactness():
    # 0 -> 1 -> 2 -> 3: deleting 0 -> 1 cuts 1, 2 and 3 off the source
    case = ("sssp", 4, [(0, 1, 1), (1, 2, 1), (2, 3, 0)], [([0], [])])
    (_, values, new, diff, roots, cone), = play(*case)
    assert roots.tolist() == [1] and cone.tolist() == [1, 2, 3]
    assert np.array_equal(warm_values("sssp", new, values, cone, diff), [0.0] + [np.inf] * 3)
    kept = warm_values("sssp", new, values, cone[cone != 3], diff)
    assert kept[3] == 2.0  # the stale distance survives


def test_mixed_delta_trace_validates(tmp_path):
    g = small_rmat(n=128, m=512, seed=9, weighted=True)
    tracer = TraceRecorder()
    sess = StreamSession(g, SSSPProgram(source=0), tracer=tracer)
    sess.recompute(max_supersteps=200)
    for b in range(3):
        s, t = sess.store.live_edge_arrays()
        sess.ingest(random_delta(np.random.default_rng([9, b]), g.n, s, t, 10, weighted=True))
        sess.apply_updates()
        r = sess.recompute(max_supersteps=200)
        ev = [e for e in tracer.events if e.kind == "warm_start"][-1]
        assert r.mode == "incremental" and ev.fields["io_us"] == r.seed_io_us
    assert sum(e.kind == "warm_start" for e in tracer.events) == 3
    path = tmp_path / "t.jsonl"
    write_jsonl(tracer.events, str(path))
    assert validate_file(path) == []


@pytest.mark.parametrize("fields,msg", [
    ('"roots": 2, "cone": 1, "walk_rows": 3, "scan": true, "io_us": 1.0', "more roots"),
    ('"roots": 0, "cone": 0, "walk_rows": -1, "scan": false, "io_us": 1.0', "non-integer"),
    ('"roots": 0, "cone": 0, "walk_rows": 1, "scan": 0, "io_us": 1.0', "'scan' must be"),
    ('"roots": 0, "cone": 0, "walk_rows": 1, "scan": false, "io_us": -1.0', "'io_us' must be"),
    ('"roots": 0, "cone": 0, "walk_rows": 1, "scan": false, "io_us": 1.0, "seeds": -1',
     "negative/non-integer 'seeds'"),
])
def test_validator_rejects_bad_warm_start(tmp_path, fields, msg):
    path = tmp_path / "bad.jsonl"
    if '"seeds"' not in fields:
        fields += ', "seeds": 1'
    path.write_text(
        '{"kind": "run_begin", "t_us": 0, "step": -1}\n'
        f'{{"kind": "warm_start", "t_us": 1, "step": -1, "seeds_dropped": 0, {fields}}}\n'
    )
    (err,) = validate_file(path)
    assert msg in err
