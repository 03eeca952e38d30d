"""The sort charge as a natural merge, and the compute ledger by call site.

Every update sort is charged ``n * log2(max(runs, 2))`` where ``runs``
counts the maximal non-decreasing stretches of its keys in arrival
order (:func:`repro.core.update.natural_runs`).  A send-side reduce is
charged as the one stable sort by destination that computes its bits
(DESIGN.md §15): the whole batch, merged from its natural runs or
counted over its destination range, whichever costs less -- pinned here
against a reference model of that algorithm (Python's stable ``sorted``
and a counting sort), whose bits must be ``precombine``'s.  The meter
keeps one tally per call site beside its total; the rows must sum to
the total.
"""

import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import BFSProgram, DeltaPageRankProgram
from repro.config import DEFAULT_CONFIG, small_test_config
from repro.core import MultiLogVC
from repro.core.multilog import MultiLogUnit
from repro.core.results import COMPUTE_SITES, ComputeMeter
from repro.core.sortgroup import SortGroupUnit
from repro.core.update import UpdateBatch, natural_runs, stable_argsort_bounded
from repro.graph import VertexIntervals, uniform_partition
from repro.graph.datasets import small_ring, small_rmat
from repro.mem import MemoryBudget
from repro.obs import TraceRecorder, write_jsonl
from repro.options import EngineOptions
from repro.recovery import CheckpointManager
from repro.ssd import SimFS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from validate_trace import validate_file  # noqa: E402

from .test_precombine import send_batches  # noqa: E402

GRAPH = lambda: small_rmat(n=256, m=2048, seed=3)
C = DEFAULT_CONFIG.compute
UNIT = C.per_sort_item_us / C.cores


def charge(n: int, runs: int) -> float:
    m = ComputeMeter(C)
    m.charge_sort(n, runs, "sort_group")
    return m.time_us


class TestNaturalRuns:
    def test_empty(self):
        assert natural_runs(np.empty(0, np.int32)) == 0

    def test_one_key(self):
        assert natural_runs(np.array([7])) == 1

    def test_sorted(self):
        assert natural_runs(np.arange(100)) == 1

    def test_all_equal_is_one_run(self):
        assert natural_runs(np.full(50, 3)) == 1

    def test_strictly_descending_is_n_runs(self):
        keys = np.arange(64)[::-1]
        assert natural_runs(keys) == 64
        # n runs of one key: the merge is the full n log2 n sort.
        assert charge(64, natural_runs(keys)) == 64 * math.log2(64) * UNIT

    def test_int64_keys(self):
        keys = np.array([2**40, 2**41, 5, 2**40, 2**40, -1], dtype=np.int64)
        assert natural_runs(keys) == 3


class TestCharge:
    def test_sorted_input_costs_one_level(self):
        # Continuous log2 with no run-finding pass: one run costs as two do.
        assert charge(1000, 1) == charge(1000, 2) == 1000 * UNIT

    def test_no_charge_below_two_items(self):
        assert charge(0, 0) == charge(1, 1) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**7), st.data())
    def test_never_above_n_log_n(self, n, data):
        runs = data.draw(st.integers(1, n))
        assert charge(n, runs) <= n * math.log2(n) * UNIT

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**7), st.data())
    def test_monotone_in_runs(self, n, data):
        a, b = sorted(data.draw(st.integers(1, n)) for _ in range(2))
        assert charge(n, a) <= charge(n, b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**40), 2**40), max_size=60))
    def test_runs_match_a_scalar_count(self, keys):
        want = 0 if not keys else 1 + sum(b < a for a, b in zip(keys, keys[1:]))
        assert natural_runs(np.array(keys, dtype=np.int64)) == want


class TestGroupLoadRuns:
    """A group's runs are those of the log followed by the async extras."""

    @pytest.mark.parametrize(
        "log, extra, want",
        [
            ([5, 3], [4, 6], 2),  # the extras continue the log's last run
            ([5, 3], [2, 6], 3),  # they start a new one
            ([], [9, 1], 2),  # no log: the extras alone
            ([5, 3], [], 2),  # no extras
        ],
    )
    def test_runs_span_the_seam(self, log, extra, want):
        cfg = small_test_config()
        iv = uniform_partition(256, 8)
        budget = MemoryBudget.resolve(cfg, iv.n_intervals)
        mlog = MultiLogUnit(SimFS(cfg), iv, cfg, budget, "m")
        if log:
            mlog.ingest(UpdateBatch.of(log, [0] * len(log), [1.0] * len(log)))
        sg = SortGroupUnit(cfg, budget, ComputeMeter(cfg.compute))
        extra_batch = UpdateBatch.of(extra, [0] * len(extra), [1.0] * len(extra))
        out = sg.load_group(mlog, [0], extra=extra_batch)
        assert out.sort_items == len(log) + len(extra)
        assert out.sort_runs == natural_runs(np.array(log + extra)) == want


# -- the send-side sort-reduce ----------------------------------------------

UFUNCS = {"add": np.add, "min": np.minimum, "max": np.maximum}


class MaxProgram(BFSProgram):
    combine = "max"


PROGRAMS = {
    "add": DeltaPageRankProgram,
    "min": lambda: BFSProgram(0),
    "max": lambda: MaxProgram(0),
}


def merge_order(keys):
    """Stable comparison sort of ``keys`` (Python's ``sorted``, itself a
    merge of natural runs); returns the permutation and the run count."""
    runs = 1 + sum(b < a for a, b in zip(keys, keys[1:]))
    return sorted(range(len(keys)), key=keys.__getitem__), runs


def counting_order(keys):
    """Stable counting sort of ``keys``: a histogram over their range, a
    prefix sum, a scatter in input order; returns the permutation."""
    lo = min(keys)
    count = [0] * (max(keys) - lo + 1)
    for k in keys:
        count[k - lo] += 1
    start, total = [], 0
    for c in count:
        start.append(total)
        total += c
    order = [0] * len(keys)
    for p, k in enumerate(keys):
        order[start[k - lo]] = p
        start[k - lo] += 1
    return order, len(count)


def reduce_model(batch, spec, intervals):
    """The reduce the send-side charge models, one record at a time.

    The whole batch (send order) sorted stably by destination, by
    whichever of the two exact algorithms costs fewer item-levels -- the
    merge of its natural runs or a counting sort over its range -- then
    level 1: each maximal run of equal (destination, source interval) of
    the sorted batch reduced with the combine's ``reduceat``, so the bits
    are NumPy's, not a left fold's.  Returns ``(records, item_levels,
    counted)``, each record ``(dest, src, data)`` with ``src`` the run's
    first sender, ``counted`` 1 where the counting sort was the cheaper.
    """
    n, keys = batch.n, batch.dest.tolist()
    if n == 0:
        return [], 0.0, 0
    merged, runs = merge_order(keys)
    counting, span = counting_order(keys)
    merge_cost, count_cost = n * math.log2(max(runs, 2)), 2 * n + span
    counted = int(count_cost < merge_cost)  # never for one send: 1 level against 3
    levels = min(merge_cost, count_cost) if n > 1 else 0.0
    order = counting if counted else merged
    ival = intervals.interval_of(np.clip(batch.src, 0, intervals.n_vertices - 1)).tolist()
    dest, src = batch.dest.tolist(), batch.src.tolist()
    starts = [
        k for k in range(n)
        if k == 0 or (dest[order[k]], ival[order[k]]) != (dest[order[k - 1]], ival[order[k - 1]])
    ]
    partials = UFUNCS[spec].reduceat(batch.data[order], starts).tolist()
    return [(dest[order[k]], src[order[k]], x) for k, x in zip(starts, partials)], levels, counted


class _Sink:
    """Stands in for a multi-log: keeps what the engine hands it."""

    def __init__(self):
        self.batches = []

    def narrowed(self, batch):
        return batch

    def ingest(self, batch):
        self.batches.append(batch)


@functools.lru_cache(maxsize=None)
def _engine(spec):
    return MultiLogVC(small_ring(64), PROGRAMS[spec](), small_test_config())


def send_reduce(batch, spec, intervals):
    """MultiLogVC's send-side reduce of ``batch`` (its sources' partition
    ``intervals``): the batch it logs, the item-levels of its
    ``sort_send`` charge and its ``send_reduce`` event's fields (None
    for no sends, which emit none)."""
    eng = _engine(spec)
    eng.intervals, eng.meter, eng.tracer = intervals, ComputeMeter(C), TraceRecorder()
    sink = _Sink()
    assert eng._log(sink, [batch]) == batch.n
    (logged,) = sink.batches
    fields = [e.fields for e in eng.tracer.events if e.kind == "send_reduce"]
    assert len(fields) == (batch.n > 0)
    return logged, eng.meter.by_site["sort_send"] / UNIT, (fields[0] if fields else None)


def _take(batch, order):
    return UpdateBatch(batch.dest[order], batch.src[order], batch.data[order])


@st.composite
def reduce_batches(draw):
    """``send_batches`` in the shapes a superstep or a seed can take."""
    batch, intervals, _ = draw(send_batches())
    shape = draw(
        st.sampled_from(["ascending", "descending", "seed", "out-of-graph", "wide", "one-interval"])
    )
    n = intervals.n_vertices
    if shape == "descending":  # senders descend inside each interval
        ival = intervals.interval_of(batch.src)
        batch = _take(batch, np.lexsort((-batch.src, ival)))
    elif shape == "seed":  # source intervals not in ascending order
        batch = _take(batch, np.arange(batch.n)[::-1])
    elif shape == "out-of-graph":  # the clip maps them to the end intervals
        k = draw(st.integers(1, 4))
        batch = UpdateBatch.concat(
            [
                UpdateBatch.of(np.arange(k) % n, np.full(k, -1), np.arange(k) + 0.5),
                batch,
                UpdateBatch.of(np.arange(k)[::-1] % n, np.full(k, n + 3), -np.arange(k) - 0.25),
            ]
        )
    elif shape == "wide":  # destinations spread thin over a wide range
        batch = UpdateBatch.of(batch.dest * draw(st.integers(2, 5000)), batch.src, batch.data)
    elif shape == "one-interval":
        intervals = VertexIntervals(np.array([0, n]))
    return batch, intervals


class TestSendSideSortReduce:
    @pytest.mark.parametrize("spec", sorted(UFUNCS))
    @given(reduce_batches())
    @settings(max_examples=100, deadline=None)
    def test_model_equals_precombine_and_the_charge(self, spec, case):
        batch, intervals = case
        records, levels, counted = reduce_model(batch, spec, intervals)
        logged, charged, event = send_reduce(batch, spec, intervals)
        assert logged.dest.tolist() == [d for d, _, _ in records]
        assert logged.src.tolist() == [s for _, s, _ in records]
        assert logged.data.tobytes() == np.array([x for _, _, x in records]).tobytes()
        assert math.isclose(charged, levels, rel_tol=1e-12, abs_tol=1e-12)
        if batch.n == 0:
            assert event is None and charged == 0.0
            return
        assert event["item_levels"] == levels and event["counted"] == counted
        # The merge, the counting sort and the host's radix are one
        # permutation: the bits are precombine's whichever is charged.
        keys = batch.dest.tolist()
        (merged, runs), (counting, span) = merge_order(keys), counting_order(keys)
        assert merged == counting == stable_argsort_bounded(batch.dest - batch.dest.min()).tolist()
        assert (event["records"], event["natural_runs"], event["span"]) == (batch.n, runs, span)
        assert event["survivors"] == logged.n
        # Never above either algorithm's cost; equal to the cheaper.
        merge, count = batch.n * math.log2(max(runs, 2)), 2 * batch.n + span
        if batch.n > 1:
            assert charged <= merge * (1 + 1e-12) and charged <= count * (1 + 1e-12)
            assert math.isclose(charged, min(merge, count), rel_tol=1e-12)

    @pytest.mark.parametrize("spec", sorted(UFUNCS))
    def test_a_sender_sending_twice_to_one_destination(self, spec):
        # Sender 1 sends to 3 twice; sender 5 (interval 1) once.  Nine-plus
        # adds per run: past NumPy's pairwise cutoff, so order shows.
        halves = VertexIntervals(np.array([0, 4, 8]))
        dest = [3, 3, 0, 3, 3, 2, 3, 3, 3, 3, 3, 3, 3, 0]
        src = [1] * 6 + [2] * 7 + [5]
        data = np.random.default_rng(3).standard_normal(14) * 10.0 ** np.arange(-7, 7)
        batch = UpdateBatch.of(dest, src, data)
        records, levels, counted = reduce_model(batch, spec, halves)
        logged, charged, event = send_reduce(batch, spec, halves)
        assert logged.data.tobytes() == np.array([x for _, _, x in records]).tobytes()
        # 14 sends in 4 runs over 4 ids: merged (28 levels against 32
        # counted); 4 survivors, one per (destination, source interval).
        assert counted == event["counted"] == 0
        assert levels == event["item_levels"] == 14 * math.log2(4)
        assert event["survivors"] == logged.n == 4
        assert math.isclose(charged, levels, rel_tol=1e-12)

    @pytest.mark.parametrize("spec", sorted(UFUNCS))
    def test_a_narrow_stream_is_counted(self, spec):
        # 19 sends over 9 ids, 16 of them alternating over two: 9 runs,
        # counted (2 * 19 + 9 = 47 levels against 19 * log2(9) = 60.2).
        halves = VertexIntervals(np.array([0, 4, 8]))
        dest = [1, 0] * 8 + [0, 4, 8]
        src = [0] * 8 + [3] * 8 + [6] * 3
        batch = UpdateBatch.of(dest, src, np.random.default_rng(5).standard_normal(19))
        records, levels, counted = reduce_model(batch, spec, halves)
        logged, charged, event = send_reduce(batch, spec, halves)
        assert logged.data.tobytes() == np.array([x for _, _, x in records]).tobytes()
        assert counted == event["counted"] == 1
        assert (event["natural_runs"], event["span"]) == (9, 9)
        assert levels == 47
        assert math.isclose(charged, levels, rel_tol=1e-12)

    @pytest.mark.parametrize("spec", sorted(UFUNCS))
    def test_a_sparse_batch_is_merged(self, spec):
        # 5 sends in 3 runs spread over a 65 536-id span: merged
        # (5 * log2(3) = 7.9 levels against 2 * 5 + 65 536 counted).
        halves = VertexIntervals(np.array([0, 4, 8]))
        dest = [65535, 0, 40000, 7, 12]
        batch = UpdateBatch.of(dest, [0, 1, 2, 5, 6], np.random.default_rng(7).standard_normal(5))
        records, levels, counted = reduce_model(batch, spec, halves)
        logged, charged, event = send_reduce(batch, spec, halves)
        assert logged.data.tobytes() == np.array([x for _, _, x in records]).tobytes()
        assert counted == event["counted"] == 0
        assert (event["natural_runs"], event["span"]) == (3, 65536)
        assert levels == 5 * math.log2(3)
        assert math.isclose(charged, levels, rel_tol=1e-12)

    @pytest.mark.parametrize("spec", sorted(UFUNCS))
    @given(send_batches())
    @settings(max_examples=60, deadline=None)
    def test_non_contiguous_batch_is_one_stream(self, spec, case):
        # A seed batch (senders descending across intervals) is charged
        # as the same destinations sent in ascending source order.
        batch, intervals, _ = case
        seed = UpdateBatch(batch.dest, batch.src[::-1].copy(), batch.data)
        assume((np.diff(intervals.interval_of(seed.src)) < 0).any())
        _, charged, event = send_reduce(seed, spec, intervals)
        _, want, ascending = send_reduce(batch, spec, intervals)
        assert charged == want
        assert {k: event[k] for k in ("records", "natural_runs", "span", "counted")} == {
            k: ascending[k] for k in ("records", "natural_runs", "span", "counted")
        }

    @pytest.mark.parametrize(
        "dest, src, runs, span",
        [
            ([], [], 0, 0),
            ([4, 1, 2], [0, 4, 5], 2, 4),  # a descent where an interval starts
            ([4, 1, 2, 0], [1, 0, 7, 6], 3, 5),  # senders descend in an interval
            ([4, 1, 2, 0], [-1, 1, 6, 9], 3, 5),  # out-of-graph senders
            ([1, 2, 0], [5, 0, 5], 2, 3),  # source intervals not ascending
            ([5], [2], 1, 1),  # one send: nothing to sort, nothing charged
        ],
    )
    def test_event_carries_the_whole_batch(self, dest, src, runs, span):
        halves = VertexIntervals(np.array([0, 4, 8]))
        batch = UpdateBatch.of(dest, src, np.zeros(len(dest)))
        _, charged, event = send_reduce(batch, "add", halves)
        got = (0, 0) if event is None else (event["natural_runs"], event["span"])
        assert got == (runs, span)
        assert (charged == 0.0) == (len(dest) < 2)


def assert_ledger(res):
    """The ledger's rows sum to the compute total and match the gauges."""
    assert set(res.compute_by_site) == set(COMPUTE_SITES)
    assert math.isclose(sum(res.compute_by_site.values()), res.compute_time_us, rel_tol=1e-9)
    assert {k: res.metrics[f"compute.{k}_us"] for k in COMPUTE_SITES} == res.compute_by_site


class TestLedger:
    @pytest.mark.parametrize("precombine", [True, False])
    @pytest.mark.parametrize("make", [DeltaPageRankProgram, lambda: BFSProgram(0)])
    def test_multilogvc_rows_sum_to_compute(self, precombine, make):
        res = repro.run(
            GRAPH(), make(), config=small_test_config(),
            options=EngineOptions(enable_precombine=precombine), max_supersteps=8,
        )
        assert_ledger(res)
        by = res.compute_by_site
        assert by["sort_group"] > 0 and by["sort_log"] == by["resumed"] == 0.0
        assert (by["sort_send"] > 0) == precombine

    def test_grafboost_charges_its_log_sort(self):
        res = repro.run(
            GRAPH(), DeltaPageRankProgram(), "grafboost", config=small_test_config(),
            max_supersteps=4,
        )
        assert_ledger(res)
        by = res.compute_by_site
        assert by["sort_log"] > 0 and by["sort_send"] == by["sort_group"] == 0.0

    def test_resumed_run_restores_the_meter_as_one_row(self):
        cfg, opts = small_test_config(), EngineOptions(checkpoint_every=2)
        full = repro.run(
            GRAPH(), DeltaPageRankProgram(), config=cfg, options=opts, max_supersteps=8
        )
        eng = MultiLogVC(GRAPH(), DeltaPageRankProgram(), cfg, options=opts)
        eng.run(4)
        ckpt = CheckpointManager.load_latest(eng.fs)
        res = repro.resume(
            GRAPH(), DeltaPageRankProgram(), ckpt, config=cfg, options=opts, max_supersteps=8
        )
        assert_ledger(res)
        assert res.compute_by_site["resumed"] == ckpt.meter_time_us > 0
        assert res.compute_time_us == full.compute_time_us
        # Everything after the cut is charged by site as before.
        after = {k: v for k, v in res.compute_by_site.items() if k != "resumed"}
        assert all(v <= full.compute_by_site[k] for k, v in after.items())


class TestTrace:
    def test_sort_events_carry_natural_runs_within_records(self, tmp_path):
        tracer = TraceRecorder()
        for engine in ("multilogvc", "grafboost"):
            repro.run(
                GRAPH(), DeltaPageRankProgram(), engine, config=small_test_config(),
                tracer=tracer, max_supersteps=4,
            )
        kinds = ("group_sort", "send_reduce", "extsort")
        sorts = [e.fields for e in tracer.events if e.kind in kinds]
        assert {e.kind for e in tracer.events} >= set(kinds)
        assert all(f["records"] == 0 or 1 <= f["natural_runs"] <= f["records"] for f in sorts)
        path = tmp_path / "t.jsonl"
        write_jsonl(tracer.events, str(path))
        assert validate_file(path) == []

    @pytest.mark.parametrize(
        "engine, kind, site",
        [("multilogvc", "send_reduce", "sort_send"), ("grafboost", "extsort", "sort_log")],
    )
    @pytest.mark.parametrize("make", [DeltaPageRankProgram, lambda: BFSProgram(0)])
    def test_reduce_events_sum_to_the_ledger_row(self, engine, kind, site, make):
        cfg, tracer = small_test_config(), TraceRecorder()
        res = repro.run(GRAPH(), make(), engine, config=cfg, tracer=tracer, max_supersteps=8)
        levels = [e.fields["item_levels"] for e in tracer.events if e.kind == kind]
        assert levels and res.compute_by_site[site] > 0
        unit = cfg.compute.per_sort_item_us / cfg.compute.cores
        assert math.isclose(sum(levels) * unit, res.compute_by_site[site], rel_tol=1e-9)

    def test_validator_rejects_natural_runs_above_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "run_begin", "t_us": 0, "step": -1}\n'
            '{"kind": "group_sort", "t_us": 1, "step": 0, "group": 0, "records": 3, '
            '"natural_runs": 4, "unique_dests": 2}\n'
        )
        (err,) = validate_file(path)
        assert "natural_runs 4 outside [1, records 3]" in err
