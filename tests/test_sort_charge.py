"""The sort charge as a natural merge, and the compute ledger by call site.

Every update sort is charged ``n * log2(max(runs, 2))`` where ``runs``
counts the maximal non-decreasing stretches of its keys in arrival
order (:func:`repro.core.update.natural_runs`).  The meter keeps one
tally per call site beside its total; the rows must sum to the total.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import BFSProgram, DeltaPageRankProgram
from repro.config import DEFAULT_CONFIG, small_test_config
from repro.core import MultiLogVC
from repro.core.multilog import MultiLogUnit
from repro.core.results import COMPUTE_SITES, ComputeMeter
from repro.core.sortgroup import SortGroupUnit
from repro.core.update import UpdateBatch, natural_runs
from repro.graph import uniform_partition
from repro.graph.datasets import small_rmat
from repro.mem import MemoryBudget
from repro.obs import TraceRecorder, write_jsonl
from repro.options import EngineOptions
from repro.recovery import CheckpointManager
from repro.ssd import SimFS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from validate_trace import validate_file  # noqa: E402

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
        sorts = [e.fields for e in tracer.events if e.kind in ("group_sort", "extsort")]
        assert {e.kind for e in tracer.events} >= {"group_sort", "extsort"}
        assert all(f["records"] == 0 or 1 <= f["natural_runs"] <= f["records"] for f in sorts)
        path = tmp_path / "t.jsonl"
        write_jsonl(tracer.events, str(path))
        assert validate_file(path) == []

    def test_validator_rejects_natural_runs_above_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "run_begin", "t_us": 0, "step": -1}\n'
            '{"kind": "group_sort", "t_us": 1, "step": 0, "group": 0, "records": 3, '
            '"natural_runs": 4, "unique_dests": 2}\n'
        )
        (err,) = validate_file(path)
        assert "natural_runs 4 outside [1, records 3]" in err
