"""Batch-kernel parity and lane-count determinism.

Two guarantees, both exact:

* every algorithm that overrides ``process_batch`` produces the *same*
  values, activation traces, superstep records and device stats as the
  default kernel driving its ``process``, in both sync and async modes,
  on multiple graphs;
* the engine has one group loop; the simulated lane count
  (``num_workers``) is pure accounting on top of it, so any count gives
  identical :class:`SuperstepRecord` streams, values, page counters and
  simulated timing.
"""

import numpy as np
import pytest

import repro
from repro.config import small_test_config
from repro.core import MultiLogVC
from repro.core.batch import segment_min, segment_mode, segment_sum
from repro.graph.datasets import small_rmat
from repro.algorithms import (
    BFSProgram,
    CommunityDetectionProgram,
    DeltaPageRankProgram,
    GraphColoringProgram,
    MISProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.algorithms.coloring import coloring_is_proper
from repro.algorithms.mis import is_independent_set, is_maximal
from repro.core import VertexProgram
from repro.options import EngineOptions

from .conftest import scalar_variant


# (factory, needs weighted graph, max supersteps)
BATCH_PROGRAMS = [
    pytest.param(lambda: DeltaPageRankProgram(threshold=1e-3), False, 12, id="pagerank"),
    pytest.param(lambda: BFSProgram(0), False, 30, id="bfs"),
    pytest.param(lambda: WCCProgram(), False, 40, id="wcc"),
    pytest.param(lambda: SSSPProgram(source=0), True, 30, id="sssp"),
    pytest.param(lambda: CommunityDetectionProgram(), False, 10, id="cdlp"),
    pytest.param(lambda: GraphColoringProgram(), False, 20, id="coloring"),
    pytest.param(lambda: MISProgram(), False, 20, id="mis"),
]


def graph_for(seed: int, weighted: bool):
    return small_rmat(n=256, m=2048, seed=seed, weighted=weighted)


def run_pair(factory, weighted, steps, mode, seed):
    """Run vectorised and default kernels on the same graph; return both results."""
    cfg = small_test_config()
    g = graph_for(seed, weighted)
    batch = MultiLogVC(g, factory(), cfg, options=EngineOptions(mode=mode, min_intervals=4)).run(steps)
    scalar = MultiLogVC(g, scalar_variant(factory()), cfg, options=EngineOptions(mode=mode, min_intervals=4)).run(steps)
    return batch, scalar


class TestBatchScalarParity:
    """Exact equality between vectorised and default kernels, everywhere."""

    @pytest.mark.parametrize("factory,weighted,steps", BATCH_PROGRAMS)
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_exact_parity(self, factory, weighted, steps, mode, seed):
        batch, scalar = run_pair(factory, weighted, steps, mode, seed)
        assert np.array_equal(
            np.nan_to_num(batch.values, posinf=-1),
            np.nan_to_num(scalar.values, posinf=-1),
        )
        assert np.array_equal(batch.activity_trace(), scalar.activity_trace())
        # Not just results: every page, every microsecond.
        assert [r.to_dict() for r in batch.supersteps] == [
            r.to_dict() for r in scalar.supersteps
        ]
        assert batch.stats == scalar.stats

    def test_batch_kernels_actually_engaged(self):
        """Guard against the parity matrix comparing the default with itself."""
        for factory, _, _ in (p.values for p in BATCH_PROGRAMS):
            assert type(factory()).process_batch is not VertexProgram.process_batch
            pinned = scalar_variant(factory())
            assert pinned.process_batch.__func__ is VertexProgram.process_batch

    def test_coloring_batch_result_is_proper(self):
        cfg = small_test_config()
        g = graph_for(3, False)
        r = MultiLogVC(g, GraphColoringProgram(), cfg).run(50)
        assert coloring_is_proper(g, r.values)

    def test_mis_batch_result_is_maximal_independent(self):
        cfg = small_test_config()
        g = graph_for(3, False)
        r = MultiLogVC(g, MISProgram(), cfg).run(60)
        assert is_independent_set(g, r.values)
        assert is_maximal(g, r.values)


#: the programs that declare ``loads_edges`` (factory, weighted, steps)
GATED_PROGRAMS = [p for p in BATCH_PROGRAMS if p.id in ("bfs", "sssp", "wcc")]

#: the superstep-record fields the oracle compares
ORACLE_FIELDS = ("active_vertices", "updates_processed", "messages_sent", "edges_scanned")


def ungated(prog: VertexProgram) -> VertexProgram:
    """``prog`` with its scatter gate off: every active vertex loads its edges."""
    prog.loads_edges = None
    return prog


class TestScatterGateParity:
    """With the gate active, both kernels agree exactly, and the gate
    moves only I/O: values, oracle record fields and compute time are
    those of the same program loading every active vertex's edges."""

    @pytest.mark.parametrize("factory,weighted,steps", GATED_PROGRAMS)
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_gate_moves_only_io(self, factory, weighted, steps, mode):
        assert type(factory()).loads_edges is not None
        batch, scalar = run_pair(factory, weighted, steps, mode, seed=2)
        assert [r.to_dict() for r in batch.supersteps] == [r.to_dict() for r in scalar.supersteps]
        assert batch.stats == scalar.stats
        full = MultiLogVC(
            graph_for(2, weighted), ungated(factory()), small_test_config(),
            options=EngineOptions(mode=mode, min_intervals=4),
        ).run(steps)
        assert batch.values.tobytes() == full.values.tobytes()
        for field in ORACLE_FIELDS:
            assert [getattr(r, field) for r in batch.supersteps] == [
                getattr(r, field) for r in full.supersteps
            ]
        assert batch.compute_time_us == full.compute_time_us
        cols = [r.stats.reads["csr_col"].pages for r in (batch, full)]
        assert cols[0] < cols[1]
        rows = [r.stats.reads["csr_row"].pages for r in (batch, full)]
        assert rows[0] == rows[1]


def records_equal(a, b):
    """Bit-exact comparison of two SuperstepRecord lists."""
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


PIPELINE_PROGRAMS = [
    pytest.param(lambda: DeltaPageRankProgram(threshold=1e-3), False, id="pagerank"),
    pytest.param(lambda: SSSPProgram(source=0), True, id="sssp"),
    pytest.param(lambda: CommunityDetectionProgram(), False, id="cdlp"),
    pytest.param(lambda: GraphColoringProgram(), False, id="coloring"),
    pytest.param(lambda: MISProgram(), False, id="mis"),
]


class TestLaneDeterminism:
    """num_workers > 1 must be bit-identical to num_workers = 1."""

    @pytest.mark.parametrize("factory,weighted", PIPELINE_PROGRAMS)
    def test_lanes1_vs_lanes4_identical(self, factory, weighted):
        g = graph_for(3, weighted)
        results = []
        for workers in (1, 4):
            cfg = small_test_config().with_workers(workers)
            results.append(
                MultiLogVC(g, factory(), cfg, options=EngineOptions(min_intervals=4)).run(12, seed=0)
            )
        one, four = results
        assert np.array_equal(
            np.nan_to_num(one.values, posinf=-1),
            np.nan_to_num(four.values, posinf=-1),
        )
        assert records_equal(one.supersteps, four.supersteps)
        assert one.pages_read == four.pages_read
        assert one.pages_written == four.pages_written
        assert one.stats.total_time_us == four.stats.total_time_us
        assert one.compute_time_us == four.compute_time_us

    def test_async_mode_gates_lanes_off_but_still_runs(self):
        # Async groups depend on each other (cross-group message flow),
        # so the lane overlay is off; the lane count must not change
        # results there either.
        g = graph_for(3, False)
        runs = []
        for workers in (1, 4):
            cfg = small_test_config().with_workers(workers)
            runs.append(
                repro.run(
                    g, WCCProgram(), config=cfg,
                    options=EngineOptions(mode="async"), max_supersteps=40,
                )
            )
        assert np.array_equal(runs[0].values, runs[1].values)
        assert records_equal(runs[0].supersteps, runs[1].supersteps)
        assert "scheduler.groups" not in runs[1].metrics


class TestSegmentedHelpers:
    """The segmented reductions behind the new batch kernels."""

    def test_segment_min_basic(self):
        v = np.array([5.0, 2.0, 9.0, 1.0, 4.0])
        off = np.array([0, 2, 2, 5])
        out = segment_min(v, off, default=np.inf)
        assert list(out) == [2.0, np.inf, 1.0]

    def test_segment_min_where(self):
        v = np.array([5.0, -1.0, 9.0, -1.0, 4.0])
        off = np.array([0, 2, 5])
        out = segment_min(v, off, where=v >= 0, default=np.inf)
        assert list(out) == [5.0, 4.0]

    def test_segment_min_all_filtered(self):
        v = np.array([-1.0, -2.0])
        off = np.array([0, 2])
        out = segment_min(v, off, where=v >= 0, default=123.0)
        assert list(out) == [123.0]

    def test_segment_sum(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        off = np.array([0, 1, 1, 4])
        out = segment_sum(v, off)
        assert list(out) == [1.0, 0.0, 9.0]

    def test_segment_sum_where(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        off = np.array([0, 2, 4])
        out = segment_sum(v, off, where=v > 1.5)
        assert list(out) == [2.0, 7.0]

    def test_segment_mode_majority(self):
        v = np.array([3.0, 1.0, 3.0, 2.0, 2.0, 2.0])
        off = np.array([0, 3, 6])
        out = segment_mode(v, off)
        assert list(out) == [3.0, 2.0]

    def test_segment_mode_tie_prefers_smaller(self):
        # Matches the scalar frequent_label tie-break: smallest value wins.
        v = np.array([7.0, 4.0, 4.0, 7.0])
        off = np.array([0, 4])
        out = segment_mode(v, off)
        assert list(out) == [4.0]

    def test_segment_mode_empty_segment_default(self):
        v = np.array([5.0])
        off = np.array([0, 0, 1])
        out = segment_mode(v, off, default=-1.0)
        assert list(out) == [-1.0, 5.0]
