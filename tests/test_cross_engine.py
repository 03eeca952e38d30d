"""Cross-engine equivalence: one program, three engines, same answers.

The paper's fairness argument rests on all engines computing the same
vertex-centric semantics while differing only in storage traffic; these
tests pin that property for every application.
"""

import numpy as np
import pytest

import repro
from repro.baselines import GraFBoost, GraphChi
from repro.core.api import InitialState, VertexProgram
from repro.graph.datasets import small_ring
from repro.options import EngineOptions
from repro.core import MultiLogVC
from repro.errors import EngineError, ProgramError
from repro.algorithms import (
    BFSProgram,
    CommunityDetectionProgram,
    DeltaPageRankProgram,
    GraphColoringProgram,
    MISProgram,
    RandomWalkProgram,
    SSSPProgram,
    WCCProgram,
    coloring_is_proper,
)


def norm(v):
    return np.nan_to_num(v, posinf=-1.0)


MERGEABLE = [
    ("bfs", lambda: BFSProgram(0), 40),
    ("pagerank", lambda: DeltaPageRankProgram(threshold=1e-3), 15),
    ("wcc", lambda: WCCProgram(), 60),
]

NON_MERGEABLE = [
    ("cdlp", lambda: CommunityDetectionProgram(), 15),
    ("coloring", lambda: GraphColoringProgram(seed=1), 40),
    ("mis", lambda: MISProgram(seed=1), 60),
    ("randomwalk", lambda: RandomWalkProgram(source_stride=40, walkers_per_source=4, seed=2), 11),
]


class TestMultiLogVCvsGraphChi:
    @pytest.mark.parametrize("name,factory,steps", MERGEABLE + NON_MERGEABLE)
    def test_identical_values(self, cfg, rmat256, name, factory, steps):
        # Float add reduces over a tree defined by MultiLogVC's partition
        # (DESIGN.md §15) and GraphChi takes the default one, so that is
        # where PageRank agrees bit for bit; another partition may differ
        # in the last ulp by contract.  Everything else is order-free.
        opts = EngineOptions(min_intervals=1 if factory().combine == "add" else 4)
        a = MultiLogVC(rmat256, factory(), cfg, options=opts).run(steps)
        b = GraphChi(rmat256, factory(), cfg).run(steps)
        assert np.array_equal(norm(a.values), norm(b.values)), name

    def test_pagerank_identical_over_a_multi_interval_tree(self):
        """The same, where the default partition -- the tree all three
        engines reduce float add over -- has several source intervals."""
        from repro.config import small_test_config
        from repro.graph.datasets import small_rmat
        from repro.graph.partition import static_partition

        g = small_rmat(n=512, m=8192, seed=1)
        cfg = small_test_config(total_bytes=96 * 1024)
        assert static_partition(g, cfg).n_intervals >= 3
        runs = [
            engine(g, DeltaPageRankProgram(threshold=1e-3), cfg).run(15)
            for engine in (MultiLogVC, GraphChi, GraFBoost)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].values, other.values), other.engine

    def test_sssp_identical(self, cfg, rmat256w):
        a = MultiLogVC(rmat256w, SSSPProgram(0), cfg, options=EngineOptions(min_intervals=4)).run(100)
        b = GraphChi(rmat256w, SSSPProgram(0), cfg).run(100)
        assert np.array_equal(norm(a.values), norm(b.values))

    @pytest.mark.parametrize("name,factory,steps", MERGEABLE)
    def test_superstep_counts_match(self, cfg, rmat256, name, factory, steps):
        a = MultiLogVC(rmat256, factory(), cfg).run(steps)
        b = GraphChi(rmat256, factory(), cfg).run(steps)
        assert a.n_supersteps == b.n_supersteps

    @pytest.mark.parametrize("name,factory,steps", MERGEABLE + NON_MERGEABLE)
    def test_activity_traces_match(self, cfg, rmat256, name, factory, steps):
        a = MultiLogVC(rmat256, factory(), cfg).run(steps)
        b = GraphChi(rmat256, factory(), cfg).run(steps)
        assert np.array_equal(a.activity_trace(), b.activity_trace()), name


class TestGraFBoost:
    @pytest.mark.parametrize("name,factory,steps", MERGEABLE)
    def test_identical_values_mergeable(self, cfg, rmat256, name, factory, steps):
        a = MultiLogVC(rmat256, factory(), cfg).run(steps)
        c = GraFBoost(rmat256, factory(), cfg).run(steps)
        assert np.array_equal(norm(a.values), norm(c.values)), name

    def test_rejects_non_mergeable_without_adapted(self, cfg, rmat256):
        with pytest.raises(EngineError):
            GraFBoost(rmat256, CommunityDetectionProgram(), cfg)

    def test_adapted_mode_runs_non_mergeable(self, cfg, rmat256):
        res = GraFBoost(rmat256, GraphColoringProgram(seed=1), cfg, options=EngineOptions(adapted=True)).run(40)
        assert coloring_is_proper(rmat256, res.values)

    def test_adapted_matches_mlvc(self, cfg, rmat256):
        a = MultiLogVC(rmat256, GraphColoringProgram(seed=1), cfg).run(20)
        c = GraFBoost(rmat256, GraphColoringProgram(seed=1), cfg, options=EngineOptions(adapted=True)).run(20)
        assert np.array_equal(a.values, c.values)

    def test_engine_name_reflects_adaptation(self, cfg, rmat256):
        assert GraFBoost(rmat256, WCCProgram(), cfg).name == "grafboost"
        assert GraFBoost(rmat256, WCCProgram(), cfg, options=EngineOptions(adapted=True)).name == "grafboost-adapted"


class TestIOCharacteristics:
    def test_mlvc_reads_fewer_data_pages_for_sparse_activity(self, cfg, rmat256):
        """The paper's core claim at test scale: frontier workloads touch
        far fewer pages on MultiLogVC than on shard-sweeping GraphChi."""
        prog = lambda: RandomWalkProgram(source_stride=64, walkers_per_source=2, seed=0)
        a = MultiLogVC(rmat256, prog(), cfg, options=EngineOptions(min_intervals=4)).run(11)
        b = GraphChi(rmat256, prog(), cfg).run(11)
        assert a.total_pages < b.total_pages

    def test_graphchi_writes_shards_back(self, cfg, rmat256):
        res = GraphChi(rmat256, WCCProgram(), cfg).run(10)
        assert res.stats.writes.get("shard") is not None
        assert res.stats.writes["shard"].pages > 0

    def test_grafboost_reads_whole_graph_every_superstep(self, cfg, rmat256):
        res = GraFBoost(rmat256, BFSProgram(0), cfg).run(10)
        col = res.stats.reads["csr_col"].pages
        # Whole colidx read once per superstep.
        per_step = col / res.n_supersteps
        assert per_step >= 1
        mlvc = MultiLogVC(rmat256, BFSProgram(0), cfg).run(10)
        assert res.stats.reads["csr_col"].pages > mlvc.stats.reads["csr_col"].pages

    def test_grafboost_charges_external_sort(self, cfg, rmat256):
        res = GraFBoost(rmat256, DeltaPageRankProgram(threshold=1e-3), cfg).run(3)
        assert "gfsort" in res.stats.reads or "gfsort" in res.stats.writes


class _StraySend(VertexProgram):
    """Vertex 0 sends to ``target`` at superstep 0 (combine so every engine runs it)."""

    name = "stray"
    combine = "min"

    def __init__(self, target, many):
        self.target = target
        self.many = many

    def initial(self, graph, rng):
        return InitialState(values=np.zeros(graph.n), active=np.array([0]))

    def process(self, ctx):
        if ctx.vid == 0 and ctx.superstep == 0:
            if self.many:
                ctx.send_many(np.array([1, self.target]), np.array([1.0, 1.0]))
            else:
                ctx.send(self.target, 1.0)
        ctx.deactivate()


@pytest.mark.parametrize("many", [False, True], ids=["send", "send_many"])
@pytest.mark.parametrize("where", ["-1", "n"])
@pytest.mark.parametrize(
    "engine", ["oracle", "multilogvc", "graphchi", "grafboost", "gridgraph", "xstream"]
)
def test_send_outside_graph_raises(engine, where, many):
    """Every engine range-checks a send target against ``[0, n)``."""
    g = small_ring(8)
    target = -1 if where == "-1" else g.n
    with pytest.raises(ProgramError, match="outside graph"):
        repro.run(g, _StraySend(target, many), engine, max_supersteps=3)
