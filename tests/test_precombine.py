"""Combine before the log (DESIGN.md §15): the tree contract.

With a named combine the engine reduces a group's sends to one record
per (destination, source interval) before they reach the multi-log.
What is pinned here:

* the toggle changes log traffic and nothing a program can observe --
  values, activity tuples and ``messages_sent`` are identical on and
  off, across fusing, lane count and cache, and equal to the oracle's;
* programs without a combine do not touch the mechanism: their whole
  ``RunResult`` is the parent commit's, bit for bit;
* the two-level tree is one function of (send order, static partition):
  reducing per source interval -- or per any group of them -- first and
  running the tree over the partials gives the same bits as running it
  over the raw updates;
* seeds go through the same sink, range check first.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import (
    BFSProgram,
    CommunityDetectionProgram,
    DeltaPageRankProgram,
    GraphColoringProgram,
    MISProgram,
    RandomWalkProgram,
    SSSPProgram,
    TriangleCountProgram,
    WCCProgram,
)
from repro.config import small_test_config
from repro.core import MultiLogVC
from repro.core.api import InitialState, VertexProgram
from repro.core.combine import combine_sorted, precombine
from repro.core.update import UpdateBatch
from repro.errors import ProgramError, RecoveryError
from repro.graph.datasets import small_rmat
from repro.graph.partition import VertexIntervals
from repro.options import EngineOptions
from repro.recovery import CheckpointManager
from repro.verify import compare_results

GRAPH = lambda weighted=False: small_rmat(n=256, m=2048, seed=3, weighted=weighted)

COMBINE_PROGRAMS = {
    "pagerank": (lambda: DeltaPageRankProgram(threshold=1e-3), 10),
    "bfs": (lambda: BFSProgram(0), 40),
    "sssp": (lambda: SSSPProgram(0), 60),
    "wcc": (lambda: WCCProgram(), 40),
}


class TestToggleChangesOnlyLogTraffic:
    @pytest.mark.parametrize("cache", [False, True], ids=["nocache", "cache"])
    @pytest.mark.parametrize("lanes", [1, 4])
    @pytest.mark.parametrize("fusing", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("alg", sorted(COMBINE_PROGRAMS))
    def test_on_equals_off_equals_oracle(self, alg, fusing, lanes, cache):
        factory, steps = COMBINE_PROGRAMS[alg]
        cfg = small_test_config().with_workers(lanes)
        if cache:
            cfg = cfg.with_cache(cache_bytes=16 * cfg.ssd.page_size)
        graph = GRAPH(weighted=alg == "sssp")
        runs = {
            on: MultiLogVC(
                graph, factory(), cfg,
                options=EngineOptions(min_intervals=4, enable_fusing=fusing, enable_precombine=on),
            ).run(steps)
            for on in (True, False)
        }
        on, off = runs[True], runs[False]
        assert on.values.tobytes() == off.values.tobytes()
        assert on.comparable()["activity"] == off.comparable()["activity"]
        oracle = repro.run(
            graph, factory(), engine="oracle", config=cfg,
            options=EngineOptions(min_intervals=4), max_supersteps=steps,
        )
        assert compare_results(oracle, on) == []
        # The mechanism ran: fewer records logged, never more log pages.
        assert all(r.records_logged == r.messages_sent for r in off.supersteps)
        assert sum(r.records_logged for r in on.supersteps) < sum(
            r.messages_sent for r in on.supersteps
        )
        # (Total reads can wobble by a page or two: smaller logs fuse into
        # other groups, which moves cache and read-ahead decisions.)
        assert on.pages_written <= off.pages_written
        log_reads = [getattr(r.stats.reads.get("mlog"), "pages", 0) for r in (on, off)]
        assert log_reads[0] <= log_reads[1]

    def test_async_add_is_identical_too(self):
        """Async delivery splices same-superstep extras after the log;
        the seam closes level 1 on both sides, so the toggle still
        cannot move a float."""
        runs = [
            MultiLogVC(
                GRAPH(), DeltaPageRankProgram(threshold=1e-3), small_test_config(),
                options=EngineOptions(mode="async", min_intervals=7, enable_precombine=on),
            ).run(10)
            for on in (True, False)
        ]
        assert runs[0].values.tobytes() == runs[1].values.tobytes()
        assert runs[0].comparable()["activity"] == runs[1].comparable()["activity"]

    def test_callable_combine_stays_post_read(self):
        class CallableMin(BFSProgram):
            combine = staticmethod(lambda data: float(data.min()))
            loads_edges = None  # the scatter gate needs a named combine

        eng = MultiLogVC(GRAPH(), CallableMin(0), small_test_config())
        assert not eng.precombine
        res = eng.run(40)
        assert all(r.records_logged == r.messages_sent for r in res.supersteps)
        named = MultiLogVC(GRAPH(), BFSProgram(0), small_test_config()).run(40)
        assert np.array_equal(res.values, named.values)

    def test_resume_checks_the_setting(self):
        opts = EngineOptions(checkpoint_every=2)
        eng = MultiLogVC(GRAPH(), DeltaPageRankProgram(), small_test_config(), options=opts)
        eng.run(4)
        ckpt = CheckpointManager.load_latest(eng.fs)
        assert ckpt.precombine
        with pytest.raises(RecoveryError, match="send-side combine"):
            repro.resume(
                GRAPH(), DeltaPageRankProgram(), ckpt, config=small_test_config(),
                options=opts.replace(enable_precombine=False), max_supersteps=8,
            )


#: sha256 prefix over (values, superstep records, SSDStats) of each
#: non-combine program's run below.  Checkpointing is on so the cut's
#: pickled size -- a simulated cost -- is inside the fingerprint as well.
#: Taken at the commit before the send-side combine (a260f54), and
#: re-recorded once since, when every update sort became a natural merge:
#: for these programs that moves the group-sort charge, so each record's
#: compute and total time moved; with those two fields left out the
#: digests are the same before and after that change.  Re-recorded again
#: when a write-through multi-log eviction began freeing whole stripes:
#: values and every record field but the I/O ones (``pages_read``,
#: ``pages_read_by_class``, ``pages_written``, ``storage_time_us`` and
#: ``total_time_us``) are the same before and after that change;
#: ``randomwalk`` never evicts and kept its digest.
PARENT_FINGERPRINTS = {
    "cdlp": (lambda: CommunityDetectionProgram(), 10, "fc259a47b2ad3184"),
    "coloring": (lambda: GraphColoringProgram(seed=1), 20, "266616d05f51844c"),
    "mis": (lambda: MISProgram(seed=1), 30, "5da365de3c6f210b"),
    "randomwalk": (
        lambda: RandomWalkProgram(source_stride=40, walkers_per_source=4, seed=2), 11,
        "f1be82bc08e2be95",
    ),
    "triangles": (lambda: TriangleCountProgram(), 3, "baddaf9aefd85fb8"),
}


@pytest.mark.parametrize("alg", sorted(PARENT_FINGERPRINTS))
def test_non_combine_programs_are_the_parents_bit_for_bit(alg):
    factory, steps, want = PARENT_FINGERPRINTS[alg]
    opts = EngineOptions(min_intervals=4, checkpoint_every=0 if alg == "triangles" else 2)
    assert opts.enable_precombine  # the default: the toggle is on and inert
    # Pinned against the REPRO_* legs: planner and devices move SSDStats.
    cfg = small_test_config().with_workers(1).with_io_plan("off").with_devices(1)
    res = MultiLogVC(GRAPH(), factory(), cfg, options=opts).run(steps)
    assert all(r.records_logged == r.messages_sent for r in res.supersteps)
    # records_logged did not exist at a260f54; everything else did.
    records = [
        {k: v for k, v in r.to_dict().items() if k != "records_logged"} for r in res.supersteps
    ]
    h = hashlib.sha256(res.values.tobytes())
    h.update(json.dumps([records, res.stats.to_dict()], sort_keys=True).encode())
    assert h.hexdigest()[:16] == want


# -- the tree ---------------------------------------------------------------


@st.composite
def send_batches(draw):
    """One superstep's sends: ascending source vertex, random destinations."""
    n = draw(st.integers(2, 40))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=5))
    boundaries = [0, *sorted(cuts), n]
    size = draw(st.integers(0, 120))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, n, size))
    dest = rng.integers(0, min(n, 6), size)  # few destinations: long runs
    # Magnitudes far apart, so the order of a float add shows in the bits.
    data = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
    # Group boundaries: any subset of the interval boundaries (fusing).
    keep = draw(st.lists(st.booleans(), min_size=len(boundaries) - 2, max_size=len(boundaries) - 2))
    groups = [0, *(b for b, k in zip(boundaries[1:-1], keep) if k), n]
    return UpdateBatch.of(dest, src, data), VertexIntervals(boundaries), np.array(groups)


def _tree(batch, spec, intervals):
    batch = batch.sort_by_dest()
    uniq, offsets = batch.group()
    out, _, _ = combine_sorted(batch, uniq, offsets, spec, intervals)
    return out


def _split_by_source(batch, edges):
    """``batch`` (ascending src) cut where src crosses each of ``edges``."""
    cut = np.searchsorted(batch.src, edges)
    return [
        UpdateBatch(batch.dest[a:b], batch.src[a:b], batch.data[a:b])
        for a, b in zip(cut[:-1], cut[1:])
    ]


class TestTreeProperty:
    @pytest.mark.parametrize("spec", ["add", "min", "max"])
    @given(send_batches())
    @settings(max_examples=150, deadline=None)
    def test_tree_equals_per_interval_precombine_then_flat_reduce(self, spec, case):
        batch, intervals, groups = case
        want = _tree(batch, spec, intervals)
        # Level 1 per source interval, then one flat reduce per
        # destination over the partials in interval order: the tree,
        # spelled out.
        partials = UpdateBatch.concat(
            precombine(part, spec, intervals)
            for part in _split_by_source(batch, intervals.boundaries)
        )
        flat = _tree(partials, spec, None)
        assert flat.dest.tolist() == want.dest.tolist()
        assert flat.data.tobytes() == want.data.tobytes()
        # What the engine does: level 1 per *group* of intervals, the
        # whole tree again over what the log then holds.
        logged = UpdateBatch.concat(
            precombine(part, spec, intervals) for part in _split_by_source(batch, groups)
        )
        again = _tree(logged, spec, intervals)
        assert again.data.tobytes() == want.data.tobytes()
        if spec != "add":  # order-free: the flat reduce agrees as well
            assert _tree(batch, spec, None).data.tobytes() == want.data.tobytes()

    def test_level2_orders_unsorted_seeds_by_source_interval(self):
        """Seeds need not arrive in source order: level 2 sorts a
        destination's partials by interval (stable), so a reduced and a
        raw log still agree."""
        halves = VertexIntervals(np.array([0, 4, 8]))
        # dest 1 gets a run from interval 1, then one from interval 0.
        seeds = UpdateBatch.of([1, 1, 1], [5, 6, 0], [0.1, 0.2, 0.3])
        raw = _tree(seeds, "add", halves)
        reduced = _tree(precombine(seeds, "add", halves), "add", halves)
        assert raw.data.tobytes() == reduced.data.tobytes()
        # Interval 0's partial first, then interval 1's; not arrival order.
        assert raw.data.tolist() == [0.3 + (0.1 + 0.2)] != [0.1 + (0.2 + 0.3)]
        assert _tree(seeds, "add", None).data.tolist() == [0.1 + (0.2 + 0.3)]

    def test_async_seam_closes_level1_on_both_sides(self):
        """Async delivery appends same-superstep extras to the log's
        records.  When both sides end/start on one (destination, source
        interval), raw updates would fuse into one run across the seam
        where two partials stay two -- so ``load_group`` closes level 1
        over each side first."""
        from repro.core.multilog import MultiLogUnit
        from repro.core.results import ComputeMeter
        from repro.core.sortgroup import SortGroupUnit
        from repro.graph import uniform_partition
        from repro.mem import MemoryBudget
        from repro.ssd import SimFS

        cfg = small_test_config()
        iv = uniform_partition(64, 4)
        rng = np.random.default_rng(5)
        # Nine-plus updates per side: past NumPy's pairwise-sum cutoff,
        # where regrouping an add changes bits.
        sides = [
            UpdateBatch.of(
                np.full(12, 40), rng.integers(16, 32, 12),
                rng.standard_normal(12) * 10.0 ** rng.integers(-8, 9, 12),
            )
            for _ in range(2)
        ]

        def load(reduced):
            budget = MemoryBudget.resolve(cfg, iv.n_intervals)
            mlog = MultiLogUnit(SimFS(cfg), iv, cfg, budget, "m")
            log, extra = (
                precombine(b, "add", iv) if reduced else b for b in sides
            )
            mlog.ingest(log)
            sg = SortGroupUnit(cfg, budget, ComputeMeter(cfg.compute))
            return sg.load_group(mlog, [2], combine="add", extra=extra)

        raw, reduced = load(False), load(True)
        assert raw.batch.data.tobytes() == reduced.batch.data.tobytes()
        assert (raw.sort_items, reduced.sort_items) == (24, 2)
        # One run across the seam would have been another float.
        fused = _tree(UpdateBatch.concat(sides), "add", iv)
        assert fused.data.tobytes() != raw.batch.data.tobytes()

    def test_precombine_keeps_first_src_and_dest_dtype(self):
        halves = VertexIntervals(np.array([0, 4, 8]))
        b = UpdateBatch(np.array([3, 2, 3, 3], np.int64), np.array([1, 1, 2, 6]), np.ones(4))
        out = precombine(b, "add", halves)
        assert out.dest.dtype == np.int64
        assert (out.dest.tolist(), out.src.tolist(), out.data.tolist()) == (
            [2, 3, 3], [1, 1, 6], [1.0, 2.0, 1.0]
        )


# -- seeds ------------------------------------------------------------------


class SeededAdd(VertexProgram):
    """An ``add`` program seeded with several messages per destination
    (no shipped program does that): a vertex adds its update to its
    value and passes a share on for two rounds."""

    name = "seeded-add"
    combine = "add"

    def __init__(self, seeds):
        self.seeds = seeds

    def initial(self, graph, rng):
        return InitialState(np.zeros(graph.n), np.empty(0, np.int64), UpdateBatch.of(*self.seeds))

    def process(self, ctx):
        if ctx.n_updates:
            (got,) = ctx.updates_data
            ctx.value = ctx.value + got
            if ctx.superstep < 2 and ctx.degree:
                ctx.send_all(got / 3.0)
        ctx.deactivate()


#: (dest, src, data): three destinations, sources out of order and from
#: every interval of QUARTERS.  In arrival order vertex 7 gets runs from
#: intervals 3, 0, 2, 3 and vertex 200 from 1, 0: seven runs, ten seeds.
SEEDS = (
    [7, 7, 7, 7, 7, 7, 200, 200, 200, 9],
    [250, 251, 3, 4, 130, 252, 66, 67, 2, 9],
    [1e16, 1.0, 0.1, -1e16, 0.2, 0.3, 1e-9, 7.0, 2.5, 4.0],
)
QUARTERS = EngineOptions(intervals=VertexIntervals(np.array([0, 64, 128, 192, 256])))


class TestSeeds:
    @pytest.mark.parametrize("fusing", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("precombine_on", [True, False], ids=["on", "off"])
    def test_seeded_add_matches_oracle(self, precombine_on, fusing):
        cfg = small_test_config()
        oracle = repro.run(
            GRAPH(), SeededAdd(SEEDS), engine="oracle", config=cfg, options=QUARTERS
        )
        res = repro.run(
            GRAPH(), SeededAdd(SEEDS), config=cfg,
            options=QUARTERS.replace(enable_precombine=precombine_on, enable_fusing=fusing),
        )
        assert compare_results(oracle, res) == []
        # The seeds are chosen so the order shows: over one interval (a
        # different tree) the same program ends on other bits.
        flat = repro.run(GRAPH(), SeededAdd(SEEDS), engine="oracle", config=cfg)
        assert compare_results(flat, res) != []
        # Seeds are logged before superstep 0's record opens.
        logged = sum(res.metrics[f"multilog.mlog.{u}.appended"] for u in "ab")
        seeds_logged = logged - sum(r.records_logged for r in res.supersteps)
        assert seeds_logged == (7 if precombine_on else 10)

    @pytest.mark.parametrize("engine", ["graphchi", "grafboost"])
    def test_seeded_add_on_the_baselines(self, engine):
        """They reduce over the default partition's tree, seeds included."""
        cfg = small_test_config()
        oracle = repro.run(GRAPH(), SeededAdd(SEEDS), engine="oracle", config=cfg)
        res = repro.run(GRAPH(), SeededAdd(SEEDS), engine=engine, config=cfg)
        assert compare_results(oracle, res, check_records=False) == []

    @pytest.mark.parametrize("dest", [-1, 256 + 5, 2**32 + 7])
    @pytest.mark.parametrize("path", ["seed", "kernel"])
    def test_range_check_precedes_the_reduce(self, path, dest):
        """An id that would wrap onto vertex 7 when narrowed must be
        rejected by its true value, not folded into vertex 7's run."""
        wide = np.array([7, dest, 7], dtype=np.int64)

        class Probe(SeededAdd):
            def initial(self, graph, rng):
                if path == "seed":
                    return InitialState(
                        np.zeros(graph.n), np.empty(0, np.int64),
                        UpdateBatch(wide, np.zeros(3, np.int64), np.ones(3)),
                    )
                return InitialState(np.zeros(graph.n), np.array([0]))

            def process_batch(self, batch):
                batch.send_batch(wide, np.zeros(3, np.int64), np.ones(3))

        eng = MultiLogVC(GRAPH(), Probe(SEEDS), small_test_config())
        assert eng.precombine
        with pytest.raises(ProgramError, match=r"\[0, 256\)"):
            eng.run(1)
