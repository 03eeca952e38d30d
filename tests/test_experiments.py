"""Experiment harness: every paper artifact regenerates at test scale."""

import numpy as np
import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig2_active,
    fig3_utilization,
    fig5_bfs,
    fig6_apps,
    fig7_supersteps,
    fig8_grafboost,
    fig9_prediction,
    fig10_memory,
    table1_datasets,
)
from repro.experiments.common import ExperimentResult, paper_programs, per_superstep_speedups

SCALE = "test"
DATASETS = ("cf",)


class TestHarness:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1",
            "fig2",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablations",
            "ext-gridgraph",
            "ext-preprocessing",
        }

    def test_paper_programs_complete(self):
        progs = paper_programs(n=1000)
        assert set(progs) == {"pagerank", "cdlp", "coloring", "mis", "randomwalk"}
        for factory in progs.values():
            factory()  # constructible

    def test_result_renders(self):
        r = ExperimentResult("x", "cap", ["a"], [(1,)], notes="n")
        out = r.render()
        assert "cap" in out and "note" in out


class TestTable1:
    def test_rows(self):
        r = table1_datasets.run(SCALE)
        assert len(r.rows) == 4
        # paper rows keep the published sizes
        assert r.rows[0][1] == 124_836_180


class TestFig2:
    def test_activity_shrinks(self):
        r = fig2_active.run(SCALE, DATASETS, steps=15)
        fracs = [row[3] for row in r.rows]
        assert fracs[0] > fracs[-1]
        assert all(0 <= f <= 1 for f in fracs)


class TestFig3:
    def test_fractions_bounded(self):
        r = fig3_utilization.run(SCALE, DATASETS, steps=8)
        assert len(r.rows) >= 5
        for row in r.rows:
            assert 0.0 <= row[4] <= 1.0

    def test_some_inefficiency_observed(self):
        r = fig3_utilization.run(SCALE, DATASETS, steps=8)
        assert any(row[3] > 0 for row in r.rows)


class TestFig5:
    def test_shape(self):
        r = fig5_bfs.run(SCALE, fractions=(0.25, 1.0))
        assert len(r.rows) == 2
        small, full = r.rows
        # speedup > 1 and page ratio > 1 everywhere
        assert small[2] > 1.0 and full[2] > 1.0
        assert small[3] > 1.0 and full[3] > 1.0
        # early traversal at least as favourable as full traversal
        assert small[2] >= full[2] * 0.8
        # storage dominates
        assert full[4] > 50.0


class TestFig6:
    def test_speedups_positive(self):
        r = fig6_apps.run(SCALE, DATASETS, steps=8, apps=("mis", "randomwalk"))
        data_rows = [row for row in r.rows if row[1] in ("CF",)]
        assert len(data_rows) == 2
        for row in data_rows:
            assert row[3] > 0

    def test_sparse_apps_beat_graphchi(self):
        r = fig6_apps.run(SCALE, DATASETS, steps=8, apps=("randomwalk",))
        rw = [row for row in r.rows if row[0] == "randomwalk" and row[1] == "CF"][0]
        assert rw[3] > 1.0


class TestFig7:
    def test_series_present(self):
        r = fig7_supersteps.run(SCALE, DATASETS, steps=6, apps=("mis",))
        assert len(r.rows) >= 3
        speeds = [row[4] for row in r.rows]
        assert all(s > 0 for s in speeds)

    def test_late_supersteps_favour_mlvc(self):
        r = fig7_supersteps.run(SCALE, DATASETS, steps=8, apps=("mis",))
        speeds = [row[4] for row in r.rows]
        assert speeds[-1] > speeds[0]


class TestFig8:
    def _tight_config(self):
        # Keep the paper's log >> sort-memory regime at test scale;
        # otherwise GraFBoost's external sort degenerates to in-memory.
        from repro.config import small_test_config

        return small_test_config(total_bytes=96 * 1024)

    def test_mlvc_beats_grafboost(self):
        r = fig8_grafboost.run(SCALE, DATASETS, config=self._tight_config())
        for row in r.rows:
            assert row[2] > 1.0, row

    def test_both_comparisons_present(self):
        r = fig8_grafboost.run(SCALE, DATASETS, config=self._tight_config())
        kinds = {row[0] for row in r.rows}
        assert len(kinds) == 2
        # The extension column: combining before the log only helps, and
        # only where there is a combine.
        for row in r.rows:
            if row[0].startswith("pagerank"):
                assert row[4] > row[2], row
            else:
                assert row[4] == row[2], row


class TestFig9:
    def test_accuracy_bounds(self):
        r = fig9_prediction.run(SCALE, DATASETS, steps=8)
        for row in r.rows:
            assert 0.0 <= row[5] <= 1.0

    def test_some_vertices_logged(self):
        r = fig9_prediction.run(SCALE, DATASETS, steps=8)
        assert any(row[4] > 0 for row in r.rows)


class TestFig10:
    def test_memory_sweep(self):
        r = fig10_memory.run(SCALE, DATASETS, multipliers=(1, 4), steps=8)
        assert len(r.rows) == 2
        speeds = [row[2] for row in r.rows]
        # roughly flat: within 2x of each other
        assert max(speeds) / min(speeds) < 2.0


class TestPerSuperstepHelper:
    def test_handles_unequal_lengths(self):
        from repro.core.results import RunResult, SuperstepRecord
        from repro.ssd.stats import SSDStats

        def mk(times):
            recs = [
                SuperstepRecord(i, 1, 1, 1, 1, t, 0.0, 0, 0, records_logged=1)
                for i, t in enumerate(times)
            ]
            return RunResult("e", "p", np.zeros(1), recs, True, SSDStats(), 0.0)

        s = per_superstep_speedups(mk([1.0, 2.0]), mk([2.0, 2.0, 9.0]))
        assert list(s) == [2.0, 1.0]
