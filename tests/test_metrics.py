"""Metrics: tables, series, activity traces."""

import pytest

from repro.config import small_test_config
from repro.options import EngineOptions
from repro.core import MultiLogVC
from repro.algorithms import GraphColoringProgram
from repro.metrics import (
    activity_trace,
    geometric_mean,
    render_series,
    render_table,
)


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "bbb"], [(1, 2.5), (100, 0.123)], caption="cap")
        lines = out.splitlines()
        assert lines[0] == "cap"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_render_table_formats_floats(self):
        out = render_table(["x"], [(1234.5,), (0.5678,), (float("nan"),)])
        assert "1,234" in out or "1,235" in out
        assert "0.568" in out
        assert "nan" in out

    def test_render_series_bars_proportional(self):
        out = render_series("x", "y", [1, 2], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[-1].count("#") == 10
        assert lines[-2].count("#") == 5

    def test_render_series_zero(self):
        out = render_series("x", "y", [1], [0.0])
        assert "#" not in out

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, -3.0]) == 0.0


class TestRunDerivedMetrics:
    @pytest.fixture
    def run(self, rmat256):
        cfg = small_test_config()
        return MultiLogVC(rmat256, GraphColoringProgram(), cfg, options=EngineOptions(min_intervals=4)).run(15), rmat256

    def test_activity_trace(self, run):
        res, g = run
        tr = activity_trace(res, g, "rmat")
        assert tr.active_vertices.shape[0] == res.n_supersteps
        assert (tr.vertex_fraction <= 1.0).all()
        assert tr.rows()[0][1] == res.supersteps[0].active_vertices
