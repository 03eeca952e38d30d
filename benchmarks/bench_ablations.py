"""Ablations of MultiLogVC's design choices (DESIGN.md SS 4)."""

from benchmarks.conftest import run_once
from repro.experiments import ablations


def test_ablation_edgelog(benchmark, print_result):
    result = run_once(benchmark, ablations.run_edgelog)
    print_result(result)
    on, off = result.rows
    assert on[1] <= off[1], "edge log must not increase colidx reads"


def test_ablation_fusing(benchmark, print_result):
    result = run_once(benchmark, ablations.run_fusing)
    print_result(result)
    on, off = result.rows
    assert on[1] <= off[1], "fusing must not increase read batches"


def test_ablation_channels(benchmark, print_result):
    result = run_once(benchmark, ablations.run_channels)
    print_result(result)
    times = [row[1] for row in result.rows]
    assert times[0] > times[-1], "more channels must be faster"


def test_ablation_history_window(benchmark, print_result):
    result = run_once(benchmark, ablations.run_history_window)
    print_result(result)
    logged = [row[1] for row in result.rows]
    assert logged[0] <= logged[-1], "larger N logs at least as many vertices"


def test_ablation_precombine(benchmark, print_result):
    result = run_once(benchmark, ablations.run_precombine)
    print_result(result)
    for on, off in (result.rows[0:2], result.rows[2:4]):
        assert on[3] < off[3], "the send-side combine must log fewer records"
        assert on[6] < off[6], "and finish sooner in simulated time"
