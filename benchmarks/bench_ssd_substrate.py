"""Substrate microbenchmarks: the §VI bandwidth claim and hot paths.

The paper reports its implementation reaches ~80% of peak
storage-to-host bandwidth.  These benchmarks check that property of the
simulated device and time the library's hottest primitives
(page-range geometry, multi-log append, sort/group) with
pytest-benchmark's statistical timing (these are real micro-benchmarks,
unlike the single-shot figure regenerations).
"""

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.multilog import MultiLogUnit
from repro.core.update import UpdateBatch
from repro.graph.partition import uniform_partition
from repro.mem import MemoryBudget
from repro.ssd import SimulatedSSD, SimFS
from repro.ssd.file import pages_for_ranges


def test_sequential_read_hits_80pct_of_peak(benchmark):
    """Paper §VI: 'achieve 80% of the peak bandwidth'."""
    dev = SimulatedSSD(DEFAULT_CONFIG)
    n_pages = 4096

    def go():
        return dev.sequential_read_time(n_pages, "bench")

    t = benchmark(go)
    bw = dev.achieved_read_bandwidth(n_pages, t)
    assert bw >= 0.8 * DEFAULT_CONFIG.ssd.peak_read_bandwidth_mbps


def test_random_single_page_pays_latency(benchmark):
    dev = SimulatedSSD(DEFAULT_CONFIG)

    def go():
        return dev.read_batch([3], "bench")

    t = benchmark(go)
    assert t >= DEFAULT_CONFIG.ssd.read_latency_us


def test_pages_for_ranges_throughput(benchmark):
    rng = np.random.default_rng(0)
    starts = np.sort(rng.integers(0, 10**6, 20_000))
    stops = starts + rng.integers(1, 200, 20_000)

    pages, useful = benchmark(pages_for_ranges, starts, stops, 1024, 4)
    assert pages.shape == useful.shape


def test_multilog_ingest_throughput(benchmark):
    cfg = DEFAULT_CONFIG
    fs = SimFS(cfg)
    iv = uniform_partition(100_000, 32)
    budget = MemoryBudget.resolve(cfg, 32)
    rng = np.random.default_rng(1)
    dests = rng.integers(0, 100_000, 10_000)
    batch = UpdateBatch.of(dests, np.full(10_000, 7), rng.random(10_000))

    def go():
        m = MultiLogUnit(fs, iv, cfg, budget, "bench", tracker=None)
        m.ingest(batch)
        return m

    m = benchmark(go)
    assert m.total_messages == 10_000


def test_sort_group_throughput(benchmark):
    rng = np.random.default_rng(2)
    batch = UpdateBatch.of(
        rng.integers(0, 50_000, 200_000),
        rng.integers(0, 50_000, 200_000),
        rng.random(200_000),
    )

    def go():
        s = batch.sort_by_dest()
        return s.group()

    uniq, offsets = benchmark(go)
    assert offsets[-1] == batch.n
