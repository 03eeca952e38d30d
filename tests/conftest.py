"""Shared fixtures for the test suite.

Everything here is small and deterministic: tiny graphs, a tight test
configuration (small pages and memory so multi-interval/eviction paths
fire even on toy inputs), and fresh simulated file systems.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import settings as _hyp_settings

    # Derandomize property tests: every example sequence is a fixed
    # function of the test itself (a per-test fixed seed), so the suite
    # never depends on module-level or time-dependent RNG state and a
    # failure on one machine reproduces everywhere.
    _hyp_settings.register_profile("deterministic", derandomize=True, deadline=None)
    _hyp_settings.load_profile("deterministic")
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    pass

from repro.config import DEFAULT_CONFIG, SimConfig, small_test_config
from repro.core import VertexProgram
from repro.graph.datasets import (
    small_chain,
    small_grid,
    small_ring,
    small_rmat,
    small_star,
    tiny_paper_graph,
    two_components,
)
from repro.ssd import SimFS


def scalar_variant(prog: VertexProgram) -> VertexProgram:
    """Pin ``prog`` to the default per-vertex kernel, bypassing its override."""
    prog.process_batch = VertexProgram.process_batch.__get__(prog)
    return prog


@pytest.fixture
def cfg() -> SimConfig:
    """Tight configuration: 4 KiB pages, 256 KiB memory, 4 channels."""
    return small_test_config()


@pytest.fixture
def tight_cfg() -> SimConfig:
    """Even tighter: forces many intervals and frequent evictions."""
    return small_test_config(total_bytes=128 * 1024, channels=2)


@pytest.fixture
def default_cfg() -> SimConfig:
    return DEFAULT_CONFIG


@pytest.fixture
def fs(cfg) -> SimFS:
    return SimFS(cfg)


@pytest.fixture
def paper_graph():
    return tiny_paper_graph()


@pytest.fixture
def chain16():
    return small_chain(16)


@pytest.fixture
def ring16():
    return small_ring(16)


@pytest.fixture
def star16():
    return small_star(16)


@pytest.fixture
def grid6x6():
    return small_grid(6, 6)


@pytest.fixture
def rmat256():
    return small_rmat(n=256, m=2048, seed=3)


@pytest.fixture
def rmat256w():
    return small_rmat(n=256, m=2048, seed=3, weighted=True)


@pytest.fixture
def two_comp():
    return two_components(10)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
