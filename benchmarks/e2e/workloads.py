"""The five workloads and the four pinned configurations.

Closed loop, one driver thread: a repetition starts when the previous
one has returned.  Inputs are made from the workload seed with the
public generators (dataset seed + S, so S=0 is ``cf_like("bench")`` /
``bfs_chain_graph("large")``); the engine receives only the built
``CSRGraph`` / ``EdgeDelta`` objects.

Why each workload exists is recorded in ``BENCHMARK.json`` and the
README; in short each stresses a different stack of layers and each
optimisation has one workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.algorithms import BFSProgram, DeltaPageRankProgram, SSSPProgram
from repro.config import DEFAULT_CONFIG, MIB, SimConfig
from repro.graph.csr import CSRGraph
from repro.graph.datasets import bfs_chain_graph
from repro.graph.generators import rmat_edges
from repro.stream import StreamSession
from repro.stream.delta import random_delta
from repro.verify import compare_results

# -- pinned configurations ------------------------------------------------------
# Built explicitly so REPRO_NUM_WORKERS / REPRO_DEVICES / REPRO_IO_PLAN can
# not leak in (run.py scrubs them from the child environment as well).
# There is no single "all features on" stack: with the page cache on the
# engine forces workers = 1 and depth = 0, so PARALLEL and CACHED are the
# two stacks that exist.
BASE = DEFAULT_CONFIG.with_workers(1).with_io_plan("off").with_devices(1)
#: 2 workers, not 4: the box has 2 cores and W=4 medians drift far more.
PARALLEL = BASE.with_workers(2).with_io_plan("coalesce").with_devices(4)
#: default 12 MiB budget = 3072 pages, at least the PageRank working set
CACHED = BASE.with_cache().with_io_plan("coalesce+readahead").with_devices(4)
#: 512 pages against ~10 400 demand pages of the BFS run
TIGHT = BASE.with_cache(cache_bytes=2 * MIB).with_io_plan("coalesce+readahead").with_devices(4)
STREAM = BASE.with_stream(compact_threshold=0.1)

CONFIGS: Dict[str, SimConfig] = {
    "BASE": BASE, "PARALLEL": PARALLEL, "CACHED": CACHED, "TIGHT": TIGHT,
}

#: ``cf_like`` shape (repro.graph.datasets): bench-scale n, directed m, R-MAT a/b/c, dataset seed
_CF = dict(n=16_384, m=240_000, a=0.57, b=0.19, c=0.19, seed=20210517)
_BFS_SEED = 77
_SCALE = {"test": 1.0 / 16.0, "bench": 1.0, "large": 4.0}


def cf_graph(seed: int, scale: str = "bench", weighted: bool = False) -> CSRGraph:
    """``cf_like(scale, weighted)`` with the dataset seed shifted by ``seed``."""
    f = _SCALE[scale]
    n, m = max(64, int(_CF["n"] * f)), max(256, int(_CF["m"] * f))
    s = _CF["seed"] + seed
    _, src, dst = rmat_edges(n, m, _CF["a"], _CF["b"], _CF["c"], seed=s)
    w = np.random.default_rng(s ^ 0x5EED).random(src.shape[0]) if weighted else None
    return CSRGraph.from_edges(n, src, dst, weights=w, symmetrize=True, dedup=True)


@dataclass
class Rep:
    """What one timed repetition produced."""

    #: ``(wall, cpu)`` seconds of each timed segment, both clocks read at
    #: the same two instants.  An engine repetition is one segment; a
    #: ``stream_churn`` pass is one per recompute period, and the caller's
    #: ``between`` hook runs in the untimed gaps.
    segments: List[Tuple[float, float]]
    #: wall time inside engine runs (= ``wall_s`` for an engine workload,
    #: the recomputes of a ``stream_churn`` pass)
    engine_wall_s: float
    edges: int
    #: simulated end-to-end metrics, exactly repeatable
    sim: Dict[str, float]
    #: sha256 over final values; with ``sim`` the bit-identity fingerprint
    digest: str
    results: List[Any]
    #: stream pass only: per-batch ingest+apply seconds, the session
    #: registry snapshot and the store device's stats delta
    batch_s: List[float] = field(default_factory=list)
    stream: Optional[Dict[str, Any]] = None

    @property
    def wall_s(self) -> float:
        return sum(w for w, _ in self.segments)

    @property
    def cpu_s(self) -> float:
        return sum(c for _, c in self.segments)

    @property
    def fingerprint(self) -> Tuple:
        return (self.digest, tuple(sorted(self.sim.items())))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class EngineWorkload:
    """One ``repro.run(...)`` per repetition on a graph built at set-up."""

    #: the graph and the warmed-up interpreter are reused across repetitions
    fresh_setup_per_rep = False

    def __init__(self, name: str, config_name: str, min_reps: int, seed: int, quick: bool) -> None:
        self.name = name
        self.config_name = config_name
        self.config = CONFIGS[config_name]
        self.min_reps = 2 if quick else min_reps
        self.seed = seed
        self.quick = quick
        #: observability tracer handed to the engine (None = ambient null tracer)
        self.tracer = None
        self.graph: Optional[CSRGraph] = None
        self.graph_build_s = 0.0

    # overridden per workload
    max_supersteps = 10

    def build_graph(self) -> CSRGraph:
        raise NotImplementedError

    def program(self):
        raise NotImplementedError

    def setup(self) -> None:
        """Build the inputs and run one warm-up repetition."""
        self.graph = None
        t0 = time.perf_counter()
        self.graph = self.build_graph()
        self.graph_build_s = time.perf_counter() - t0
        self.repetition()

    def repetition(self, between: Optional[Callable[[], Any]] = None) -> Rep:
        t0 = time.perf_counter()
        c0 = time.process_time()
        r = repro.run(
            self.graph, self.program(), config=self.config,
            max_supersteps=self.max_supersteps, tracer=self.tracer,
        )
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        return Rep(
            segments=[(wall, cpu)],
            engine_wall_s=wall,
            edges=sum(rec.edges_scanned for rec in r.supersteps),
            sim={
                "sim_time_ms": r.total_time_us / 1e3,
                "sim_storage_ms": r.storage_time_us / 1e3,
                "pages_read": r.pages_read,
                "pages_written": r.pages_written,
            },
            digest=_digest([r.values]),
            results=[r],
        )

    def oracle_mismatches(self, first: Rep) -> List[str]:
        """``compare_results`` of the first repetition against the oracle."""
        oracle = repro.run(
            self.graph, self.program(), engine="oracle", config=self.config,
            max_supersteps=self.max_supersteps,
        )
        return compare_results(oracle, first.results[0])


class PageRankWorkload(EngineWorkload):
    def build_graph(self) -> CSRGraph:
        return cf_graph(self.seed, "test" if self.quick else "bench")

    def program(self):
        return DeltaPageRankProgram(threshold=1e-3)


class BFSWorkload(EngineWorkload):
    max_supersteps = 64  # converges in 21-22 at bench scale

    def build_graph(self) -> CSRGraph:
        graph, self.source = bfs_chain_graph("test" if self.quick else "large", seed=_BFS_SEED + self.seed)
        return graph

    def program(self):
        return BFSProgram(source=self.source)


class StreamChurnWorkload:
    """Ingest + apply pre-generated delta batches, recompute now and then.

    A pass consumes its session, so every pass gets a fresh set-up
    (graph, deltas, session, initial converge); only the pass is timed.
    """

    fresh_setup_per_rep = True
    name = "stream_churn"
    config_name = "BASE+stream"
    config = STREAM

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.min_reps = 2
        # n_batches is a multiple of recompute_every: a pass ends on a recompute
        self.n_batches, self.batch_records, self.recompute_every = (
            (12, 100, 4) if quick else (120, 1000, 40)
        )
        self.tracer = None
        self.graph: Optional[CSRGraph] = None
        self.graph_build_s = 0.0
        self.session: Optional[StreamSession] = None
        #: the graph the first pass left behind, kept for the oracle check
        self.final_graph: Optional[CSRGraph] = None

    def setup(self) -> None:
        self.graph = self.session = None
        t0 = time.perf_counter()
        self.graph = cf_graph(self.seed, "test" if self.quick else "bench", weighted=True)
        self.graph_build_s = time.perf_counter() - t0
        rng = np.random.default_rng(self.seed)
        src, dst = self.graph.edge_array()
        self.deltas = [
            random_delta(rng, self.graph.n, src, dst, self.batch_records, p_delete=0.3,
                         weighted=True, ts0=i * self.batch_records)
            for i in range(self.n_batches)
        ]
        kwargs = {"tracer": self.tracer} if self.tracer is not None else {}
        self.session = StreamSession(self.graph, SSSPProgram(source=0), config=self.config, **kwargs)
        first = self.session.recompute()
        if not first.result.converged:
            raise RuntimeError("stream_churn: initial SSSP run did not converge")

    def repetition(self, between: Optional[Callable[[], Any]] = None) -> Rep:
        sess = self.session
        stats0 = sess.fs.stats.snapshot()
        batch_s: List[float] = []
        recomputes = []
        segments: List[Tuple[float, float]] = []
        engine_wall = 0.0
        t0 = time.perf_counter()
        c0 = time.process_time()
        for i, delta in enumerate(self.deltas):
            a = time.perf_counter()
            sess.ingest(delta)
            sess.apply_updates()
            b = time.perf_counter()
            batch_s.append(b - a)
            if (i + 1) % self.recompute_every == 0:
                recomputes.append(sess.recompute())
                t1 = time.perf_counter()
                engine_wall += t1 - b
                segments.append((t1 - t0, time.process_time() - c0))
                if between is not None and i + 1 < len(self.deltas):
                    between()
                t0 = time.perf_counter()
                c0 = time.process_time()
        store = sess.fs.stats.snapshot() - stats0
        results = [rc.result for rc in recomputes]
        if self.final_graph is None:  # passes are identical; keep the first
            self.final_graph = sess.store.materialize()
        # ``seed_io_us`` of each recompute is charged on the session SSD,
        # so it is already inside ``store``; adding it again would count
        # the warm-start reads twice.
        return Rep(
            segments=segments,
            engine_wall_s=engine_wall,
            edges=sum(rec.edges_scanned for r in results for rec in r.supersteps),
            sim={
                "sim_time_ms": (store.total_time_us + sum(r.total_time_us for r in results)) / 1e3,
                "sim_storage_ms": (store.total_time_us + sum(r.storage_time_us for r in results)) / 1e3,
                "pages_read": store.pages_read + sum(r.pages_read for r in results),
                "pages_written": store.pages_written + sum(r.pages_written for r in results),
            },
            digest=_digest([r.values for r in results]),
            results=results,
            batch_s=batch_s,
            stream={"metrics": sess.metrics.snapshot(), "stats": store},
        )

    def oracle_mismatches(self, first: Rep) -> List[str]:
        """Final values against an oracle run on the materialised graph.

        Superstep records are not compared: an incremental run takes a
        different path to the same fixed point.
        """
        oracle = repro.run(
            self.final_graph, SSSPProgram(source=0), engine="oracle",
            config=self.config, max_supersteps=50,
        )
        return compare_results(
            oracle, first.results[-1], check_supersteps=False, check_records=False
        )


#: name -> factory(seed, quick); order is the order ``--all`` runs them in
WORKLOADS = {
    "pr_dense": lambda seed, quick: PageRankWorkload("pr_dense", "BASE", 5, seed, quick),
    "pr_parallel": lambda seed, quick: PageRankWorkload("pr_parallel", "PARALLEL", 5, seed, quick),
    "pr_cached": lambda seed, quick: PageRankWorkload("pr_cached", "CACHED", 5, seed, quick),
    "bfs_tightcache": lambda seed, quick: BFSWorkload("bfs_tightcache", "TIGHT", 10, seed, quick),
    "stream_churn": lambda seed, quick: StreamChurnWorkload(seed, quick),
}
