"""Seeded differential fuzzer: adversarial graphs x engine config matrix.

Every case is a fully serialisable ``(graph spec, program, engine,
options, config, scenario)`` tuple.  :func:`run_case` builds fresh
inputs (engines may mutate host-side state, and programs like MIS carry
internal round state), runs the golden oracle and the engine under
test, and diffs them with :func:`~repro.verify.compare.compare_results`.

Case generation is deterministic: case ``i`` of master seed ``s`` is
derived from ``default_rng([s, i])`` and nothing else, so any failing
case can be regenerated from ``(seed, index)`` alone and the shrinker
can replay candidates cheaply.

Engine eligibility encodes the engines' documented contracts rather
than hiding bugs:

* GridGraph / XStream require a combine operator (streaming
  accumulation), so they only receive mergeable programs;
* GraFBoost runs non-mergeable programs only in its §VIII adapted mode
  (``adapted=True``), which the generator forces;
* GraphChi messages live in per-edge slots (one message per edge per
  superstep, Fig. 1b), so its graphs are deduplicated -- parallel edges
  cannot carry independent messages in that model;
* asynchronous MultiLogVC consumes same-superstep updates, so async
  cases use monotone min-combine programs (BFS/WCC/SSSP) and compare
  final values only (superstep schedules legitimately differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import algorithms as alg
from ..config import IO_PLAN_MODES, PLACEMENTS, STACK_KNOBS, MemoryConfig, SimConfig, SSDConfig
from ..core.results import RunResult
from ..graph.csr import CSRGraph
from ..graph.generators import chain_edges, ring_edges, rmat_edges, star_edges
from ..obs import TraceRecorder
from ..options import EngineOptions
from ..recovery.validate import count_device_ops, crash_resume_experiment
from ..ssd.faults import FaultPlan, FaultRule
from ..ssd.filesystem import SimFS
from .compare import compare_results
from .oracle import OracleEngine

#: Programs safe to run under asynchronous delivery: monotone min-combine
#: fixed points, where the arrival schedule cannot change the result.
MONOTONE_PROGRAMS = frozenset({"bfs", "wcc", "sssp"})

#: Programs each engine can execute (engine contracts, see module doc).
ENGINE_PROGRAMS: Dict[str, Sequence[str]] = {
    "multilogvc": ("bfs", "pagerank", "wcc", "sssp", "cdlp", "coloring", "mis", "randomwalk"),
    "graphchi": ("bfs", "pagerank", "wcc", "sssp", "cdlp", "coloring", "mis", "randomwalk"),
    "grafboost": ("bfs", "pagerank", "wcc", "sssp", "cdlp", "coloring", "mis", "randomwalk"),
    "gridgraph": ("bfs", "pagerank", "wcc", "sssp"),
    "xstream": ("bfs", "pagerank", "wcc", "sssp"),
}

#: Round-robin engine schedule; MultiLogVC appears every other case so
#: the checkpoint/resume and fault scenarios get enough air time.
ENGINE_CYCLE = (
    "multilogvc", "graphchi", "multilogvc", "grafboost",
    "multilogvc", "gridgraph", "multilogvc", "xstream",
)

#: Scenario schedule for MultiLogVC cases (round-robin, so a 25-case
#: quick pass exercises every scenario).
MLVC_SCENARIOS = ("plain", "resume", "crash_resume", "transient_fault")

GRAPH_KINDS = ("rmat", "rmat_multi", "star", "chain", "ring", "two_comp")


@dataclass
class ConformanceCase:
    """One fully-specified differential check, JSON-serialisable."""

    case_id: str
    engine: str
    program: str
    prog_params: Dict[str, Any]
    graph: Dict[str, Any]
    options: Dict[str, Any]
    config: Dict[str, Any]
    scenario: str = "plain"
    scenario_params: Dict[str, Any] = field(default_factory=dict)
    max_supersteps: int = 15
    seed: int = 0
    compare: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case_id": self.case_id,
            "engine": self.engine,
            "program": self.program,
            "prog_params": self.prog_params,
            "graph": self.graph,
            "options": self.options,
            "config": self.config,
            "scenario": self.scenario,
            "scenario_params": self.scenario_params,
            "max_supersteps": self.max_supersteps,
            "seed": self.seed,
            "compare": self.compare,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ConformanceCase":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})

    def describe(self) -> str:
        bits = [self.case_id, self.engine, self.program, f"graph={self.graph.get('kind')}"]
        if self.scenario != "plain":
            bits.append(self.scenario)
        if self.options:
            bits.append(",".join(f"{k}={v}" for k, v in sorted(self.options.items())))
        return " ".join(bits)


@dataclass
class CaseOutcome:
    """What happened when a case ran."""

    case: ConformanceCase
    mismatches: List[str] = field(default_factory=list)
    error: Optional[str] = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.error is None

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tail = ""
        if self.error:
            tail = f" error: {self.error}"
        elif self.mismatches:
            tail = f" {self.mismatches[0]}"
        if self.note:
            tail += f" [{self.note}]"
        return f"{status} {self.case.describe()}{tail}"


# -- builders ----------------------------------------------------------------


def build_graph(spec: Dict[str, Any]) -> CSRGraph:
    """Materialise a graph spec (fresh arrays every call)."""
    kind = spec["kind"]
    if kind == "explicit":
        w = spec.get("weights")
        return CSRGraph.from_edges(
            int(spec["n"]),
            np.asarray(spec["src"], dtype=np.int64),
            np.asarray(spec["dst"], dtype=np.int64),
            weights=None if w is None else np.asarray(w, dtype=np.float64),
        )
    seed = int(spec["seed"])
    if kind in ("rmat", "rmat_multi", "two_comp"):
        n0, m0 = int(spec["n"]), int(spec["m"])
        if kind == "two_comp":
            # Two disjoint power-law components (plus the optional
            # isolated tail below): no path between the halves.
            na, sa, ta = rmat_edges(max(4, n0 // 2), max(2, m0 // 2), seed=seed)
            nb, sb, tb = rmat_edges(max(4, n0 - na), max(2, m0 - m0 // 2), seed=seed + 1)
            n = na + nb
            src = np.concatenate([sa, sb + na])
            dst = np.concatenate([ta, tb + na])
        else:
            n, src, dst = rmat_edges(
                n0, m0, seed=seed, self_loops=bool(spec.get("self_loops", False))
            )
    elif kind == "star":
        n, src, dst = star_edges(int(spec["n"]))
    elif kind == "chain":
        n, src, dst = chain_edges(int(spec["n"]))
    elif kind == "ring":
        n, src, dst = ring_edges(int(spec["n"]))
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    pad = int(spec.get("pad", 0))  # isolated tail: empty vertex intervals
    n += pad
    weights = None
    if spec.get("weighted", False):
        rng = np.random.default_rng([seed, 0xBEEF])
        weights = rng.uniform(0.1, 2.0, size=src.shape[0])
    return CSRGraph.from_edges(
        n, src, dst,
        weights=weights,
        symmetrize=bool(spec.get("symmetrize", True)),
        dedup=bool(spec.get("dedup", False)),
    )


def explicit_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Convert any graph spec to an explicit edge-list spec (the
    shrinker's working form; round-trips through :func:`build_graph`)."""
    if spec["kind"] == "explicit":
        return dict(spec)
    g = build_graph(spec)
    src, dst = g.edge_array()
    return {
        "kind": "explicit",
        "n": int(g.n),
        "src": [int(x) for x in src],
        "dst": [int(x) for x in dst],
        "weights": None if g.weights is None else [float(x) for x in g.weights],
    }


_PROGRAM_FACTORIES: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "bfs": lambda p: alg.BFSProgram(source=p.get("source", 0)),
    "pagerank": lambda p: alg.DeltaPageRankProgram(threshold=p.get("threshold", 0.01)),
    "wcc": lambda p: alg.WCCProgram(),
    "sssp": lambda p: alg.SSSPProgram(source=p.get("source", 0)),
    "cdlp": lambda p: alg.CommunityDetectionProgram(),
    "coloring": lambda p: alg.GraphColoringProgram(seed=p.get("seed", 0)),
    "mis": lambda p: alg.MISProgram(seed=p.get("seed", 0)),
    "randomwalk": lambda p: alg.RandomWalkProgram(
        source_stride=p.get("source_stride", 13),
        walkers_per_source=p.get("walkers_per_source", 2),
        max_steps=p.get("max_steps", 5),
        seed=p.get("seed", 0),
    ),
}


def build_program(case: ConformanceCase):
    """Fresh program instance (programs carry per-run internal state)."""
    return _PROGRAM_FACTORIES[case.program](case.prog_params)


def build_config(cdict: Dict[str, Any]) -> SimConfig:
    return SimConfig(
        ssd=SSDConfig(
            page_size=int(cdict.get("page_size", 4096)),
            channels=int(cdict.get("channels", 4)),
        ),
        memory=MemoryConfig(total_bytes=int(cdict.get("total_bytes", 256 * 1024))),
        # An omitted stack knob means its built-in default, not the
        # REPRO_* environment's: a saved case replays the same anywhere.
        **{knob: cdict.get(knob, default) for knob, default in STACK_KNOBS.items()},
    )


def build_options(case: ConformanceCase) -> Optional[EngineOptions]:
    if not case.options:
        return None
    return EngineOptions(**case.options)


# -- execution ---------------------------------------------------------------


def run_oracle(case: ConformanceCase) -> RunResult:
    # The oracle's only input from the case's options is MultiLogVC's
    # partition: the combine tree is defined over it (DESIGN.md §15).
    tree = {k: v for k, v in case.options.items() if k in ("min_intervals", "intervals")}
    options = EngineOptions(**tree) if case.engine == "multilogvc" and tree else None
    return OracleEngine(
        build_graph(case.graph), build_program(case), build_config(case.config), options=options
    ).run(max_supersteps=case.max_supersteps, seed=case.seed)


def _engine_run(case: ConformanceCase, fs: Optional[SimFS] = None) -> RunResult:
    # Deferred: repro.runner registers the oracle from this package, so a
    # module-level import here would be circular.
    from ..runner import run as run_engine

    return run_engine(
        build_graph(case.graph),
        build_program(case),
        engine=case.engine,
        config=build_config(case.config),
        options=build_options(case),
        fs=fs,
        max_supersteps=case.max_supersteps,
        seed=case.seed,
    )


def run_case(case: ConformanceCase) -> CaseOutcome:
    """Run one differential check; never raises for engine misbehaviour."""
    outcome = CaseOutcome(case=case)
    try:
        oracle = run_oracle(case)
    except Exception as exc:  # oracle failure is a harness bug, surface it
        outcome.error = f"oracle raised {type(exc).__name__}: {exc}"
        return outcome

    try:
        if case.scenario == "plain":
            result = _engine_run(case)
        elif case.scenario == "transient_fault":
            fs = SimFS(build_config(case.config))
            fs.device.install_faults(
                FaultPlan(
                    [
                        FaultRule(
                            op=case.scenario_params.get("op", "read"),
                            kind="error",
                            after_ops=int(case.scenario_params.get("after_ops", 5)),
                            transient=True,
                        )
                    ],
                    seed=case.seed,
                )
            )
            result = _engine_run(case, fs=fs)
        elif case.scenario in ("resume", "crash_resume"):
            result = _crash_resume(case, outcome)
        else:
            outcome.error = f"unknown scenario {case.scenario!r}"
            return outcome
    except Exception as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    # The oracle's diff first, then any _crash_resume put there.
    outcome.mismatches[:0] = compare_results(
        oracle,
        result,
        atol=float(case.compare.get("atol", 0.0)),
        check_supersteps=bool(case.compare.get("check_supersteps", True)),
        check_records=bool(case.compare.get("check_records", True)),
    )
    return outcome


#: ``ckpt`` writes before the second checkpoint's first: a checkpoint is
#: its payload batch, then its commit page.
_FIRST_CHECKPOINT_OPS = 2


def _crash_resume(case: ConformanceCase, outcome: CaseOutcome) -> RunResult:
    """Run a checkpoint scenario through :func:`crash_resume_experiment`.

    ``crash_resume`` cuts power after ``frac`` of the run's device
    batches.  ``resume`` cuts it at the second checkpoint's first write,
    so the run resumes from the first checkpoint and re-executes every
    later superstep; a run that writes fewer checkpoints is cut at its
    last device batch, after its one checkpoint if it has one.  The
    resumed run must equal the uninterrupted one (values, records,
    stats, trace); those mismatches go on ``outcome``.  Returns the run
    to compare against the oracle: the resumed one, or the uninterrupted
    one when nothing was resumed.
    """
    graph_factory = lambda: build_graph(case.graph)
    program_factory = lambda: build_program(case)
    run = dict(
        config=build_config(case.config),
        options=build_options(case),
        seed=case.seed,
        max_supersteps=case.max_supersteps,
    )
    total_ops, baseline = count_device_ops(
        graph_factory, program_factory, tracer=TraceRecorder(), **run
    )
    if case.scenario == "crash_resume":
        frac = float(case.scenario_params.get("frac", 0.5))
        crash = dict(crash_after_ops=max(1, min(total_ops - 1, int(frac * total_ops))))
    elif sum(e.kind == "checkpoint_write" for e in baseline.trace) >= 2:
        crash = dict(crash_after_ops=_FIRST_CHECKPOINT_OPS, fault_klass="ckpt")
    else:
        crash = dict(crash_after_ops=max(0, total_ops - 1))
    report = crash_resume_experiment(
        graph_factory, program_factory, fault_seed=case.seed, baseline=baseline, **crash, **run
    )
    if not report.crashed:
        outcome.note = "run finished before the crash point; compared the uninterrupted run"
    elif report.no_checkpoint:
        outcome.note = "crash before first checkpoint; compared the uninterrupted run"
    else:
        outcome.note = f"crashed, resumed from superstep {report.checkpoint_step}"
        outcome.mismatches.extend(report.mismatches())
        return report.resumed
    return report.baseline


# -- generation --------------------------------------------------------------


def _graph_spec(rng: np.random.Generator, engine: str, program: str) -> Dict[str, Any]:
    kind = GRAPH_KINDS[int(rng.integers(0, len(GRAPH_KINDS)))]
    n = int(rng.integers(8, 64))
    spec: Dict[str, Any] = {"kind": kind, "seed": int(rng.integers(0, 2**31))}
    if kind in ("rmat", "rmat_multi", "two_comp"):
        spec["n"] = n
        spec["m"] = int(rng.integers(n, 6 * n))
        spec["self_loops"] = bool(rng.integers(0, 2))
        # The multi-edge variant keeps whatever duplicates the generator
        # emits; GraphChi always gets a simple graph below (its per-edge
        # message slots cannot carry parallel-edge deliveries).
        spec["dedup"] = kind != "rmat_multi"
        if kind == "rmat_multi":
            spec["kind"] = "rmat"
    else:
        spec["n"] = max(n, 8)
        spec["dedup"] = False
        spec["self_loops"] = False
    if engine == "graphchi":
        spec["dedup"] = True
    spec["symmetrize"] = bool(rng.integers(0, 4) > 0)  # mostly undirected
    if program in ("cdlp", "coloring"):
        # Edge-state programs key their per-edge tables by out-neighbor
        # (updates arrive along in-edges), so they require symmetric graphs.
        spec["symmetrize"] = True
    if rng.integers(0, 3) == 0:
        spec["pad"] = int(rng.integers(1, 2 * n))  # isolated tail vertices
    spec["weighted"] = program == "sssp"
    return spec


def _spec_n_vertices(spec: Dict[str, Any]) -> int:
    if spec["kind"] == "explicit":
        return int(spec["n"])
    base = int(spec["n"])
    if spec["kind"] == "two_comp":
        base = max(4, base // 2) + max(4, base - max(4, base // 2))
    return base + int(spec.get("pad", 0))


def _config_dict(rng: np.random.Generator) -> Dict[str, Any]:
    page = int(rng.choice([1024, 2048, 4096]))
    # multilog buffer (5% of total) must hold at least one page.
    total = page * int(rng.integers(24, 80))
    cdict = {
        "page_size": page,
        "total_bytes": total,
        "channels": int(rng.choice([1, 2, 4])),
        # Simulated worker lanes (DESIGN.md §11): results must be
        # bit-identical at any lane count, so the oracle comparison
        # doubles as a check that the overlay stays pure accounting.
        "num_workers": int(rng.choice([1, 2, 4])),
    }
    # Page-cache dimension: a third of cases run with a deliberately
    # tiny cache (heavy eviction churn) -- values/records must not care.
    if int(rng.integers(0, 3)) == 0:
        cdict["cache_policy"] = "clock"
        cdict["cache_bytes"] = page * int(rng.integers(1, 33))
    # I/O planner dimension (DESIGN.md §13): a third of cases plan their
    # superstep reads (extent coalescing + dispatch waves); values and
    # records must be bit-identical to the unplanned charge order.
    # Read-ahead degrades to plain coalescing when the cache dimension
    # did not fire (the planner needs a cache to prefetch into), which
    # is itself a documented behaviour worth fuzzing.
    if int(rng.integers(0, 3)) == 0:
        cdict["io_plan"] = str(rng.choice(IO_PLAN_MODES[1:]))
        # The read-ahead budget was drawn here before it became a planner
        # constant; the draw stays so every case of every seed is unchanged.
        rng.integers(1, 65)
    # Device-array dimension (DESIGN.md §14): a third of cases run on a
    # multi-SSD array; canonical accounting is untouched by design, so
    # the oracle comparison doubles as a placement-invariance check
    # (including device counts that do not divide the page count).
    if int(rng.integers(0, 3)) == 0:
        cdict["num_devices"] = int(rng.choice([2, 3, 4]))
        cdict["placement"] = str(rng.choice(PLACEMENTS))
    return cdict


def generate_case(master_seed: int, index: int) -> ConformanceCase:
    """Deterministically derive case ``index`` of ``master_seed``."""
    rng = np.random.default_rng([master_seed, index])
    engine = ENGINE_CYCLE[index % len(ENGINE_CYCLE)]
    program = str(rng.choice(ENGINE_PROGRAMS[engine]))
    graph = _graph_spec(rng, engine, program)
    n_total = _spec_n_vertices(graph)

    prog_params: Dict[str, Any] = {}
    if program in ("bfs", "sssp"):
        prog_params["source"] = int(rng.integers(0, n_total))
    if program in ("coloring", "mis", "randomwalk"):
        prog_params["seed"] = int(rng.integers(0, 1000))
    if program == "randomwalk":
        prog_params["source_stride"] = int(rng.choice([7, 13]))
    if program == "pagerank":
        prog_params["threshold"] = float(rng.choice([0.01, 0.001]))

    options: Dict[str, Any] = {}
    scenario = "plain"
    scenario_params: Dict[str, Any] = {}
    compare: Dict[str, Any] = {}
    if engine == "multilogvc":
        mlvc_index = index // 2  # every other case is multilogvc
        scenario = MLVC_SCENARIOS[mlvc_index % len(MLVC_SCENARIOS)]
        if rng.integers(0, 2):
            options["min_intervals"] = int(rng.choice([2, 4, 7]))
        if rng.integers(0, 4) == 0:
            options["enable_fusing"] = False
        if rng.integers(0, 4) == 0:
            options["enable_edgelog"] = False
        if scenario in ("resume", "crash_resume"):
            options["checkpoint_every"] = int(rng.choice([1, 2, 3]))
            # Once the checkpoint-format draw; kept so every later draw,
            # and so every generated case, stays what it was.
            rng.integers(0, 2)
        elif scenario == "plain":
            if program in MONOTONE_PROGRAMS and rng.integers(0, 3) == 0:
                options["mode"] = "async"
                # Async schedules legitimately differ; the monotone
                # fixed point (final values) is the invariant.
                compare = {"check_supersteps": False, "check_records": False}
            elif rng.integers(0, 3) == 0:
                options["checkpoint_every"] = 2  # checkpointing must not perturb
        if scenario == "crash_resume":
            # Fraction of the run's total I/O batches (counted at run
            # time) after which power is cut -- guarantees the crash
            # lands inside the run regardless of graph/config scale.
            scenario_params["frac"] = round(float(rng.uniform(0.15, 0.9)), 3)
        if scenario == "transient_fault":
            scenario_params["after_ops"] = int(rng.integers(1, 40))
            scenario_params["op"] = str(rng.choice(["read", "write"]))
    elif engine == "grafboost":
        prog = _PROGRAM_FACTORIES[program]({})
        if prog.combine is None:
            options["adapted"] = True
        elif rng.integers(0, 3) == 0:
            options["merge_fanout"] = int(rng.choice([2, 4]))
    elif engine in ("gridgraph", "xstream"):
        if rng.integers(0, 2):
            options["grid_p"] = int(rng.choice([2, 3, 5]))

    case = ConformanceCase(
        case_id=f"s{master_seed}-{index:03d}",
        engine=engine,
        program=program,
        prog_params=prog_params,
        graph=graph,
        options=options,
        config=_config_dict(rng),
        scenario=scenario,
        scenario_params=scenario_params,
        max_supersteps=int(rng.choice([6, 10, 15, 20])),
        seed=int(rng.integers(0, 100)),
        compare=compare,
    )
    # Send-side combine (DESIGN.md §15): half the MultiLogVC cases keep
    # the post-read combine only; the oracle must not be able to tell.
    # Drawn last, so every other field of case (seed, index) is what it
    # was before this dimension existed.
    if engine == "multilogvc" and rng.integers(0, 2) == 0:
        options["enable_precombine"] = False
    # Multi-log pressure for the checkpoint scenarios, drawn after that:
    # four or eight times the edges (the vertices, on the shapes without
    # an edge count) on 1 KiB pages, memory keeping its page count, so
    # the logs spill to flash between supersteps and a crash can land on
    # them.  Every other case is unchanged.
    if scenario in ("resume", "crash_resume"):
        graph["m" if "m" in graph else "n"] *= int(rng.choice([4, 8]))
        cdict = case.config
        cdict["total_bytes"] = 1024 * (cdict["total_bytes"] // cdict["page_size"])
        cdict["page_size"] = 1024
    return case


def generate_cases(
    seed: int, n_cases: int, engines: Optional[Sequence[str]] = None
) -> List[ConformanceCase]:
    """The first ``n_cases`` cases of ``seed`` (optionally engine-filtered).

    Filtering keeps each case's identity (``index`` still seeds its rng)
    so ``--engines`` never changes what any individual case contains.
    """
    out: List[ConformanceCase] = []
    index = 0
    while len(out) < n_cases:
        case = generate_case(seed, index)
        index += 1
        if engines is not None and case.engine not in engines:
            if index > 64 * n_cases:  # engine filter matched nothing
                break
            continue
        out.append(case)
    return out


def fuzz(
    seed: int,
    n_cases: int,
    engines: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[CaseOutcome], None]] = None,
) -> List[CaseOutcome]:
    """Generate and run ``n_cases`` differential checks."""
    outcomes = []
    for case in generate_cases(seed, n_cases, engines=engines):
        outcome = run_case(case)
        if progress is not None:
            progress(outcome)
        outcomes.append(outcome)
    return outcomes
