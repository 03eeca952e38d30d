"""Differential fuzzing for the streaming-update subsystem.

Extends the conformance layer (DESIGN.md §9) along the update
dimension: every case feeds a seeded sequence of edge-update batches
through a :class:`~repro.stream.StreamSession` and, **after every
batch**, checks two invariants against trusted host-side references:

1. *storage*: the store's materialised CSR is array-exactly the graph a
   plain host-side mirror of the update semantics produces (insert =
   append, delete = drop every live ``(src, dst)`` instance), and the
   merge reports the mirror's ``(inserts, deletes, noop_deletes)``;
2. *compute*: the session's recompute -- incremental or full, whichever
   the policy picks -- yields bit-exactly the final values of a
   from-scratch :class:`~repro.verify.OracleEngine` run on that graph.

Case generation mirrors :mod:`repro.verify.fuzzer`: case ``i`` of
master seed ``s`` is derived from ``default_rng([s, i])`` and nothing
else.  The schedule cycles programs (PageRank, SSSP, CDLP, BFS, WCC),
so both warm-start-capable programs and full-recompute-only programs
are exercised, and every third case cuts power at a write op of an
ingest or a merge, or tears an ingest's log write, and recovers before
continuing.  Deletes are drawn from the edges live
when their batch starts (so they reach inserts of earlier batches), and
every fourth case is collision-heavy: long batches over a handful of
endpoints, where one pair is inserted and deleted several times inside
a batch.  A collision-heavy SSSP case also floors its inserted weights
to integers, so equal-length paths and zero-weight edges put ties into
the tight deletion cone (DESIGN.md §12).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulatedCrashError
from ..graph.csr import CSRGraph
from ..ssd.faults import FaultPlan, FaultRule
from .compare import compare_results
from .fuzzer import (
    _config_dict,
    _graph_spec,
    _spec_n_vertices,
    build_config,
    build_graph,
    _PROGRAM_FACTORIES,
)
from .oracle import OracleEngine

#: Program schedule: the paper-core trio the issue names plus the two
#: remaining monotone programs, so the incremental path (BFS/SSSP/WCC)
#: and the full-recompute fallback (PageRank/CDLP) both get air time.
STREAM_PROGRAMS = ("pagerank", "sssp", "cdlp", "bfs", "wcc")

#: Programs whose ``warm_start`` can take the incremental path.
WARM_PROGRAMS = frozenset({"bfs", "sssp", "wcc"})

#: Crash scenarios ``(phase, fault kind)``: power cut at the write of an
#: ingest (its dense log pages) or at any write op of a merge (its
#: compactions; right after a merge that writes nothing), and a torn
#: ingest write.
CRASH_SCENARIOS = (("ingest", "crash"), ("apply", "crash"), ("ingest", "torn"))


@dataclass
class StreamCase:
    """One streaming differential check, JSON-serialisable."""

    case_id: str
    program: str
    prog_params: Dict[str, Any]
    graph: Dict[str, Any]
    config: Dict[str, Any]
    batches: List[List[Dict[str, Any]]]
    recompute: str = "auto"
    scenario: str = "plain"
    scenario_params: Dict[str, Any] = field(default_factory=dict)
    max_supersteps: int = 200
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "StreamCase":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})

    def describe(self) -> str:
        bits = [
            self.case_id, "stream", self.program,
            f"graph={self.graph.get('kind')}",
            f"batches={len(self.batches)}",
            f"recompute={self.recompute}",
        ]
        if self.scenario != "plain":
            p = self.scenario_params
            bits.append(
                f"{p.get('kind', 'crash')}@{p.get('phase')}[b{p.get('batch')},op{p.get('op')}]"
            )
        return " ".join(bits)


@dataclass
class StreamOutcome:
    """What happened when a stream case ran."""

    case: StreamCase
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


# -- host-side mirror ---------------------------------------------------------


class _HostMirror:
    """Plain-Python reference of the update semantics."""

    def __init__(self, graph: CSRGraph) -> None:
        src, dst = graph.edge_array()
        self.n = graph.n
        self.weighted = graph.weights is not None
        self.src = [int(x) for x in src]
        self.dst = [int(x) for x in dst]
        self.w = [float(x) for x in graph.weights] if self.weighted else None

    def apply(self, records: List[Dict[str, Any]]) -> Tuple[int, int, int]:
        """Apply ``records`` in order; returns ``(inserts, deletes, noop_deletes)``."""
        inserts = deletes = noops = 0
        for rec in records:
            s, d = int(rec["src"]), int(rec["dst"])
            if rec["op"] == "add":
                self.src.append(s)
                self.dst.append(d)
                if self.weighted:
                    self.w.append(float(rec.get("w", 1.0)))
                inserts += 1
            else:
                keep = [
                    i for i in range(len(self.src))
                    if not (self.src[i] == s and self.dst[i] == d)
                ]
                if len(keep) < len(self.src):
                    deletes += 1
                else:
                    noops += 1
                self.src = [self.src[i] for i in keep]
                self.dst = [self.dst[i] for i in keep]
                if self.weighted:
                    self.w = [self.w[i] for i in keep]
        return inserts, deletes, noops

    def graph(self) -> CSRGraph:
        return CSRGraph.from_edges(
            self.n,
            np.asarray(self.src, np.int64),
            np.asarray(self.dst, np.int64),
            weights=None if not self.weighted else np.asarray(self.w, np.float64),
        )


def _graphs_equal(a: CSRGraph, b: CSRGraph) -> bool:
    if not (np.array_equal(a.rowptr, b.rowptr) and np.array_equal(a.colidx, b.colidx)):
        return False
    if (a.weights is None) != (b.weights is None):
        return False
    return a.weights is None or np.array_equal(a.weights, b.weights)


# -- execution ---------------------------------------------------------------


def run_stream_case(case: StreamCase) -> StreamOutcome:
    """Run one streaming differential check; engine misbehaviour is
    captured in the outcome, never raised."""
    from ..stream import EdgeDelta, StreamSession

    outcome = StreamOutcome(case=case)
    try:
        graph = build_graph(case.graph)
        cfg = build_config(case.config)
        if "stream_compact_threshold" in case.config:
            cfg = cfg.with_stream(
                compact_threshold=float(case.config["stream_compact_threshold"])
            )
        program = _PROGRAM_FACTORIES[case.program](case.prog_params)
        session = StreamSession(graph, program, config=cfg, recompute=case.recompute)
        mirror = _HostMirror(graph)
        notes = []

        # Baseline: the session's first recompute on the unmodified
        # graph is itself a differential check (engine vs oracle).
        r = session.recompute(max_supersteps=case.max_supersteps, seed=case.seed)
        oracle = OracleEngine(build_graph(case.graph), _fresh_program(case), cfg).run(
            max_supersteps=case.max_supersteps, seed=case.seed
        )
        outcome.mismatches = compare_results(
            oracle, r.result, check_supersteps=False, check_records=False
        )
        if outcome.mismatches:
            outcome.mismatches = [f"baseline: {m}" for m in outcome.mismatches]
            return outcome

        crash = case.scenario == "crash"
        crash_batch = int(case.scenario_params.get("batch", 0)) if crash else -1
        for b, records in enumerate(case.batches):
            delta = EdgeDelta.from_records(records)
            expected_seq = session.store.last_ingested + 1
            if crash and b == crash_batch:
                note, applied = _run_crashed_batch(session, delta, expected_seq, case)
                notes.append(note)
            else:
                session.ingest(delta)
                applied = session.apply_updates()
            got = tuple(int(applied[k]) for k in ("inserts", "deletes", "noop_deletes"))
            want = mirror.apply(records)
            if got != want:
                outcome.mismatches.append(
                    f"batch {b}: merge reported (inserts, deletes, noop_deletes) = {got}, "
                    f"host mirror {want}"
                )
                return outcome

            mat = session.store.materialize()
            ref = mirror.graph()
            if not _graphs_equal(mat, ref):
                outcome.mismatches.append(
                    f"batch {b}: materialised graph differs from host mirror "
                    f"(m={mat.m} vs {ref.m})"
                )
                return outcome

            r = session.recompute(max_supersteps=case.max_supersteps, seed=case.seed)
            notes.append(r.mode[0])  # i / f per batch
            oracle = OracleEngine(ref, _fresh_program(case), cfg).run(
                max_supersteps=case.max_supersteps, seed=case.seed
            )
            outcome.mismatches = compare_results(
                oracle, r.result, check_supersteps=False, check_records=False
            )
            if outcome.mismatches:
                outcome.mismatches = [
                    f"batch {b} ({r.mode}): {m}" for m in outcome.mismatches
                ]
                return outcome
        outcome.note = "".join(notes)
    except Exception as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def _fresh_program(case: StreamCase):
    return _PROGRAM_FACTORIES[case.program](case.prog_params)


def _dry_run(store, phase: str, delta) -> tuple:
    """Run ``phase`` of this batch on a copy of the store (the session's
    own state is untouched); returns ``(device write ops, its result)``."""
    dry = copy.deepcopy(store)
    counter = FaultRule(op="write", kind="crash", after_ops=1 << 62)
    dry.fs.device.fault_plan = FaultPlan([counter])
    out = dry.ingest(delta) if phase == "ingest" else dry.apply_updates()
    return counter.matched, out


def _run_crashed_batch(session, delta, expected_seq: int, case: StreamCase) -> tuple:
    """Cut power during this batch's ingest or merge, then recover.

    The fault plan is armed around the chosen phase only and cuts its
    write op number ``op % n``, ``n`` counted by a dry run -- so every
    write op of the phase is a candidate and the cut always lands.  An
    ingest is one write (the batch's dense log pages); a merge writes
    only what its compactions rewrite, and one that writes nothing is
    cut right after it, before a later write carries its ``applied``
    mark.  A ``torn`` scenario tears the phase's first write (ingest:
    the batch's log write) at a seeded page.  After recovery a batch
    that did not commit is re-submitted, and a batch whose mark was
    lost is merged again, once.  Returns ``(note, merge stats)``: the
    note is ``C`` when the cut fired, ``c`` when the phase made no
    write to cut; the stats are those of the merge that applied the
    batch -- the dry run's when the cut came in a compaction, since the
    new base carries the batch's mark and recovery replays it.
    """
    p = case.scenario_params
    phase = p.get("phase", "ingest")
    kind = p.get("kind", "crash")
    fired = False
    if phase == "apply":
        session.ingest(delta)
    n_ops, dry = _dry_run(session.store, phase, delta)
    if phase == "apply" and n_ops == 0:
        applied = session.apply_updates()
        session.recover()
        session.apply_updates()  # the lost mark: the batch folds again
        return "C", applied
    after_ops = 0 if kind == "torn" else int(p.get("op", 0)) % max(1, n_ops)
    session.fs.device.fault_plan = FaultPlan(
        [FaultRule(op="write", kind=kind, after_ops=after_ops)], seed=case.seed
    )
    try:
        if phase == "ingest":
            session.ingest(delta)
        else:
            applied = session.apply_updates()
    except SimulatedCrashError:
        fired = True
    finally:
        session.fs.device.fault_plan = None
    if not fired and phase == "ingest":
        applied = session.apply_updates()
    if fired:
        session.recover()
        if session.store.last_applied < expected_seq - 1:
            session.apply_updates()  # the previous batch's mark was lost
        # Re-submit only if the batch did not reach its durable commit
        # point before the cut (exactly what a client with a pending
        # acknowledgement would do).
        if session.store.last_ingested < expected_seq:
            session.ingest(delta)
        durable = session.store.last_applied >= expected_seq
        applied = session.apply_updates()  # re-runs a cut compaction
        return "C", dry if durable else applied
    return "c", applied


# -- generation --------------------------------------------------------------


def _symmetrize_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Mirror every op so the graph stays symmetric (CDLP's contract)."""
    out: List[Dict[str, Any]] = []
    for rec in records:
        out.append(rec)
        if rec["src"] != rec["dst"]:
            out.append({**rec, "src": rec["dst"], "dst": rec["src"]})
    return out


def generate_stream_case(master_seed: int, index: int) -> StreamCase:
    """Deterministically derive stream case ``index`` of ``master_seed``."""
    from ..stream import random_delta

    rng = np.random.default_rng([master_seed, index])
    program = STREAM_PROGRAMS[index % len(STREAM_PROGRAMS)]
    graph = _graph_spec(rng, "multilogvc", program)
    n_total = _spec_n_vertices(graph)

    prog_params: Dict[str, Any] = {}
    if program in ("bfs", "sssp"):
        prog_params["source"] = int(rng.integers(0, n_total))
    if program == "pagerank":
        prog_params["threshold"] = float(rng.choice([0.01, 0.001]))

    # Each batch is generated against the graph as the batches before it
    # left it: deletions mostly target edges live at that point (base
    # copies and earlier inserts alike), insertions are uniform pairs.
    # A collision-heavy case confines both to ``span`` endpoints and
    # lengthens the batches, so pairs repeat inside one batch.
    mirror = _HostMirror(build_graph(graph))
    weighted = graph.get("weighted", False)
    heavy = index % 4 == 3
    span = min(n_total, int(rng.integers(2, 5))) if heavy else n_total
    batches: List[List[Dict[str, Any]]] = []
    for b in range(int(rng.integers(2, 4))):
        n_ops = int(rng.integers(12, 31)) if heavy else int(rng.integers(2, 11))
        live = np.array(
            [(s, d) for s, d in zip(mirror.src, mirror.dst) if s < span and d < span],
            dtype=np.int64,
        ).reshape(-1, 2)
        delta = random_delta(
            rng, span, live[:, 0], live[:, 1], n_ops,
            p_delete=float(rng.choice([0.2, 0.4, 0.6])),
            weighted=weighted,
            ts0=100 * b,
        )
        records = delta.to_records()
        if heavy and program == "sssp":
            # Integer inserted weights: distance ties and zero-weight
            # edges for the tight deletion cone (no extra draw).
            for rec in records:
                if rec["op"] == "add":
                    rec["w"] = float(np.floor(rec["w"]))
        if program == "cdlp":
            records = _symmetrize_records(records)
        mirror.apply(records)
        batches.append(records)

    scenario = "plain"
    scenario_params: Dict[str, Any] = {}
    if index % 3 == 2:
        scenario = "crash"
        phase, kind = CRASH_SCENARIOS[(index // 3) % len(CRASH_SCENARIOS)]
        scenario_params = {
            "phase": phase,
            "kind": kind,
            "batch": int(rng.integers(0, len(batches))),
            # reduced modulo the phase's counted write ops at run time
            "op": int(rng.integers(0, 1 << 16)),
        }

    recompute = "auto"
    if index % 7 == 5:
        recompute = "full"
    elif index % 7 == 6 and program in WARM_PROGRAMS:
        recompute = "incremental"

    config = _config_dict(rng)
    if rng.integers(0, 2):
        # Half the cases compact aggressively, so the rewrite path runs
        # under the differential check too.
        config["stream_compact_threshold"] = float(rng.choice([0.05, 0.2]))

    # Monotone warm starts need actual convergence (the fixed point is
    # the invariant); trajectory-compared programs need matched budgets.
    max_supersteps = 200 if program in WARM_PROGRAMS else 15

    return StreamCase(
        case_id=f"st{master_seed}-{index:03d}",
        program=program,
        prog_params=prog_params,
        graph=graph,
        config=config,
        batches=batches,
        recompute=recompute,
        scenario=scenario,
        scenario_params=scenario_params,
        max_supersteps=max_supersteps,
        seed=int(rng.integers(0, 100)),
    )


def generate_stream_cases(seed: int, n_cases: int) -> List[StreamCase]:
    return [generate_stream_case(seed, i) for i in range(n_cases)]


def fuzz_stream(
    seed: int,
    n_cases: int,
    progress: Optional[Callable[[StreamOutcome], None]] = None,
) -> List[StreamOutcome]:
    """Generate and run ``n_cases`` streaming differential checks."""
    outcomes = []
    for case in generate_stream_cases(seed, n_cases):
        outcome = run_stream_case(case)
        if progress is not None:
            progress(outcome)
        outcomes.append(outcome)
    return outcomes
