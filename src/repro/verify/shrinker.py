"""Failing-case reduction: shrink a (graph, config) repro to a minimum.

Given a failing :class:`~repro.verify.fuzzer.ConformanceCase`, the
shrinker searches for the smallest case that still fails the same
predicate, in this order:

1. **superstep cut** -- fewer supersteps make every later candidate run
   cheaper, so this goes first;
2. **scenario and option simplification** -- try ``plain`` instead of a
   fault/resume scenario, then drop each engine option;
3. **ddmin over the edge list** -- classic delta debugging (Zeller's
   algorithm) on the explicit directed edge list, with weights carried
   alongside;
4. **vertex compaction** -- remap surviving vertex ids (and the
   program's source vertex) onto a dense ``[0, n)`` range so isolated
   ids disappear;
5. a final superstep cut now that the graph is small.

Every acceptance re-runs the predicate, so the shrinker never "assumes"
a reduction is sound -- a candidate that stops failing is simply not
taken.  The total number of candidate runs is bounded by ``budget``.

Shrunken repros serialise to ``tests/cases/*.json`` via
:func:`save_case`; the regression suite replays every file there with
:func:`replay_case`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import STACK_KNOBS
from .fuzzer import CaseOutcome, ConformanceCase, explicit_spec, run_case

#: An edge with its weight slot (``None`` on unweighted graphs).
Edge = Tuple[int, int, Optional[float]]

FailsFn = Callable[[ConformanceCase], bool]


def default_still_fails(case: ConformanceCase) -> bool:
    """A case "fails" when its differential run is not ok."""
    return not run_case(case).ok


def _edges_of(spec: Dict[str, Any]) -> List[Edge]:
    w = spec.get("weights")
    if w is None:
        return [(int(s), int(d), None) for s, d in zip(spec["src"], spec["dst"])]
    return [(int(s), int(d), float(x)) for s, d, x in zip(spec["src"], spec["dst"], w)]


def _with_edges(case: ConformanceCase, edges: List[Edge], n: Optional[int] = None) -> ConformanceCase:
    spec = dict(case.graph)
    spec["src"] = [e[0] for e in edges]
    spec["dst"] = [e[1] for e in edges]
    weighted = spec.get("weights") is not None
    spec["weights"] = [e[2] for e in edges] if weighted else None
    if n is not None:
        spec["n"] = int(n)
    return replace(case, graph=spec)


def _ddmin(
    edges: List[Edge],
    fails_with: Callable[[List[Edge]], bool],
) -> List[Edge]:
    """Zeller's ddmin over the edge list (subsets, then complements)."""
    if len(edges) <= 1:
        return edges
    granularity = 2
    while len(edges) >= 2:
        chunk = math.ceil(len(edges) / granularity)
        subsets = [edges[i : i + chunk] for i in range(0, len(edges), chunk)]
        reduced = False
        for sub in subsets:
            if len(sub) < len(edges) and fails_with(sub):
                edges, granularity, reduced = sub, 2, True
                break
        if not reduced:
            for i in range(len(subsets)):
                comp = [e for j, s in enumerate(subsets) if j != i for e in s]
                if comp and len(comp) < len(edges) and fails_with(comp):
                    edges, granularity, reduced = comp, max(granularity - 1, 2), True
                    break
        if not reduced:
            if granularity >= len(edges):
                break
            granularity = min(len(edges), granularity * 2)
    return edges


def _compact_vertices(case: ConformanceCase) -> ConformanceCase:
    """Remap surviving vertex ids onto a dense range."""
    spec = case.graph
    keep = sorted(set(spec["src"]) | set(spec["dst"]))
    source = case.prog_params.get("source")
    if source is not None and source not in keep:
        keep = sorted(keep + [int(source)])
    if not keep:
        keep = [0]
    remap = {v: i for i, v in enumerate(keep)}
    new_spec = dict(spec)
    new_spec["src"] = [remap[v] for v in spec["src"]]
    new_spec["dst"] = [remap[v] for v in spec["dst"]]
    new_spec["n"] = len(keep)
    params = dict(case.prog_params)
    if source is not None:
        params["source"] = remap.get(int(source), 0)
    return replace(case, graph=new_spec, prog_params=params)


def shrink(
    case: ConformanceCase,
    still_fails: Optional[FailsFn] = None,
    budget: int = 500,
) -> ConformanceCase:
    """Reduce ``case`` to a (locally) minimal case that still fails.

    ``still_fails`` defaults to re-running the differential check; pass
    a custom predicate to shrink against a specific mismatch signature.
    The input ``case`` must itself fail the predicate.
    """
    fails = still_fails or default_still_fails
    runs = [0]

    def check(candidate: ConformanceCase) -> bool:
        if runs[0] >= budget:
            return False
        runs[0] += 1
        try:
            return fails(candidate)
        except Exception:
            # A candidate that crashes the harness is not a reduction.
            return False

    if not check(case):
        raise ValueError("shrink() requires a case that fails the predicate")

    current = replace(case, graph=explicit_spec(case.graph))
    if not check(current):
        # Explicit form must be equivalent; if not, keep the original.
        current = case

    # 1. Cut supersteps early: cheaper candidates for everything below.
    for steps in (1, 2, 3, 5, 8):
        if steps < current.max_supersteps and check(replace(current, max_supersteps=steps)):
            current = replace(current, max_supersteps=steps)
            break

    # 2. Simplify scenario, then drop options one at a time.
    if current.scenario != "plain":
        cand = replace(current, scenario="plain", scenario_params={})
        if check(cand):
            current = cand
    for key in list(current.options):
        opts = {k: v for k, v in current.options.items() if k != key}
        cand = replace(current, options=opts)
        if check(cand):
            current = cand
    # Optional config-dict dimensions (cache, planner, workers, device
    # array) reduce to their defaults the same way: a failure that
    # persists without the knob is a simpler repro.
    for key in STACK_KNOBS:
        if key in current.config:
            cfg = {k: v for k, v in current.config.items() if k != key}
            cand = replace(current, config=cfg)
            if check(cand):
                current = cand

    # 3. ddmin the edge list (only meaningful on explicit specs).
    if current.graph["kind"] == "explicit":
        edges = _ddmin(
            _edges_of(current.graph),
            lambda sub: check(_with_edges(current, sub)),
        )
        current = _with_edges(current, edges)
        if edges and check(_with_edges(current, [])):
            current = _with_edges(current, [])

        # 4. Compact vertex ids.
        cand = _compact_vertices(current)
        if cand.graph != current.graph and check(cand):
            current = cand

    # 5. Final superstep cut on the small graph.
    for steps in (1, 2, 3):
        if steps < current.max_supersteps and check(replace(current, max_supersteps=steps)):
            current = replace(current, max_supersteps=steps)
            break

    if not current.case_id.endswith("-min"):
        current = replace(current, case_id=current.case_id + "-min")
    return current


# -- repro corpus ------------------------------------------------------------


def save_case(
    case: ConformanceCase,
    directory: str,
    mismatches: Optional[List[str]] = None,
    note: str = "",
) -> str:
    """Write a case (plus the mismatch it reproduced) to ``directory``.

    Returns the path.  File name is the case id, so re-saving the same
    case overwrites rather than accumulating duplicates.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{case.case_id}.json")
    payload = {
        "case": case.to_dict(),
        "mismatches": list(mismatches or []),
        "note": note,
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_case(path: str) -> ConformanceCase:
    """Load a case file written by :func:`save_case`."""
    with open(path) as f:
        payload = json.load(f)
    return ConformanceCase.from_dict(payload["case"])


def replay_case(path: str) -> CaseOutcome:
    """Load and re-run a saved repro; the regression suite asserts ok."""
    return run_case(load_case(path))
