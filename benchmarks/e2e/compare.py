"""Compare two reports written by ``run.py --out``: parent A, candidate B.

    python3 benchmarks/e2e/compare.py A.json B.json

Per end-to-end metric x workload: both medians, the relative difference
(B - A) / A, the bound, and a verdict --

``ok``          B is no worse than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  the quartile spread of either side exceeds the bound, so
                the medians cannot tell "unchanged" from "changed"

Simulated metrics are deterministic: with equal seeds any worsening at
all is ``regressed`` (bound 0); across different seeds the bound from
``BENCHMARK.json`` applies.  To check that two sets of one commit
*agree*, compare them both ways round.  Exits 1 on any ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import catalog  # noqa: E402


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    if spread > bound:
        return "unresolved"
    rel = (b - a) / a if a else (0.0 if b == a else float("inf"))
    worse = rel if better == "lower" else -rel
    return "regressed" if worse > bound else "ok"


def _spread(stat: Dict[str, float]) -> float:
    return (stat["q3"] - stat["q1"]) / stat["median"] if stat["median"] else 0.0


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: dict) -> List[Dict[str, Any]]:
    """One row per end-to-end metric x workload present in both reports."""
    if a["quick"] != b["quick"]:
        raise ValueError("one report is --quick and the other is not; they are not comparable")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({k: v for k, v in catalog.REPORT_END_TO_END.items() if v["bound"] is not None})
    rows: List[Dict[str, Any]] = []
    for workload, ra in a["workloads"].items():
        rb = b["workloads"].get(workload)
        if rb is None:
            continue
        same_seed = ra["seed"] == rb["seed"]
        for name, m in metrics.items():
            if name in ra["host"] and name in rb["host"]:
                va, vb = ra["host"][name]["median"], rb["host"][name]["median"]
                bound = m["bound"]
                spread = max(_spread(ra["host"][name]), _spread(rb["host"][name]))
            elif name in ra["simulated"] and name in rb["simulated"]:
                va, vb = ra["simulated"][name], rb["simulated"][name]
                bound = 0.0 if same_seed else m["bound"]
                spread = 0.0
            else:
                continue
            rows.append({
                "workload": workload, "metric": name, "kind": catalog.kind(name),
                "a": va, "b": vb, "rel": (vb - va) / va if va else 0.0,
                "bound": bound, "spread": spread,
                "verdict": verdict(va, vb, m["better"], bound, spread),
            })
        fa, fb = ra["failed"] / ra["attempted"], rb["failed"] / rb["attempted"]
        rows.append({
            "workload": workload, "metric": "failed_share", "kind": "host",
            "a": fa, "b": fb, "rel": fb - fa, "bound": 0.0, "spread": 0.0,
            "verdict": "regressed" if fb > fa else "ok",
        })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<15} {'metric':<15} {'kind':<9} {'A':>13} {'B':>13} {'rel':>8} {'bound':>6} {'spread':>7}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:<15} {r['metric']:<15} {r['kind']:<9} {r['a']:>13.6g} {r['b']:>13.6g} "
            f"{r['rel']:>+8.2%} {r['bound']:>6.1%} {r['spread']:>7.2%}  {r['verdict']}"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("ok", "regressed", "unresolved")}
    lines.append(", ".join(f"{n} {v}" for v, n in counts.items()))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="parent report (run.py --out)")
    ap.add_argument("b", help="candidate report")
    args = ap.parse_args(argv)
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        rows = compare(json.load(fa), json.load(fb), catalog.load())
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
