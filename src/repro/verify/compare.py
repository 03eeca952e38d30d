"""Semantic diff between an engine run and the oracle run.

Comparison levels (chosen per engine/program by the fuzzer):

* ``atol=0`` -- bit-exact values.  Holds for every engine on min/max
  combine and non-combine programs, and for MultiLogVC / GraphChi /
  GraFBoost on add-combine too: all three, and the oracle, reduce each
  destination over the same two-level combine tree
  (:mod:`repro.core.combine`) -- provided the oracle was handed the
  partition the engine ran with, which defines that tree.
* ``atol>0`` -- ``np.allclose``-style tolerance.  Needed only for
  add-combine programs on the edge-streaming engines (GridGraph,
  XStream), whose block traversal sums contributions in a different
  float order.
* ``check_records`` -- per-superstep activity tuples (active vertices,
  updates processed, messages sent, edges scanned).  Enabled where the
  engine's superstep accounting is defined to match the oracle's.

Every mismatch is a human-readable string; an empty list means the run
conforms.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.results import RunResult


def compare_results(
    oracle: RunResult,
    other: RunResult,
    *,
    atol: float = 0.0,
    check_supersteps: bool = True,
    check_records: bool = True,
    max_mismatches: int = 8,
) -> List[str]:
    """Return mismatch descriptions (empty means ``other`` conforms)."""
    a, b = oracle.comparable(), other.comparable()
    mismatches: List[str] = []

    va, vb = a["values"], b["values"]
    if va.shape != vb.shape:
        mismatches.append(f"value vector shape {vb.shape} != oracle {va.shape}")
        return mismatches
    if atol > 0.0:
        bad = ~np.isclose(vb, va, rtol=atol, atol=atol)
    else:
        bad = vb != va
    if bad.any():
        ids = np.flatnonzero(bad)
        shown = ", ".join(
            f"v{int(i)}: {vb[i]!r} != oracle {va[i]!r}" for i in ids[:max_mismatches]
        )
        more = f" (+{ids.size - max_mismatches} more)" if ids.size > max_mismatches else ""
        kind = "bit-exact" if atol == 0.0 else f"atol={atol}"
        mismatches.append(f"values differ ({kind}) at {ids.size} vertices: {shown}{more}")

    if check_supersteps:
        if a["n_supersteps"] != b["n_supersteps"]:
            mismatches.append(
                f"superstep count {b['n_supersteps']} != oracle {a['n_supersteps']}"
            )
        if a["converged"] != b["converged"]:
            mismatches.append(
                f"converged={b['converged']} != oracle converged={a['converged']}"
            )

    if check_records and a["n_supersteps"] == b["n_supersteps"]:
        for ra, rb in zip(a["activity"], b["activity"]):
            if ra != rb:
                fields = ("index", "active_vertices", "updates_processed",
                          "messages_sent", "edges_scanned")
                diffs = ", ".join(
                    f"{name}: {y} != oracle {x}"
                    for name, x, y in zip(fields, ra, rb)
                    if x != y
                )
                mismatches.append(f"superstep {ra[0]} record differs: {diffs}")
                if len(mismatches) >= max_mismatches:
                    mismatches.append("... (truncated)")
                    break
    return mismatches
