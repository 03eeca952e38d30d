"""Printed table: ``name value unit (host|simulated)``, one block per workload."""

from __future__ import annotations

from typing import Any, Dict, List

import catalog

SSD_MODEL_NOTE = (
    "simulated = the repo's SSD/compute model, deterministic and exactly repeatable; "
    "the model is unvalidated against hardware, so no error figure is given.\n"
    "host = this machine's clock, median over repetitions [q1 .. q3, n]."
)


def _fmt(v: Any) -> str:
    if isinstance(v, int):
        return f"{v:d}"
    if abs(v) >= 1e6:
        return f"{v:.4e}"
    return f"{v:.4f}"


def _row(name: str, value: Any, unit: str, extra: str = "") -> str:
    return f"    {name:<34} {_fmt(value):>14} {unit:<8} ({catalog.kind(name)}){extra}"


def render(doc: Dict[str, Any], spec: dict) -> str:
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e_units.update({k: v["unit"] for k, v in catalog.REPORT_END_TO_END.items()})
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    lines: List[str] = []
    if doc["quick"]:
        lines.append("QUICK MODE: test-scale graphs, 2 repetitions -- not comparable with full runs")
    for name, r in doc["workloads"].items():
        lines.append(
            f"== {name}  config {r['config']}, seed {r['seed']}, "
            f"{r['repetitions']} repetitions, {r['measured_s']:.1f} s measured"
        )
        lines.append("  end-to-end (tracing off)")
        for metric in e2e_units:
            if metric in r["host"]:
                h = r["host"][metric]
                lines.append(_row(metric, h["median"], e2e_units[metric],
                                  f"  [{_fmt(h['q1'])} .. {_fmt(h['q3'])}, n={h['n']}]"))
            elif metric in r["simulated"]:
                lines.append(_row(metric, r["simulated"][metric], e2e_units[metric]))
        if "per_layer" in r:
            lines.append("  per-layer (one traced repetition; layers the workload bypasses are left out)")
            for metric, unit in layer_units.items():
                if metric in r["per_layer"]:
                    lines.append(_row(metric, r["per_layer"][metric], unit))
        bad = [c for c in r["checks"] if not c["ok"]]
        lines.append(f"  checks: {r['attempted']} attempted, {r['failed']} failed")
        for c in bad:
            lines.append(f"    FAILED {c['check']}: {c.get('detail', '')}")
    lines.append(SSD_MODEL_NOTE)
    return "\n".join(lines)
