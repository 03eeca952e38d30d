"""End-to-end benchmark: five workloads, host and simulated metrics.

    python3 benchmarks/e2e/run.py [--workload NAME | --all] [--seed S]
                                  [--seconds N] [--trace [0|1]] [--quick] [--out FILE]

(``python -m benchmarks.e2e.run`` is the same program.)  Each workload
runs in its own single-threaded driver subprocess with ``REPRO_*``
scrubbed from its environment.  Prints a table of every metric by name
with its unit, labelled host or simulated, then -- as the last line of
stdout -- one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or with ``--trace`` the per-layer
metrics, of the workload (``<workload>/<metric>`` keys under ``--all``).
Exits 1 when an output check failed, 2 when the harness itself could not
run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:  # siblings import by bare name under -m as well
    sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import report  # noqa: E402

ROOT = catalog.ROOT
#: worker subprocess limit; the external driver allows a run 180 s
WORKER_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, args) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-dir", str(HERE / "out"),
        "--spawned-at", repr(time.time()),
    ]
    if args.quick:
        cmd.append("--quick")
    # subprocess.run kills and reaps the child on timeout.
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def driver_metrics(spec: dict, result: Dict[str, Any], trace: int) -> Dict[str, Dict[str, Any]]:
    """The metrics object of the last line: every declared name, with its unit.

    A per-layer metric of a layer the workload bypasses is reported as 0
    here only -- the driver requires every declared name -- and is left
    out of the report and the table.
    """
    out: Dict[str, Dict[str, Any]] = {}
    if not trace:
        for m in spec["end_to_end"]:
            v = result["host"][m["name"]]["median"] if m["name"] in result["host"] else result["simulated"][m["name"]]
            out[m["name"]] = {"value": v, "unit": m["unit"]}
        return out
    report_only = {v["declared_as"]: k for k, v in catalog.REPORT_END_TO_END.items()}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in report_only:
            v = result["host"].get(report_only[name], {}).get("median", 0)
        else:
            v = result["per_layer"].get(name, 0)
        out[name] = {"value": v, "unit": m["unit"]}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    spec = catalog.load()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="run every workload (the default)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed S (dataset seed + S)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                    help="add the per-layer pass (span recorder + tracer repetitions)")
    ap.add_argument("--quick", action="store_true",
                    help="test-scale graphs, 2 repetitions; output stamped quick")
    ap.add_argument("--out", help="write the full JSON report here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmarks/e2e: no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
        return 2

    selected = [args.workload] if args.workload else names
    results: Dict[str, Dict[str, Any]] = {}
    for name in selected:
        try:
            results[name] = run_worker(name, args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            sys.stderr.write(f"benchmarks/e2e: {exc}\n")
            return 2

    doc = {
        "benchmark": "benchmarks/e2e",
        "quick": args.quick,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_info": next(iter(results.values()))["host_info"],
        "configs": {r["config"]: r.pop("config_dict") for r in results.values()},
        "workloads": results,
    }
    for r in results.values():
        r.pop("host_info")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    print(report.render(doc, spec))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics: Dict[str, Any] = {}
    for name, r in results.items():
        for key, value in driver_metrics(spec, r, args.trace).items():
            metrics[key if args.workload else f"{name}/{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
