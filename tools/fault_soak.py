#!/usr/bin/env python
"""Randomized crash/recovery soak (a short run per PR, 200 trials nightly in CI).

Each trial draws a random workload (algorithm, checkpoint interval), a
random storage stack (worker lanes, a tiny page cache or none, I/O
planner mode, device count and placement) and a
random crash point over the run's device-batch timeline, then runs the
full :func:`repro.recovery.crash_resume_experiment` protocol: baseline
run, crashed run under an injected power loss, recovery from the newest
surviving checkpoint, and bit-exact comparison of values / superstep
records / run stats plus event-for-event trace reconciliation, the
overlays' events included.

A trial where the crash lands before the first checkpoint (nothing to
recover) or after the run finished (fault never fires) counts as a
benign outcome and is reported but not failed.

On any exactness failure the trial's artifacts -- baseline and resumed
traces as JSONL plus a report.txt -- are written under
``--artifacts DIR/trial_NNN/`` for upload, and the process exits 1.

Usage:
    PYTHONPATH=src python tools/fault_soak.py --trials 25 --seed-base 0 \
        --artifacts /tmp/soak-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import IO_PLAN_MODES, PLACEMENTS, small_test_config  # noqa: E402
from repro.algorithms import BFSProgram, DeltaPageRankProgram, WCCProgram  # noqa: E402
from repro.graph.datasets import small_rmat  # noqa: E402
from repro.obs import write_jsonl  # noqa: E402
from repro.options import EngineOptions  # noqa: E402
from repro.recovery import count_device_ops, crash_resume_experiment  # noqa: E402

WORKLOADS = {
    "pagerank": (
        lambda: small_rmat(n=256, m=2048, seed=3),
        lambda: DeltaPageRankProgram(),
        10,
    ),
    "bfs": (
        lambda: small_rmat(n=256, m=2048, seed=3),
        lambda: BFSProgram(source=0),
        10,
    ),
    "wcc": (
        lambda: small_rmat(n=256, m=2048, seed=3),
        lambda: WCCProgram(),
        10,
    ),
}


def draw_stack(rng: np.random.Generator) -> dict:
    """One storage stack: every overlay on or off, the cache tiny if on."""
    return {
        "workers": int(rng.choice([1, 4])),
        "cache_pages": int(rng.integers(1, 33)) if rng.random() < 0.5 else 0,
        "io_plan": str(rng.choice(IO_PLAN_MODES)),
        "devices": int(rng.choice([1, 4])),
        "placement": str(rng.choice(PLACEMENTS)),
    }


def stack_config(stack: dict):
    cfg = (
        small_test_config()
        .with_workers(stack["workers"])
        .with_io_plan(stack["io_plan"])
        .with_devices(stack["devices"], stack["placement"])
    )
    if stack["cache_pages"]:
        cfg = cfg.with_cache("clock", stack["cache_pages"] * cfg.ssd.page_size)
    return cfg


def stack_label(stack: dict) -> str:
    cache = f"cache{stack['cache_pages']}" if stack["cache_pages"] else "nocache"
    return (
        f"w{stack['workers']} {cache} {stack['io_plan']} "
        f"d{stack['devices']}/{stack['placement']}"
    )


def dump_failure(artifact_dir: Path, trial: int, params: dict, report) -> Path:
    out = artifact_dir / f"trial_{trial:03d}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(
        json.dumps(params, indent=2)
        + "\n\n"
        + report.describe()
        + "\n\n"
        + "\n".join(report.trace_mismatches)
        + "\n"
    )
    if report.baseline is not None and report.baseline.trace:
        write_jsonl(report.baseline.trace, out / "baseline_trace.jsonl")
    if report.resumed is not None and report.resumed.trace:
        write_jsonl(report.resumed.trace, out / "resumed_trace.jsonl")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed-base", type=int, default=0,
                    help="first trial seed (trial i uses seed-base + i)")
    ap.add_argument("--artifacts", default="soak-artifacts", metavar="DIR",
                    help="where failing trials dump traces for upload")
    args = ap.parse_args()

    artifact_dir = Path(args.artifacts)
    names = sorted(WORKLOADS)

    # total device batches per (workload, options) combo, measured once
    ops_cache = {}
    failures = []
    outcomes = {"exact": 0, "no_checkpoint": 0, "no_crash": 0}
    t0 = time.time()

    for trial in range(args.trials):
        seed = args.seed_base + trial
        rng = np.random.default_rng(seed)
        name = names[int(rng.integers(len(names)))]
        graph_f, prog_f, max_steps = WORKLOADS[name]
        every = int(rng.integers(1, 4))
        options = EngineOptions(checkpoint_every=every)
        stack = draw_stack(rng)
        cfg = stack_config(stack)

        key = (name, every, tuple(stack.values()))
        if key not in ops_cache:
            ops_cache[key], _ = count_device_ops(
                graph_f, prog_f, config=cfg, options=options,
                seed=0, max_supersteps=max_steps,
            )
        crash_at = int(rng.integers(1, ops_cache[key] + 1))

        params = {
            "trial": trial, "seed": seed, "algorithm": name,
            "checkpoint_every": every, "stack": stack,
            "crash_after_ops": crash_at, "total_ops": ops_cache[key],
        }
        report = crash_resume_experiment(
            graph_f, prog_f, config=cfg, options=options,
            crash_after_ops=crash_at, fault_seed=seed, seed=0,
            max_supersteps=max_steps,
        )
        if not report.crashed:
            outcomes["no_crash"] += 1
            status = "no-crash"
        elif report.no_checkpoint:
            outcomes["no_checkpoint"] += 1
            status = "pre-checkpoint"
        elif report.ok:
            outcomes["exact"] += 1
            status = "exact"
        else:
            status = "FAIL"
            where = dump_failure(artifact_dir, trial, params, report)
            failures.append((trial, params, where))
        print(
            f"trial {trial:3d}  {name:8s} every={every} "
            f"{stack_label(stack):40s} crash@{crash_at:3d}/{ops_cache[key]:3d}  {status}"
        )

    print(
        f"\n{args.trials} trials in {time.time() - t0:.1f}s: "
        f"{outcomes['exact']} exact, {outcomes['no_checkpoint']} pre-checkpoint, "
        f"{outcomes['no_crash']} no-crash, {len(failures)} FAILED"
    )
    for trial, params, where in failures:
        print(f"ERROR: trial {trial} ({params['algorithm']}) failed; "
              f"artifacts in {where}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
