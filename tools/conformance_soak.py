#!/usr/bin/env python
"""Long-running differential conformance soak (nightly CI).

Runs a large batch of seeded fuzzer cases -- adversarial graphs
(power-law, multi-edges, self-loops, disconnected components, empty
vertex intervals) crossed with the engine config matrix (interval
counts, page sizes, worker lanes, sync/async, checkpoint/resume,
crash and transient-fault scenarios) -- comparing every engine against
the golden in-memory oracle (see ``src/repro/verify/``).

Each failing case is shrunk to a minimal repro with the delta-debugging
shrinker and written to ``--artifacts DIR`` as ``<case-id>.json`` in
the ``tests/cases`` regression format, so a CI failure uploads a
ready-to-commit reproducer.  Exit status is 1 when any case fails.

Usage:
    PYTHONPATH=src python tools/conformance_soak.py --cases 200 \
        --seed-base 0 --artifacts /tmp/conformance-artifacts
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.verify import fuzz, save_case, shrink  # noqa: E402
from repro.verify.shrinker import default_still_fails  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--seed-base", type=int, default=0,
                    help="fuzzer master seed for this soak run")
    ap.add_argument("--engines", default=None,
                    help="comma list to restrict, e.g. multilogvc,graphchi")
    ap.add_argument("--artifacts", default="conformance-artifacts", metavar="DIR",
                    help="where shrunken repros of failing cases are written")
    ap.add_argument("--shrink-budget", type=int, default=300,
                    help="max candidate runs the shrinker may spend per failure")
    args = ap.parse_args()

    engines = args.engines.split(",") if args.engines else None
    failures = []
    t0 = time.time()

    def progress(outcome):
        print(outcome.describe(), flush=True)
        if not outcome.ok:
            failures.append(outcome)

    outcomes = fuzz(args.seed_base, args.cases, engines=engines, progress=progress)
    print(
        f"\n{len(outcomes)} cases in {time.time() - t0:.1f}s, "
        f"{len(failures)} FAILED (seed-base={args.seed_base})"
    )

    for outcome in failures:
        case = outcome.case
        print(f"shrinking {case.case_id} ...", flush=True)
        try:
            small = shrink(case, default_still_fails, budget=args.shrink_budget)
        except ValueError:
            # Flaky failure that no longer reproduces: save the original
            # so the artifact still identifies the case.
            small = case
        path = save_case(
            small,
            args.artifacts,
            mismatches=outcome.mismatches or ([outcome.error] if outcome.error else []),
            note=f"soak seed-base={args.seed_base}, shrunk from {case.case_id}",
        )
        n = small.graph.get("n", "?")
        print(f"  -> {n} vertices, repro saved to {path}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
