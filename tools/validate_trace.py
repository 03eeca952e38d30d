#!/usr/bin/env python
"""Validate a JSONL engine trace (CI gate).

Checks, in order:

1. every line parses as a JSON object with the required envelope
   (``kind`` string, ``t_us`` number, ``step`` integer);
2. every ``kind`` is registered in :data:`repro.obs.TRACE_KINDS` --
   an unknown kind means an emitter and the registry drifted apart;
3. simulated timestamps are monotonically non-decreasing **within each
   run segment**.  A trace file may concatenate several runs (the CLI
   records every engine an experiment constructs) and the simulated
   clock restarts at zero for each, so segments are delimited by
   ``run_begin`` events and monotonicity is asserted per segment;
4. ``cache_stats`` counters (hits/misses/evictions/insertions/
   invalidations) never decrease within a run segment -- the page
   cache's tallies are monotonic for the cache's lifetime even across
   checkpoint cuts, so a drop means cache state was rebuilt mid-run;
5. ``parallel_stats`` counters (groups/spec_us/saved_us/makespan_us)
   never decrease within a run segment -- the interval executor's
   overlap model accumulates for the run's lifetime, so a drop means
   scheduler state was silently reset;
6. ``ingest_stats`` events carry a valid ``phase`` plus non-negative
   integer ``seq``/``records``/``pages``, and ``seq`` never decreases
   within a run segment -- the update-log batch counter is monotone for
   the store's lifetime, so a drop means the commit log was corrupted;
7. ``compaction`` events carry non-negative integer ``interval``/
   ``live``/``dropped``/``pages_read``/``pages_written``;
8. ``io_plan_stats`` events carry a valid ``mode`` and run-cumulative
   counters (plans/pages/extents/waves/times) that never decrease
   within a run segment -- the superstep I/O planner's tallies are
   monotone for the run's lifetime, so a drop means planner state was
   silently reset;
9. ``device_stats`` events carry a valid ``placement``, ``devices >= 2``
   (the event is only emitted on a device array), and run-cumulative
   counters (ops/serial_us/array_us/saved_us) that never decrease
   within a run segment -- the array's overlay clocks accumulate for
   the run's lifetime, so a drop means overlay state was silently
   reset;
10. ``superstep_end`` events carry non-negative integer
    ``messages_sent`` and ``records_logged`` with ``records_logged <=
    messages_sent`` -- the log never holds more records than the
    program sent; it holds fewer only where a send-side combine reduced
    them first (DESIGN.md §15);
11. ``group_sort`` and ``extsort`` events carry integer ``records`` and
    ``natural_runs`` with ``1 <= natural_runs <= records`` whenever
    ``records > 0`` -- the natural runs the sort's compute charge merges
    (DESIGN.md §5): a non-empty input has at least one and at most one
    per record;
12. ``mlog_flush`` and ``elog_flush`` events carry an integer ``pages >=
    1`` and a ``time_us > 0`` -- a log write batch is emitted only
    after at least one page reached the device;
13. ``warm_start`` events carry integer ``roots``/``cone``/``walk_rows``
    with ``0 <= roots <= cone``, a boolean ``scan`` and ``io_us >= 0``
    -- the deletion cone contains its roots (DESIGN.md §12).

Any violation prints the offending line number and exits non-zero.

Usage:
    PYTHONPATH=src python tools/validate_trace.py TRACE.jsonl [...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import IO_PLAN_MODES, PLACEMENTS  # noqa: E402
from repro.obs import TRACE_KINDS  # noqa: E402

#: ``cache_stats`` fields that must be non-decreasing within a segment.
CACHE_COUNTERS = ("hits", "misses", "evictions", "insertions", "invalidations")

#: ``parallel_stats`` fields that must be non-decreasing within a segment.
PARALLEL_COUNTERS = ("groups", "spec_us", "saved_us", "makespan_us")

#: ``ingest_stats`` fields that must be non-negative integers.
INGEST_FIELDS = ("seq", "records", "pages")

#: ``ingest_stats`` phases the stream store emits.
INGEST_PHASES = ("ingest", "apply")

#: ``compaction`` fields that must be non-negative integers.
COMPACTION_FIELDS = ("interval", "live", "dropped", "pages_read", "pages_written")

#: ``io_plan_stats`` fields that must be non-decreasing within a segment.
IO_PLAN_COUNTERS = (
    "plans",
    "demand_pages",
    "cache_hit_pages",
    "batches_folded",
    "extents",
    "extent_pages",
    "scattered_pages",
    "waves",
    "time_us",
    "saved_us",
    "readahead_pages",
    "readahead_time_us",
)

#: ``io_plan_stats`` modes the planner emits (it is never built "off").
PLANNER_MODES = IO_PLAN_MODES[1:]

#: ``device_stats`` fields that must be non-decreasing within a segment.
DEVICE_COUNTERS = ("ops", "serial_us", "array_us", "saved_us")

#: ``superstep_end`` send counts: non-negative integers, logged <= sent.
SEND_FIELDS = ("messages_sent", "records_logged")

#: Sort events whose ``natural_runs`` must lie in ``[1, records]``.
SORT_KINDS = ("group_sort", "extsort")

#: Log write batches: at least one page, positive simulated time.
FLUSH_KINDS = ("mlog_flush", "elog_flush")

#: ``warm_start`` counts: non-negative integers.
WARM_START_FIELDS = ("roots", "cone", "walk_rows")


def validate_file(path: Path) -> list:
    """Return a list of violation strings for one trace file."""
    errors = []
    last_t = None
    last_cache = None
    last_parallel = None
    last_io_plan = None
    last_device = None
    last_seq = None
    segment_start = 0
    n_events = 0
    n_segments = 0
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            errors.append(f"{path}:{lineno}: blank line in JSONL stream")
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path}:{lineno}: malformed JSON: {exc}")
            continue
        if not isinstance(ev, dict):
            errors.append(f"{path}:{lineno}: not a JSON object: {type(ev).__name__}")
            continue
        kind, t_us, step = ev.get("kind"), ev.get("t_us"), ev.get("step")
        if not isinstance(kind, str):
            errors.append(f"{path}:{lineno}: missing/non-string 'kind'")
            continue
        if not isinstance(t_us, (int, float)) or isinstance(t_us, bool):
            errors.append(f"{path}:{lineno}: missing/non-numeric 't_us'")
            continue
        if not isinstance(step, int) or isinstance(step, bool):
            errors.append(f"{path}:{lineno}: missing/non-integer 'step'")
            continue
        if kind not in TRACE_KINDS:
            errors.append(f"{path}:{lineno}: unknown event kind {kind!r}")
            continue
        n_events += 1
        if kind == "run_begin":
            # the simulated clock restarts with each run, and so does
            # the page cache (a fresh SimFS means a fresh cache)
            last_t = None
            last_cache = None
            last_parallel = None
            last_io_plan = None
            last_device = None
            last_seq = None
            segment_start = lineno
            n_segments += 1
        if last_t is not None and t_us < last_t:
            errors.append(
                f"{path}:{lineno}: t_us went backwards ({t_us} < {last_t}) "
                f"within the run segment starting at line {segment_start}"
            )
        last_t = t_us
        if kind == "cache_stats":
            for field in CACHE_COUNTERS:
                cur = ev.get(field)
                if not isinstance(cur, int) or isinstance(cur, bool):
                    errors.append(
                        f"{path}:{lineno}: cache_stats missing/non-integer {field!r}"
                    )
                    continue
                prev = (last_cache or {}).get(field)
                if prev is not None and cur < prev:
                    errors.append(
                        f"{path}:{lineno}: cache counter {field!r} decreased "
                        f"({cur} < {prev}) within the run segment starting at "
                        f"line {segment_start}"
                    )
            last_cache = ev
        if kind == "parallel_stats":
            for field in PARALLEL_COUNTERS:
                cur = ev.get(field)
                if not isinstance(cur, (int, float)) or isinstance(cur, bool):
                    errors.append(
                        f"{path}:{lineno}: parallel_stats missing/non-numeric {field!r}"
                    )
                    continue
                prev = (last_parallel or {}).get(field)
                if prev is not None and cur < prev:
                    errors.append(
                        f"{path}:{lineno}: parallel counter {field!r} decreased "
                        f"({cur} < {prev}) within the run segment starting at "
                        f"line {segment_start}"
                    )
            last_parallel = ev
        if kind == "io_plan_stats":
            if ev.get("mode") not in PLANNER_MODES:
                errors.append(
                    f"{path}:{lineno}: io_plan_stats mode must be one of "
                    f"{PLANNER_MODES}, got {ev.get('mode')!r}"
                )
            for field in IO_PLAN_COUNTERS:
                cur = ev.get(field)
                if not isinstance(cur, (int, float)) or isinstance(cur, bool):
                    errors.append(
                        f"{path}:{lineno}: io_plan_stats missing/non-numeric {field!r}"
                    )
                    continue
                prev = (last_io_plan or {}).get(field)
                if prev is not None and cur < prev:
                    errors.append(
                        f"{path}:{lineno}: io_plan counter {field!r} decreased "
                        f"({cur} < {prev}) within the run segment starting at "
                        f"line {segment_start}"
                    )
            last_io_plan = ev
        if kind == "device_stats":
            if ev.get("placement") not in PLACEMENTS:
                errors.append(
                    f"{path}:{lineno}: device_stats placement must be one of "
                    f"{PLACEMENTS}, got {ev.get('placement')!r}"
                )
            devices = ev.get("devices")
            if not isinstance(devices, int) or isinstance(devices, bool) or devices < 2:
                errors.append(
                    f"{path}:{lineno}: device_stats 'devices' must be an integer "
                    f">= 2 (the event is only emitted on an array), got {devices!r}"
                )
            for field in DEVICE_COUNTERS:
                cur = ev.get(field)
                if not isinstance(cur, (int, float)) or isinstance(cur, bool):
                    errors.append(
                        f"{path}:{lineno}: device_stats missing/non-numeric {field!r}"
                    )
                    continue
                prev = (last_device or {}).get(field)
                if prev is not None and cur < prev:
                    errors.append(
                        f"{path}:{lineno}: device counter {field!r} decreased "
                        f"({cur} < {prev}) within the run segment starting at "
                        f"line {segment_start}"
                    )
            last_device = ev
        if kind == "ingest_stats":
            if ev.get("phase") not in INGEST_PHASES:
                errors.append(
                    f"{path}:{lineno}: ingest_stats phase must be one of "
                    f"{INGEST_PHASES}, got {ev.get('phase')!r}"
                )
            bad = False
            for field in INGEST_FIELDS:
                cur = ev.get(field)
                if not isinstance(cur, int) or isinstance(cur, bool) or cur < 0:
                    errors.append(
                        f"{path}:{lineno}: ingest_stats missing/negative/"
                        f"non-integer {field!r}"
                    )
                    bad = True
            if not bad:
                if last_seq is not None and ev["seq"] < last_seq:
                    errors.append(
                        f"{path}:{lineno}: ingest_stats seq decreased "
                        f"({ev['seq']} < {last_seq}) within the run segment "
                        f"starting at line {segment_start}"
                    )
                last_seq = ev["seq"]
        if kind == "superstep_end":
            counts = [ev.get(field) for field in SEND_FIELDS]
            if any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in counts):
                errors.append(
                    f"{path}:{lineno}: superstep_end missing/negative/non-integer "
                    f"{' / '.join(SEND_FIELDS)}"
                )
            elif counts[1] > counts[0]:
                errors.append(
                    f"{path}:{lineno}: superstep_end logged more records than were "
                    f"sent (records_logged {counts[1]} > messages_sent {counts[0]})"
                )
        if kind in SORT_KINDS:
            records, runs = ev.get("records"), ev.get("natural_runs")
            if any(not isinstance(c, int) or isinstance(c, bool) for c in (records, runs)):
                errors.append(
                    f"{path}:{lineno}: {kind} missing/non-integer records / natural_runs"
                )
            elif records > 0 and not 1 <= runs <= records:
                errors.append(
                    f"{path}:{lineno}: {kind} natural_runs {runs} outside [1, records {records}]"
                )
        if kind in FLUSH_KINDS:
            pages, t = ev.get("pages"), ev.get("time_us")
            if not isinstance(pages, int) or isinstance(pages, bool) or pages < 1:
                errors.append(f"{path}:{lineno}: {kind} 'pages' must be an integer >= 1, got {pages!r}")
            if not isinstance(t, (int, float)) or isinstance(t, bool) or not t > 0:
                errors.append(f"{path}:{lineno}: {kind} 'time_us' must be > 0, got {t!r}")
        if kind == "warm_start":
            counts = [ev.get(field) for field in WARM_START_FIELDS]
            if any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in counts):
                errors.append(
                    f"{path}:{lineno}: warm_start missing/negative/non-integer "
                    f"{' / '.join(WARM_START_FIELDS)}"
                )
            elif counts[0] > counts[1]:
                errors.append(
                    f"{path}:{lineno}: warm_start has more roots than cone vertices "
                    f"({counts[0]} > {counts[1]})"
                )
            if not isinstance(ev.get("scan"), bool):
                errors.append(f"{path}:{lineno}: warm_start 'scan' must be a boolean")
            io_us = ev.get("io_us")
            if not isinstance(io_us, (int, float)) or isinstance(io_us, bool) or not io_us >= 0:
                errors.append(f"{path}:{lineno}: warm_start 'io_us' must be >= 0, got {io_us!r}")
        if kind == "compaction":
            for field in COMPACTION_FIELDS:
                cur = ev.get(field)
                if not isinstance(cur, int) or isinstance(cur, bool) or cur < 0:
                    errors.append(
                        f"{path}:{lineno}: compaction missing/negative/"
                        f"non-integer {field!r}"
                    )
    if n_events == 0 and not errors:
        errors.append(f"{path}: trace is empty")
    if not errors:
        print(f"{path}: OK ({n_events} events, {max(n_segments, 1)} run segment(s))")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("traces", nargs="+", metavar="TRACE.jsonl")
    args = ap.parse_args()
    all_errors = []
    for p in args.traces:
        all_errors.extend(validate_file(Path(p)))
    for msg in all_errors:
        print(f"ERROR: {msg}", file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
