#!/usr/bin/env python
"""Validate a JSONL engine trace against :data:`repro.obs.TRACE_SCHEMA` (CI gate).

Every line must parse as a JSON object with the envelope ``kind``
(a kind the schema declares), ``t_us`` (a number) and ``step`` (an
integer).  Within each run segment -- a trace may concatenate several
runs, and each ``run_begin`` restarts the simulated clock -- ``t_us``
never decreases and neither does any counter the kind declares.  Each
event must pass its kind's field checks, and each cross-field rule
whose fields passed.  The constraints themselves, and the reasons for
them, live in the schema.

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

from repro.obs import TRACE_SCHEMA  # noqa: E402


class _Fields(dict):
    """An event's fields for a rule message; an absent one reads ``<absent>``."""

    def __missing__(self, field):
        return "<absent>"


def _envelope_error(ev) -> str:
    """Why ``ev`` is not an event of a declared kind ('' when it is)."""
    if not isinstance(ev, dict):
        return f"not a JSON object: {type(ev).__name__}"
    kind, t_us, step = ev.get("kind"), ev.get("t_us"), ev.get("step")
    if not isinstance(kind, str):
        return "missing/non-string 'kind'"
    if not isinstance(t_us, (int, float)) or isinstance(t_us, bool):
        return "missing/non-numeric 't_us'"
    if not isinstance(step, int) or isinstance(step, bool):
        return "missing/non-integer 'step'"
    if kind not in TRACE_SCHEMA:
        return f"unknown event kind {kind!r}"
    return ""


def validate_file(path: Path) -> list:
    """Return a list of violation strings for one trace file."""
    errors = []
    last_t = None
    last = {}  # kind -> its last event that passed its field checks
    segment_start = 0
    n_events = 0
    n_segments = 0
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        if not line.strip():
            errors.append(f"{where}: blank line in JSONL stream")
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: malformed JSON: {exc}")
            continue
        bad = _envelope_error(ev)
        if bad:
            errors.append(f"{where}: {bad}")
            continue
        kind, t_us = ev["kind"], ev["t_us"]
        n_events += 1
        if kind == "run_begin":
            last_t = None
            last = {}
            segment_start = lineno
            n_segments += 1
        if last_t is not None and t_us < last_t:
            errors.append(
                f"{where}: t_us went backwards ({t_us} < {last_t}) "
                f"within the run segment starting at line {segment_start}"
            )
        last_t = t_us
        schema = TRACE_SCHEMA[kind]
        failed = set()
        for field, check in schema.fields.items():
            value = ev.get(field)
            if not check.ok(value):
                failed.add(field)
                errors.append(f"{where}: {kind} " + check.msg.format(field=field, value=value))
        prev = last.get(kind)
        for field in schema.counters:
            if prev is not None and field not in failed and ev[field] < prev[field]:
                errors.append(
                    f"{where}: {kind} counter {field!r} decreased ({ev[field]} < "
                    f"{prev[field]}) within the run segment starting at line {segment_start}"
                )
        if not failed:
            last[kind] = ev
        for rule in schema.rules:
            if failed.isdisjoint(rule.reads) and not rule.holds(*(ev.get(f) for f in rule.reads)):
                errors.append(f"{where}: {kind} " + rule.msg.format_map(_Fields(ev)))
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
