"""The trace contract, pinned one constraint at a time.

Each case writes a minimal JSONL trace and asserts which lines
``tools/validate_trace.py`` rejects (an empty set means the trace is
accepted).  Together they cover every constraint the validator
enforces: the event envelope, per-run-segment clock monotonicity,
run-cumulative counters that must never decrease, per-kind field
checks and the cross-field rules -- plus one well-formed event per
constrained kind that must pass.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.obs import TRACE_SCHEMA
from repro.obs.tracer import Rule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from validate_trace import validate_file  # noqa: E402

BEGIN = {"kind": "run_begin", "t_us": 0, "step": -1}

#: One well-formed event per kind that carries constraints.
GOOD = {
    "cache_stats": {
        "hits": 4,
        "misses": 2,
        "evictions": 1,
        "insertions": 2,
        "invalidations": 0,
        "rejected": 0,
        "writeback_batches": 1,
        "writeback_pages": 3,
        "dropped_dirty_pages": 2,
        "dirty_pages": 1,
        "resident_pages": 1,
    },
    "parallel_stats": {"groups": 3, "spec_us": 10.0, "saved_us": 2.5, "makespan_us": 7.5},
    "io_plan_stats": {
        "mode": "coalesce",
        "plans": 2,
        "demand_pages": 9,
        "cache_hit_pages": 1,
        "batches_folded": 3,
        "extents": 4,
        "extent_pages": 8,
        "scattered_pages": 1,
        "waves": 2,
        "time_us": 50.0,
        "saved_us": 5.0,
        "readahead_pages": 0,
        "readahead_time_us": 0.0,
    },
    "device_stats": {
        "devices": 4,
        "placement": "stripe",
        "ops": 6,
        "serial_us": 40.0,
        "array_us": 20.0,
        "saved_us": 20.0,
    },
    "ingest_stats": {"phase": "ingest", "seq": 2, "records": 10, "pages": 1},
    "compaction": {"interval": 0, "live": 5, "dropped": 2, "pages_read": 1, "pages_written": 1},
    "superstep_end": {"messages_sent": 8, "records_logged": 5},
    "group_sort": {"group": 0, "records": 3, "natural_runs": 2, "unique_dests": 2},
    "group_process": {
        "group": 0, "vertices": 5, "edge_vertices": 3, "updates": 4, "edges": 9, "batched": True,
    },
    "extsort": {"records": 3, "natural_runs": 3, "passes": 1},
    "send_reduce": {
        "records": 9, "natural_runs": 3, "span": 4, "survivors": 5, "counted": 1,
        "item_levels": 17.3,
    },
    "group_load": {
        "group": 0, "intervals": 2, "records": 7, "pages_by_class": {"mlog": 1},
        "io_time_us": 25.0,
    },
    "mlog_flush": {"unit": "mlog", "pages": 1, "time_us": 12.0},
    "elog_flush": {"pages": 2, "time_us": 30.0},
    "log_flush": {"pages": 8, "tail": False},
    "checkpoint_write": {"ckpt_id": 1, "payload_pages": 13, "time_us": 410.0},
    "run_resume": {
        "checkpoint_id": 2, "checkpoint_step": 3, "start_step": 4, "recovery_read_pages": 14,
        "recovery_read_time_us": 0.0,
    },
    "writeback": {"klass": "mlog", "pages": 3, "time_us": 40.0, "cause": "evict"},
    "warm_start": {
        "roots": 1, "cone": 2, "walk_rows": 3, "scan": True, "seeds": 4, "seeds_dropped": 5,
        "io_us": 0.0,
    },
}

#: Counters that must never decrease within a run segment, per kind.
COUNTERS = {
    "cache_stats": (
        "hits", "misses", "evictions", "insertions", "invalidations", "rejected",
        "writeback_batches", "writeback_pages", "dropped_dirty_pages",
    ),
    "parallel_stats": ("groups", "spec_us", "saved_us", "makespan_us"),
    "io_plan_stats": (
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
    ),
    "device_stats": ("ops", "serial_us", "array_us", "saved_us"),
    "ingest_stats": ("seq",),
}

_MISSING = object()


def ev(kind, t_us=1, step=0, **fields):
    return {"kind": kind, "t_us": t_us, "step": step, **fields}


def good(kind, t_us=1, **overrides):
    """``kind``'s well-formed event with ``overrides`` applied (``_MISSING`` drops)."""
    fields = {**GOOD[kind], **overrides}
    return ev(kind, t_us, **{k: v for k, v in fields.items() if v is not _MISSING})


def rejected(tmp_path, *lines):
    """Write ``lines`` (dicts are JSON-encoded) and return the rejected line numbers."""
    path = tmp_path / "t.jsonl"
    text = "\n".join(line if isinstance(line, str) else json.dumps(line) for line in lines)
    path.write_text(text + "\n" if lines else "")
    prefix = f"{path}:"
    out = set()
    for err in validate_file(path):
        assert err.startswith(prefix), err
        out.add(int(err[len(prefix) :].split(":", 1)[0]))
    return sorted(out)


# -- envelope ---------------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        {"t_us": 1, "step": 0},
        {"kind": 3, "t_us": 1, "step": 0},
        {"kind": "group_plan", "step": 0},
        {"kind": "group_plan", "t_us": "1", "step": 0},
        {"kind": "group_plan", "t_us": True, "step": 0},
        {"kind": "group_plan", "t_us": 1},
        {"kind": "group_plan", "t_us": 1, "step": 1.0},
        {"kind": "group_plan", "t_us": 1, "step": False},
        {"kind": "no_such_kind", "t_us": 1, "step": 0},
        [1, 2],
        "",
        "{not json",
    ],
    ids=[
        "no-kind",
        "non-string-kind",
        "no-t_us",
        "string-t_us",
        "bool-t_us",
        "no-step",
        "float-step",
        "bool-step",
        "unknown-kind",
        "not-an-object",
        "blank-line",
        "malformed-json",
    ],
)
def test_envelope_failure_rejects_its_line(tmp_path, line):
    assert rejected(tmp_path, BEGIN, line, ev("run_end", t_us=2)) == [2]


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("")
    (err,) = validate_file(path)
    assert err == f"{path}: trace is empty"


def test_kinds_without_constraints_take_any_fields(tmp_path):
    assert rejected(tmp_path, BEGIN, ev("group_plan"), ev("run_end", step=-1, x=[1])) == []


# -- clock ------------------------------------------------------------------


def test_t_us_going_backwards_is_rejected(tmp_path):
    assert rejected(tmp_path, BEGIN, ev("group_plan", t_us=5), good("group_load", t_us=4)) == [3]


def test_t_us_drop_across_run_begin_is_allowed(tmp_path):
    lines = [BEGIN, ev("group_plan", t_us=5), {**BEGIN, "t_us": 1}, good("group_load", t_us=2)]
    assert rejected(tmp_path, *lines) == []


# -- run-cumulative counters ------------------------------------------------


def _lower(value):
    return value - 1 if isinstance(value, int) else value - 0.5


@pytest.mark.parametrize(
    "kind,field", [(k, f) for k, fields in COUNTERS.items() for f in fields]
)
def test_counter_decrease_is_rejected(tmp_path, kind, field):
    dropped = good(kind, t_us=2, **{field: _lower(GOOD[kind][field])})
    assert rejected(tmp_path, BEGIN, good(kind), dropped) == [3]
    # a new run segment restarts every counter
    assert rejected(tmp_path, BEGIN, good(kind), BEGIN, dropped) == []


def test_non_integer_cache_counter_is_rejected(tmp_path):
    assert rejected(tmp_path, BEGIN, good("cache_stats", hits=4.0)) == [2]


# -- field checks -----------------------------------------------------------


@pytest.mark.parametrize(
    "kind,overrides",
    [
        ("io_plan_stats", {"mode": "off"}),
        ("io_plan_stats", {"mode": _MISSING}),
        ("parallel_stats", {"groups": "3"}),
        ("device_stats", {"placement": "round-robin"}),
        ("device_stats", {"devices": 1}),
        ("device_stats", {"devices": True}),
        ("device_stats", {"devices": 4.0}),
        ("ingest_stats", {"phase": "merge"}),
        ("ingest_stats", {"seq": -1}),
        ("ingest_stats", {"records": 1.5}),
        ("ingest_stats", {"pages": _MISSING}),
        ("compaction", {"interval": -1}),
        ("compaction", {"live": 1.0}),
        ("compaction", {"dropped": _MISSING}),
        ("compaction", {"pages_read": True}),
        ("compaction", {"pages_written": -2}),
        ("superstep_end", {"messages_sent": -1}),
        ("superstep_end", {"records_logged": _MISSING}),
        ("superstep_end", {"records_logged": 9}),
        ("group_sort", {"natural_runs": 0}),
        ("group_sort", {"natural_runs": 4}),
        ("group_sort", {"records": "3"}),
        ("extsort", {"natural_runs": 4}),
        ("extsort", {"natural_runs": _MISSING}),
        ("extsort", {"span": 0, "survivors": 2, "item_levels": 1.0}),
        ("extsort", {"survivors": 4}),
        ("extsort", {"item_levels": -1.0}),
        ("send_reduce", {"survivors": 10}),
        ("send_reduce", {"survivors": _MISSING}),
        ("send_reduce", {"span": 0}),
        ("send_reduce", {"span": -1}),
        ("send_reduce", {"natural_runs": 10}),
        ("send_reduce", {"item_levels": -1.0}),
        ("send_reduce", {"counted": _MISSING}),
        ("send_reduce", {"counted": 3}),
        ("send_reduce", {"counted": -1}),
        ("extsort", {"span": 2, "survivors": 2, "counted": 2, "item_levels": 1.0}),
        ("mlog_flush", {"pages": 0}),
        ("mlog_flush", {"time_us": 0}),
        ("elog_flush", {"pages": 0}),
        ("elog_flush", {"time_us": 0.0}),
        ("elog_flush", {"pages": 1.0}),
        ("elog_flush", {"time_us": _MISSING}),
        ("elog_flush", {"deferred": 3}),
        ("elog_flush", {"deferred": 1.0}),
        ("mlog_flush", {"deferred": -1}),
        ("mlog_flush", {"time_us": -1.0, "deferred": 1}),
        ("elog_flush", {"time_us": 0.0, "deferred": 1}),
        ("group_process", {"edge_vertices": 6}),
        ("group_process", {"edge_vertices": -1}),
        ("group_process", {"edge_vertices": 2.0}),
        ("group_process", {"vertices": _MISSING}),
        ("group_process", {"vertices": 1.5, "edge_vertices": _MISSING}),
        ("group_load", {"group": -1}),
        ("group_load", {"intervals": _MISSING}),
        ("group_load", {"records": 1.0}),
        ("group_load", {"io_time_us": -1.0}),
        ("log_flush", {"pages": 0}),
        ("log_flush", {"tail": 1}),
        ("log_flush", {"tail": _MISSING}),
        ("checkpoint_write", {"ckpt_id": 0}),
        ("checkpoint_write", {"ckpt_id": _MISSING}),
        ("checkpoint_write", {"payload_pages": 0}),
        ("checkpoint_write", {"payload_pages": 1.0}),
        ("checkpoint_write", {"time_us": 0.0}),
        ("checkpoint_write", {"time_us": _MISSING}),
        ("run_resume", {"checkpoint_id": 0}),
        ("run_resume", {"checkpoint_id": 2.0}),
        ("run_resume", {"checkpoint_step": -1, "start_step": 0}),
        ("run_resume", {"start_step": _MISSING}),
        ("run_resume", {"start_step": 3}),
        ("run_resume", {"start_step": 5}),
        ("run_resume", {"recovery_read_pages": -1}),
        ("run_resume", {"recovery_read_pages": True}),
        ("run_resume", {"recovery_read_time_us": -1.0}),
        ("run_resume", {"recovery_read_time_us": _MISSING}),
        ("writeback", {"klass": "ulog"}),
        ("writeback", {"pages": 0}),
        ("writeback", {"time_us": 0.0}),
        ("writeback", {"cause": "run_end"}),
        ("writeback", {"cause": _MISSING}),
        ("cache_stats", {"dirty_pages": -1}),
        ("cache_stats", {"writeback_pages": _MISSING}),
        ("warm_start", {"roots": -1}),
        ("warm_start", {"cone": _MISSING}),
        ("warm_start", {"walk_rows": 1.5}),
        ("warm_start", {"scan": 0}),
        ("warm_start", {"io_us": -1.0}),
        ("warm_start", {"io_us": "0"}),
        ("warm_start", {"roots": 3}),
        ("warm_start", {"seeds": -1}),
        ("warm_start", {"seeds_dropped": _MISSING}),
    ],
    ids=lambda x: x if isinstance(x, str) else "-".join(
        f"{k}={'<missing>' if v is _MISSING else repr(v)}" for k, v in x.items()
    ),
)
def test_field_check_failure_is_rejected(tmp_path, kind, overrides):
    assert rejected(tmp_path, BEGIN, good(kind, **overrides)) == [2]


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_well_formed_event_passes(tmp_path, kind):
    assert rejected(tmp_path, BEGIN, good(kind)) == []


def test_ungated_group_process_has_no_edge_vertices(tmp_path):
    assert rejected(tmp_path, BEGIN, good("group_process", edge_vertices=_MISSING)) == []
    assert rejected(tmp_path, BEGIN, good("group_process", edge_vertices=5)) == []


def test_empty_sort_may_have_no_runs(tmp_path):
    for kind in ("group_sort", "extsort"):
        assert rejected(tmp_path, BEGIN, good(kind, records=0, natural_runs=0)) == []
    empty = {
        "records": 0, "natural_runs": 0, "span": 0, "survivors": 0, "counted": 0,
        "item_levels": 0,
    }
    assert rejected(tmp_path, BEGIN, good("send_reduce", **empty)) == []


def test_fully_deferred_flush_may_be_free(tmp_path):
    """A flush whose every page a write-back cache took charges nothing now."""
    assert rejected(tmp_path, BEGIN, good("mlog_flush", deferred=1, time_us=0.0)) == []
    assert rejected(tmp_path, BEGIN, good("elog_flush", deferred=2, time_us=0)) == []
    # a partly deferred batch still charged its remainder
    assert rejected(tmp_path, BEGIN, good("elog_flush", deferred=1)) == []


def test_extsort_reduce_fields_hold_when_present(tmp_path):
    reduce = {"span": 4, "survivors": 2, "counted": 1, "item_levels": 6.0}
    assert rejected(tmp_path, BEGIN, good("extsort", **reduce)) == []


def test_rule_message_may_name_an_absent_field(tmp_path, monkeypatch):
    """A failed rule is reported even when its message names a field the
    event does not carry: the field reads ``<absent>``."""
    rule = Rule(("intervals",), lambda k: k is not None, "counted {counted} without {intervals}")
    schema = dataclasses.replace(TRACE_SCHEMA["extsort"], rules=(rule,))
    monkeypatch.setitem(TRACE_SCHEMA, "extsort", schema)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in (BEGIN, good("extsort", counted=1))) + "\n")
    (err,) = validate_file(path)
    assert err == f"{path}:2: extsort counted 1 without <absent>"


def test_every_bad_line_is_reported(tmp_path):
    lines = [
        BEGIN,
        good("elog_flush", pages=0),
        good("elog_flush", t_us=2),
        good("warm_start", t_us=3, roots=5),
        ev("group_plan", t_us=1),
    ]
    assert rejected(tmp_path, *lines) == [2, 4, 5]
