"""Structured tracing for engine runs.

A :class:`Tracer` receives typed *events* from the engines: superstep
begin/end, group plan/load/sort/process, loader page fetches by storage
class, edge-log decisions, multi-log flushes, external-sort passes
(GraFBoost), block streams (GridGraph).  Every event is stamped with

* the **simulated clock** -- storage time from the SSD device plus the
  engine's compute-meter time at the moment of emission, and
* the current **superstep index**.

The base class is a null object: ``enabled`` is False and every method
is a no-op, so engines can keep a tracer reference unconditionally and
guard only the (cheap) field construction with ``if tracer.enabled``.
That is what keeps tracing-off runs byte-identical to and as fast as
untraced runs.

Determinism contract
--------------------
Engines are single-threaded and emit events at the point where the
corresponding work lands in the execution order.  MultiLogVC prepares a
group under the device's deferred-charge queue and emits its
``group_load`` right after the commit in
:meth:`repro.core.engine.MultiLogVC._step`, so the event is
stamped with the group's I/O already on the simulated clock.

Schema
------
Every kind an emitter may use is declared once in :data:`TRACE_SCHEMA`
together with its contract; :data:`TRACE_KINDS`, the crash/resume
exclusions and ``tools/validate_trace.py`` are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..config import IO_PLAN_MODES, PLACEMENTS


class Check(NamedTuple):
    """A field check: ``ok(value)`` (``None`` when the field is missing),
    else ``msg`` formatted with ``field`` and ``value``."""

    ok: Callable[[Any], bool]
    msg: str


class Rule(NamedTuple):
    """A cross-field rule: ``holds(*values of reads)`` (``None`` for an
    absent optional field), else ``msg`` formatted with the event's
    fields (an absent one reads ``<absent>``)."""

    reads: Tuple[str, ...]
    holds: Callable[..., bool]
    msg: str


@dataclass(frozen=True)
class EventSchema:
    """One kind's contract: ``fields`` checks; ``counters`` that never
    decrease within a run segment; cross-field ``rules``, evaluated only
    when the fields they read passed; and whether a crash/resume
    comparison matches the kind event-for-event (``reconciled``)."""

    fields: Mapping[str, Check] = field(default_factory=dict)
    counters: Tuple[str, ...] = ()
    rules: Tuple[Rule, ...] = ()
    reconciled: bool = True


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int_at_least(lo: int) -> Check:
    msg = f"{{field!r}} must be an integer >= {lo}, got {{value!r}}"
    return Check(lambda v: _is_int(v) and v >= lo, msg)


def _one_of(values: Tuple[str, ...]) -> Check:
    return Check(lambda v: v in values, f"{{field!r}} must be one of {values}, got {{value!r}}")


INT = Check(_is_int, "missing/non-integer {field!r}")
COUNT = Check(lambda v: _is_int(v) and v >= 0, "missing/negative/non-integer {field!r}")
NUMBER = Check(_is_number, "missing/non-numeric {field!r}")
BOOL = Check(lambda v: isinstance(v, bool), "{field!r} must be a boolean")
POSITIVE = Check(lambda v: _is_number(v) and v > 0, "{field!r} must be > 0, got {value!r}")
NON_NEGATIVE = Check(lambda v: _is_number(v) and v >= 0, "{field!r} must be >= 0, got {value!r}")


def _free(kinds: str) -> Dict[str, EventSchema]:
    """Entries for kinds that carry no constraint beyond the envelope."""
    return dict.fromkeys(kinds.split(), EventSchema())


def _overlay(counters: str, check: Check = NUMBER, **fields: Check) -> EventSchema:
    """A once-per-superstep snapshot of an overlay's run-cumulative
    ``counters`` (DESIGN.md §7).

    They accumulate for the run's lifetime, so a drop within a run
    segment means the state behind them was silently reset.  A
    checkpoint carries them and a resumed run restores them, so the
    kind reconciles across a crash/resume cut like any other.
    """
    names = tuple(counters.split())
    return EventSchema({**fields, **dict.fromkeys(names, check)}, names)


#: A sort's input has at least one and at most one natural run per record
#: (the runs its compute charge merges, DESIGN.md §5).
_SORT = EventSchema(
    {"records": INT, "natural_runs": INT},
    rules=(Rule(("records", "natural_runs"), lambda n, runs: n <= 0 or 1 <= runs <= n,
                "natural_runs {natural_runs} outside [1, records {records}]"),),
)

#: A reduce (DESIGN.md §15) is charged as one stable sort of its whole
#: batch by destination: its ``records`` keys in ``natural_runs`` runs
#: (the ``_SORT`` rule), over ``span = max - min + 1`` ids.  It hands on
#: no more records than it was given, and ``counted`` is 1 where the
#: counting sort was the cheaper algorithm, else 0.  ``extsort`` carries
#: the reduce's fields only where its charge is one (plain GraFBoost
#: with a named combine); ``send_reduce`` always does.
_REDUCE_FIELDS = {
    "span": COUNT,
    "survivors": COUNT,
    "counted": Check(
        lambda v: _is_int(v) and v in (0, 1), "{field!r} must be 0 or 1, got {value!r}"
    ),
    "item_levels": NON_NEGATIVE,
}
_REDUCE_RULES = (
    Rule(
        ("records", "survivors"),
        lambda n, m: m is None or m <= n,
        "survivors {survivors} above records {records}",
    ),
    Rule(
        ("records", "span"),
        lambda n, span: span is None or n <= 0 or span >= 1,
        "span {span} below 1 for records {records}",
    ),
)


def _maybe(check: Check) -> Check:
    """``check``, or the field is absent."""
    return Check(lambda v: v is None or check.ok(v), check.msg)


_EXTSORT = EventSchema(
    {**_SORT.fields, **{f: _maybe(c) for f, c in _REDUCE_FIELDS.items()}},
    rules=_SORT.rules + _REDUCE_RULES,
)
_SEND_REDUCE = EventSchema(
    {**_SORT.fields, **_REDUCE_FIELDS},
    rules=_SORT.rules + _REDUCE_RULES,
)

#: A log write batch.  ``deferred`` (absent: 0) of its ``pages`` were
#: admitted dirty to a write-back cache (DESIGN.md §10) and are charged
#: only if a ``writeback`` writes them; the rest reached the device now.
_FLUSH = EventSchema(
    {"pages": _int_at_least(1), "deferred": _maybe(COUNT), "time_us": NON_NEGATIVE},
    rules=(
        Rule(("pages", "deferred"), lambda pages, deferred: (deferred or 0) <= pages,
             "deferred {deferred} above pages {pages}"),
        Rule(("pages", "deferred", "time_us"),
             lambda pages, deferred, t: t > 0 or deferred == pages,
             "'time_us' must be > 0 unless every page is deferred, got {time_us}"),
    ),
)


def _writeback_klass(v: Any) -> bool:
    from ..mem.pagecache import WRITEBACK_KLASSES  # the cache imports this package

    return v in WRITEBACK_KLASSES


#: One dirty batch leaving the cache, charged under its own class:
#: its eviction victim's (``evict``) or every batch at a checkpoint cut.
_WRITEBACK = EventSchema({
    "klass": Check(_writeback_klass, "{field!r} {value!r} is not a write-back class"),
    "pages": _int_at_least(1),
    "time_us": POSITIVE,
    "cause": _one_of(("evict", "cut")),
})

#: The trace contract, one entry per event kind that an engine, the
#: device layer or the stream store may emit.  Every event also carries
#: the envelope ``kind``/``t_us``/``step``, and ``t_us`` never decreases
#: within a run segment: a trace may concatenate runs, and each
#: ``run_begin`` restarts the simulated clock.  ``tools/validate_trace.py``
#: is a generic loop over this table; an entry must accompany the
#: emitting code.
TRACE_SCHEMA: Dict[str, EventSchema] = {
    # -- run lifecycle (all engines).  The prologue and the resume
    # bookkeeping sit outside any superstep and differ between an
    # uninterrupted and a resumed run by construction.
    "run_begin": EventSchema(reconciled=False),
    # A resumed run continues at the superstep after its checkpoint's cut.
    "run_resume": EventSchema(
        {"checkpoint_id": _int_at_least(1), "checkpoint_step": COUNT, "start_step": COUNT,
         "recovery_read_pages": COUNT, "recovery_read_time_us": NON_NEGATIVE},
        rules=(Rule(("checkpoint_step", "start_step"), lambda cut, start: start == cut + 1,
                    "start_step {start_step} is not checkpoint_step {checkpoint_step} + 1"),),
        reconciled=False,
    ),
    **_free("run_end superstep_begin"),
    # The log never holds more records than the program sent; it holds
    # fewer only where a send-side combine reduced them first (DESIGN.md §15).
    "superstep_end": EventSchema(
        {"messages_sent": COUNT, "records_logged": COUNT},
        rules=(Rule(("messages_sent", "records_logged"), lambda sent, logged: logged <= sent,
                    "logged more records than were sent "
                    "(records_logged {records_logged} > messages_sent {messages_sent})"),),
    ),
    # -- MultiLogVC superstep internals
    **_free("group_plan edgelog_decisions mlog_rotate"),
    # one per processed group; ``edge_vertices`` (only where the program
    # declares ``loads_edges``) of its ``vertices`` read their edges
    "group_process": EventSchema(
        {"vertices": COUNT, "edge_vertices": _maybe(COUNT)},
        rules=(Rule(("vertices", "edge_vertices"), lambda n, e: e is None or e <= n,
                    "edge_vertices {edge_vertices} above vertices {vertices}"),),
    ),
    # one per committed group: its preparation's I/O (DESIGN.md §11)
    "group_load": EventSchema(
        {"group": COUNT, "intervals": COUNT, "records": COUNT, "io_time_us": NON_NEGATIVE}
    ),
    "group_sort": _SORT,
    # one per send-side combine of a group's (or the seeds') sends
    "send_reduce": _SEND_REDUCE,
    "mlog_flush": _FLUSH,
    "elog_flush": _FLUSH,
    "writeback": _WRITEBACK,
    # -- run-cumulative overlays
    "cache_stats": _overlay(
        "hits misses evictions insertions invalidations rejected"
        " writeback_batches writeback_pages dropped_dirty_pages",
        INT,
        dirty_pages=COUNT,
    ),
    "parallel_stats": _overlay("groups spec_us saved_us makespan_us"),
    # superstep I/O planner (DESIGN.md §13), never built with io_plan "off"
    "io_plan_stats": _overlay(
        "plans demand_pages cache_hit_pages batches_folded extents extent_pages"
        " scattered_pages waves time_us saved_us readahead_pages readahead_time_us",
        mode=_one_of(IO_PLAN_MODES[1:]),
    ),
    # multi-SSD device array (DESIGN.md §14), emitted only on an array
    "device_stats": _overlay(
        "ops serial_us array_us saved_us", placement=_one_of(PLACEMENTS), devices=_int_at_least(2)
    ),
    # -- recovery subsystem and SSD fault injection (DESIGN.md §8)
    # one per checkpoint: its payload pages and commit page, charged
    "checkpoint_write": EventSchema(
        {"ckpt_id": _int_at_least(1), "payload_pages": _int_at_least(1), "time_us": POSITIVE}
    ),
    **_free("fault_error fault_crash fault_torn fault_retry channel_degraded"),
    # -- streaming updates (DESIGN.md §12).  ``seq`` is the update log's
    # batch counter, monotone for the store's lifetime: a drop means the
    # commit log was corrupted.
    "ingest_stats": EventSchema(
        {"phase": _one_of(("ingest", "apply")), "seq": COUNT, "records": COUNT, "pages": COUNT},
        counters=("seq",),
    ),
    "compaction": EventSchema(
        dict.fromkeys("interval live dropped pages_read pages_written".split(), COUNT)
    ),
    # one per incremental recompute's seeding: the deletion cone contains
    # its roots; ``seeds`` messages kept, ``seeds_dropped`` as non-improving
    "warm_start": EventSchema(
        {"roots": COUNT, "cone": COUNT, "walk_rows": COUNT, "scan": BOOL,
         "seeds": COUNT, "seeds_dropped": COUNT, "io_us": NON_NEGATIVE},
        rules=(Rule(("roots", "cone"), lambda roots, cone: roots <= cone,
                    "has more roots than cone vertices ({roots} > {cone})"),),
    ),
    # -- baseline engines
    **_free("shard_load vertex_chunks log_stream graph_stream block_stream"),
    # GraFBoost's log writes: a stripe-rounded batch, or the tail at superstep end
    "log_flush": EventSchema({"pages": _int_at_least(1), "tail": BOOL}),
    "extsort": _EXTSORT,
}

#: Every event kind any engine or the device layer may emit.
TRACE_KINDS = frozenset(TRACE_SCHEMA)


@dataclass
class TraceEvent:
    """One emitted trace record."""

    kind: str
    #: simulated time (us) at emission: SSD storage time + compute time
    t_us: float
    #: superstep index the event belongs to (-1 outside any superstep)
    step: int
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "t_us": self.t_us, "step": self.step, **self.fields}


class Tracer:
    """Null-object tracer: zero overhead, nothing recorded."""

    __slots__ = ()

    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Set the simulated-time source for subsequent events."""

    def set_step(self, step: int) -> None:
        """Set the superstep index stamped on subsequent events."""

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event (no-op on the null tracer)."""

    @property
    def events(self) -> List[TraceEvent]:
        return []


#: Shared do-nothing tracer; the default everywhere.
NULL_TRACER = Tracer()


class TraceRecorder(Tracer):
    """In-memory tracer collecting :class:`TraceEvent` records."""

    __slots__ = ("_events", "_clock", "_step")

    enabled = True

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._clock: Optional[Callable[[], float]] = None
        self._step = -1

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def set_step(self, step: int) -> None:
        self._step = step

    def emit(self, kind: str, **fields: Any) -> None:
        t = self._clock() if self._clock is not None else 0.0
        self._events.append(TraceEvent(kind, t, self._step, fields))

    @property
    def events(self) -> List[TraceEvent]:
        return self._events
