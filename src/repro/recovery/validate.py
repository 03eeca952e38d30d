"""Recovery validation: crash/resume harness and trace reconciliation.

The acceptance bar for the recovery subsystem (ISSUE 3, DESIGN.md §8)
is *exactness*, not plausibility: after an injected crash at any point
in a superstep, a resumed run must

1. produce **bit-identical** final vertex state to an uninterrupted
   run, and
2. emit a trace that reconciles **event-for-event** (kind, step,
   fields, simulated timestamp) with the uninterrupted run's trace from
   the first post-checkpoint superstep onward.

:func:`crash_resume_experiment` packages the whole protocol -- baseline
run, crashed run under a :class:`~repro.ssd.faults.FaultPlan`, load of
the surviving checkpoint, resumed run, comparison -- so tests and the
nightly soak harness share one implementation.

Engines are constructed from *factories* (zero-argument callables
returning a fresh graph / program) because a crashed run may leave
host-side state mutated (e.g. edge-state programs write through views
into the caller's CSR arrays); every run must start from pristine
inputs for bit-identical comparison to be meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..errors import ConfigError, RecoveryError, SimulatedCrashError
from ..obs import TRACE_SCHEMA
from .checkpoint import KLASS_CKPT, CheckpointData, CheckpointManager

#: Kinds a crash/resume comparison skips: the run prologue and the resume
#: bookkeeping (the reasons are on their schema entries).
NON_RECONCILED_KINDS = frozenset(k for k, s in TRACE_SCHEMA.items() if not s.reconciled)


def reconcile_traces(
    uninterrupted: List[Any],
    resumed: List[Any],
    from_step: int,
    exclude_kinds: frozenset = NON_RECONCILED_KINDS,
) -> List[str]:
    """Compare two traces event-for-event from ``from_step`` onward.

    Returns a list of human-readable mismatch descriptions (empty means
    the traces reconcile).  Events are compared on kind, superstep,
    fields, and the simulated timestamp ``t_us`` -- the timestamp check
    is what proves the resumed device clock was rewound to the cut
    exactly.
    """

    def select(events):
        return [
            ev
            for ev in events
            if ev.step >= from_step and ev.kind not in exclude_kinds
        ]

    a, b = select(uninterrupted), select(resumed)
    mismatches: List[str] = []
    if len(a) != len(b):
        mismatches.append(
            f"event count differs from step {from_step}: "
            f"uninterrupted={len(a)}, resumed={len(b)}"
        )
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea.kind != eb.kind or ea.step != eb.step:
            mismatches.append(
                f"event {i}: ({ea.kind!r}, step {ea.step}) vs ({eb.kind!r}, step {eb.step})"
            )
            continue
        if ea.t_us != eb.t_us:
            mismatches.append(
                f"event {i} ({ea.kind!r}, step {ea.step}): t_us {ea.t_us} vs {eb.t_us}"
            )
        if ea.fields != eb.fields:
            diff_keys = sorted(
                k
                for k in set(ea.fields) | set(eb.fields)
                if ea.fields.get(k) != eb.fields.get(k)
            )
            mismatches.append(
                f"event {i} ({ea.kind!r}, step {ea.step}): fields differ on {diff_keys}"
            )
        if len(mismatches) >= 20:
            mismatches.append("... (truncated)")
            break
    return mismatches


def count_device_ops(
    graph_factory: Callable[[], Any],
    program_factory: Callable[[], Any],
    *,
    config,
    options=None,
    seed: int = 0,
    max_supersteps: int = 15,
) -> Tuple[int, Any]:
    """Run once under an empty fault plan; returns (total I/O batches, result).

    The empty plan makes the device count every batch in ``ops_seen``,
    so callers can pick crash points uniformly over the whole run.
    """
    from ..core.engine import MultiLogVC
    from ..ssd.faults import FaultPlan

    engine = MultiLogVC(graph_factory(), program_factory(), config=config, options=options)
    engine.fs.device.install_faults(FaultPlan([]))
    result = engine.run(max_supersteps=max_supersteps, seed=seed)
    return engine.fs.device.fault_plan.ops_seen, result


@dataclass
class CrashRecoveryReport:
    """Everything :func:`crash_resume_experiment` measured."""

    crashed: bool
    crash_after_ops: int
    checkpoint_step: int = -1
    checkpoint_id: int = -1
    baseline: Any = None
    resumed: Any = None
    values_identical: bool = False
    records_identical: bool = False
    stats_identical: bool = False
    trace_mismatches: List[str] = field(default_factory=list)
    no_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        """True when recovery was exact (or the fault never fired)."""
        if not self.crashed:
            return True  # the run finished before the crash point
        return (
            not self.no_checkpoint
            and self.values_identical
            and self.records_identical
            and self.stats_identical
            and not self.trace_mismatches
        )

    def describe(self) -> str:
        if not self.crashed:
            return f"no crash (plan armed after {self.crash_after_ops} ops; run finished first)"
        if self.no_checkpoint:
            return f"crash after {self.crash_after_ops} ops preceded the first checkpoint"
        bits = [
            f"crash after {self.crash_after_ops} ops",
            f"resumed from ckpt {self.checkpoint_id} (step {self.checkpoint_step})",
            f"values {'==' if self.values_identical else '!='}",
            f"records {'==' if self.records_identical else '!='}",
            f"stats {'==' if self.stats_identical else '!='}",
            f"{len(self.trace_mismatches)} trace mismatches",
        ]
        return ", ".join(bits)


def run_stats_identical(base, resumed, incremental: bool = False) -> bool:
    """Whether two runs' ``SSDStats`` are equal, class by class and in total.

    With ``incremental`` the checkpoint write class is left out on both
    sides, and with it its share of the totals: the resumed run's first
    checkpoint is full where the uninterrupted run wrote a delta, and
    the two blobs need not round to the same page count.
    """
    if incremental:
        base, resumed = base.snapshot(), resumed.snapshot()
        base.writes.pop(KLASS_CKPT, None)
        resumed.writes.pop(KLASS_CKPT, None)
    return base.to_dict() == resumed.to_dict()


def crash_resume_experiment(
    graph_factory: Callable[[], Any],
    program_factory: Callable[[], Any],
    *,
    config,
    options=None,
    crash_after_ops: int,
    fault_seed: int = 0,
    seed: int = 0,
    max_supersteps: int = 15,
    fault_klass: Optional[str] = None,
    fault_kind: str = "crash",
    baseline: Any = None,
) -> CrashRecoveryReport:
    """Full crash/recovery determinism check at one crash point.

    Protocol: (1) uninterrupted baseline run with a trace recorder;
    (2) identical run with a power-loss fault armed after
    ``crash_after_ops`` device batches -- or, with ``fault_kind="torn"``,
    a torn write after ``crash_after_ops`` write batches, so a strict
    prefix of that write persists; (3) load the newest valid
    checkpoint from the crashed run's (surviving) file system;
    (4) resume on a fresh engine; (5) compare final values, superstep
    records, run stats, and reconcile traces from the first
    post-checkpoint superstep.

    A crash point that lands before the first checkpoint write is
    reported with ``no_checkpoint=True`` (callers retry with a later
    point); a plan that never fires (run finished first) reports
    ``crashed=False`` and counts as ok.

    ``baseline`` is step (1)'s result when the caller already has it
    (an earlier report's ``baseline`` for the same workload), so a
    sweep over crash points runs the uninterrupted run once.
    """
    from ..core.engine import MultiLogVC
    from ..obs import TraceRecorder
    from ..ssd.faults import FaultPlan

    faults = {"crash": FaultPlan.crash_after, "torn": FaultPlan.torn_write_after}
    if fault_kind not in faults:
        raise ConfigError(f"fault_kind must be one of {sorted(faults)}, got {fault_kind!r}")
    report = CrashRecoveryReport(crashed=False, crash_after_ops=crash_after_ops)

    if baseline is None:
        base_engine = MultiLogVC(
            graph_factory(), program_factory(), config=config, options=options,
            tracer=TraceRecorder(),
        )
        baseline = base_engine.run(max_supersteps=max_supersteps, seed=seed)
    report.baseline = baseline

    crash_engine = MultiLogVC(graph_factory(), program_factory(), config=config, options=options)
    crash_engine.fs.device.install_faults(
        faults[fault_kind](crash_after_ops, seed=fault_seed, klass=fault_klass)
    )
    try:
        crash_engine.run(max_supersteps=max_supersteps, seed=seed)
    except SimulatedCrashError:
        report.crashed = True
    if not report.crashed:
        return report

    try:
        ckpt: CheckpointData = CheckpointManager.load_latest(crash_engine.fs)
    except RecoveryError:
        report.no_checkpoint = True
        return report
    report.checkpoint_step = ckpt.step
    report.checkpoint_id = ckpt.ckpt_id

    resume_tracer = TraceRecorder()
    resume_engine = MultiLogVC(
        graph_factory(), program_factory(), config=config, options=options, tracer=resume_tracer
    )
    report.resumed = resume_engine.run(
        max_supersteps=max_supersteps, seed=seed, resume_from=ckpt
    )

    base, res = report.baseline, report.resumed
    report.values_identical = (
        base.values.dtype == res.values.dtype
        and base.values.tobytes() == res.values.tobytes()
    )
    report.records_identical = [r.to_dict() for r in base.supersteps] == [
        r.to_dict() for r in res.supersteps
    ]
    # The first checkpoint after a resume is always full (its delta
    # baseline died with the crashed device), so in incremental mode the
    # checkpoint_write events and the pages charged to the checkpoint
    # write class legitimately differ between the two runs.
    incremental = getattr(options, "checkpoint_mode", "full") == "incremental"
    report.stats_identical = run_stats_identical(base.stats, res.stats, incremental)
    exclude = NON_RECONCILED_KINDS
    if incremental:
        exclude = exclude | {"checkpoint_write"}
    report.trace_mismatches = reconcile_traces(
        base.trace or [], res.trace or [], from_step=ckpt.step + 1, exclude_kinds=exclude
    )
    return report
