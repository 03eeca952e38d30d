"""SSD fault injection: rules, plans, and degradation policies.

The robustness story of an out-of-core engine is only testable if the
storage substrate can *misbehave on demand*.  This module provides the
vocabulary:

* :class:`FaultRule` -- one trigger: match an operation (read/write,
  storage class, channel), arm after a count/deadline, fire with a
  probability, and produce a failure of a given *kind*:

  - ``"error"``   -- the batch fails with
    :class:`~repro.errors.InjectedFaultError`.  ``transient=True``
    makes it retryable: the device re-issues the batch under its
    :class:`RetryPolicy`, charging simulated backoff time per attempt.
  - ``"crash"``   -- simulated power loss
    (:class:`~repro.errors.SimulatedCrashError`); nothing of the
    in-flight batch is recorded.
  - ``"torn"``    -- power loss *mid-write*: a strict prefix of the
    batch's pages is durably recorded, then the crash is raised with
    ``pages_persisted`` set.  Reads cannot tear; a ``"torn"`` rule
    matching a read behaves like ``"crash"``.

* :class:`FaultPlan` -- an ordered rule list plus a seeded RNG, so a
  given (plan, workload) pair always fires at the same operation.  The
  plan also counts every matched operation (``ops_seen``), which lets
  tests and the fuzzer pick crash points uniformly over a run.

* :class:`RetryPolicy` / :class:`ChannelDegradation` -- the device-layer
  policies.  Retries back off exponentially (charged as 0-page batches
  under the ``"retry"`` storage class, so they advance the simulated
  clock and are visible in stats).  A channel that accumulates
  ``error_threshold`` faults is *degraded*: reads bound to it pay a
  latency multiplier (ECC/read-retry overhead) and writes stripe around
  it (a log-structured FTL simply stops allocating there).

Determinism: a plan's probabilistic decisions come from its own
``numpy`` generator seeded at construction, never from global state.
The MultiLogVC engine runs its groups in one synchronous in-order loop,
so fault points land at the same position in the operation order every
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError

#: Failure kinds a rule may produce.
FAULT_KINDS = ("error", "crash", "torn")


@dataclass
class FaultRule:
    """One fault trigger.  See module docstring for the semantics."""

    op: str = "any"  #: "read" | "write" | "any"
    klass: Optional[str] = None  #: storage-class glob (fnmatch), None = any
    channel: Optional[int] = None  #: fire only if the batch touches this channel
    probability: float = 1.0  #: per-matching-batch firing probability
    after_ops: int = 0  #: skip the first N matching batches
    after_us: float = 0.0  #: arm only once the simulated clock reaches this
    kind: str = "error"  #: "error" | "crash" | "torn"
    transient: bool = False  #: retryable under the device RetryPolicy
    max_fires: int = 1  #: stop firing after this many hits (<= 0: unlimited)

    #: internal: matched-batch and fire counters (mutated by FaultPlan)
    matched: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.op not in ("read", "write", "any"):
            raise ConfigError(f"fault op must be read/write/any, got {self.op!r}")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigError(f"fault probability must be in (0, 1], got {self.probability}")
        if self.after_ops < 0 or self.after_us < 0:
            raise ConfigError("after_ops/after_us must be non-negative")

    def exhausted(self) -> bool:
        return self.max_fires > 0 and self.fired >= self.max_fires


@dataclass
class FaultEvent:
    """A rule that decided to fire for the current batch."""

    rule: FaultRule
    kind: str
    op: str
    klass: str
    channel: int
    #: torn writes only: pages of the batch durably recorded before the cut
    pages_persisted: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Device retry-with-backoff for transient injected errors."""

    max_retries: int = 2
    backoff_us: float = 200.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_us < 0 or self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_us must be >= 0 and backoff_multiplier >= 1")

    def delay_us(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_us * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class ChannelDegradation:
    """When and how a faulty channel is degraded."""

    error_threshold: int = 3  #: faults on one channel before it degrades
    read_latency_multiplier: float = 2.0  #: degraded-channel read slowdown

    def __post_init__(self) -> None:
        if self.error_threshold < 1:
            raise ConfigError("error_threshold must be >= 1")
        if self.read_latency_multiplier < 1.0:
            raise ConfigError("read_latency_multiplier must be >= 1")


class FaultPlan:
    """An ordered set of :class:`FaultRule` with a seeded RNG.

    The device consults :meth:`check` once per I/O batch (and once per
    retry attempt).  The first armed, matching, non-exhausted rule that
    passes its probability roll fires; rules are independent otherwise.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: every batch the plan has inspected (fired or not); tests use
        #: this to pick uniform crash points over a whole run
        self.ops_seen = 0

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def check(
        self,
        is_read: bool,
        klass: str,
        channels: np.ndarray,
        now_us: float,
    ) -> Optional[FaultEvent]:
        """Return the firing rule's event for this batch, if any."""
        self.ops_seen += 1
        op = "read" if is_read else "write"
        for rule in self.rules:
            if rule.exhausted():
                continue
            if rule.op != "any" and rule.op != op:
                continue
            if rule.klass is not None and not fnmatch(klass, rule.klass):
                continue
            if rule.channel is not None and rule.channel not in channels:
                continue
            if now_us < rule.after_us:
                continue
            rule.matched += 1
            if rule.matched <= rule.after_ops:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fired += 1
            kind = rule.kind
            if kind == "torn" and is_read:
                kind = "crash"  # reads cannot tear
            pages_persisted = 0
            if kind == "torn":
                # A strict prefix of the batch survives the power cut.
                pages_persisted = int(self._rng.integers(0, max(1, channels.size)))
            channel = rule.channel if rule.channel is not None else int(channels[0])
            return FaultEvent(
                rule=rule,
                kind=kind,
                op=op,
                klass=klass,
                channel=channel,
                pages_persisted=pages_persisted,
            )
        return None

    # -- convenience constructors used by tests / the fuzzer -------------

    @classmethod
    def crash_after(cls, n_ops: int, *, seed: int = 0, klass: Optional[str] = None) -> "FaultPlan":
        """Power loss on the first matching batch after ``n_ops`` batches."""
        return cls([FaultRule(kind="crash", after_ops=n_ops, klass=klass)], seed=seed)

    @classmethod
    def torn_write_after(cls, n_ops: int, *, seed: int = 0, klass: Optional[str] = None) -> "FaultPlan":
        """Torn write (prefix persisted, then crash) after ``n_ops`` writes."""
        return cls([FaultRule(op="write", kind="torn", after_ops=n_ops, klass=klass)], seed=seed)

    @classmethod
    def read_error(
        cls,
        *,
        klass: Optional[str] = None,
        after_ops: int = 0,
        transient: bool = False,
        max_fires: int = 1,
        seed: int = 0,
    ) -> "FaultPlan":
        """A (possibly transient) read error on a matching batch."""
        return cls(
            [
                FaultRule(
                    op="read",
                    kind="error",
                    klass=klass,
                    after_ops=after_ops,
                    transient=transient,
                    max_fires=max_fires,
                )
            ],
            seed=seed,
        )
