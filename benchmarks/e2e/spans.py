"""Benchmark-owned span recorder: host time per layer, measured from outside.

The program under test carries no host-time instrumentation, so the
traced repetition wraps the public methods at each layer boundary *at
class level*, runs once, and restores the originals.  Spans stay in
memory (one tuple per call) and are written out when the benchmark ends;
end-to-end metrics never come from a repetition that ran with wrappers
installed.

A span is ``(id, name, t0, t1, parent, thread, rep)``.  ``parent`` is the
enclosing span on the same thread; a span with nothing open on its own
thread hangs off the *anchor* span (``engine.run``) when that is open on
another thread, which is how prefetch/worker-thread work is tied to the
repetition that caused it.  **Self time** is a span's duration minus its
same-thread children: worker-thread spans run concurrently with their
anchor and are never subtracted from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Tuple

#: ``(id, name, t0, t1, parent, thread, rep)``
Span = Tuple[int, str, float, float, int, int, int]


class SpanRecorder:
    """Collects spans from class-level method wrappers."""

    def __init__(self, anchor: str = "engine.run") -> None:
        self.spans: List[Span] = []
        #: call tallies from :meth:`count_calls` wrappers (no timing)
        self.calls: Counter = Counter()
        #: repetition tag stamped on every span; set by the caller
        self.rep = 0
        self.anchor = anchor
        self._anchor_open: Tuple[int, int] = (0, 0)  # (span id, thread)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: List[Tuple[type, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> Tuple[int, int, List[int]]:
        tls = self._tls
        try:
            stack = tls.stack
        except AttributeError:
            stack = tls.stack = []
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            anchor_id, anchor_thread = self._anchor_open
            parent = anchor_id if anchor_thread != threading.get_ident() else 0
        if name == self.anchor:
            self._anchor_open = (sid, threading.get_ident())
        stack.append(sid)
        return sid, parent, stack

    def _end(self, sid: int, name: str, t0: float, t1: float, parent: int, stack: List[int]) -> None:
        stack.pop()
        if name == self.anchor:
            self._anchor_open = (0, 0)
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), self.rep))

    # -- class-level wrappers ----------------------------------------------

    def _patch(self, owner: type, attr: str, make) -> None:
        # ``owner.__dict__`` (not getattr): the method must be defined on
        # this very class, so a renamed method fails loudly here instead
        # of silently wrapping an inherited one.
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, owner: type, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        begin, end, clock = self._begin, self._end, time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                sid, parent, stack = begin(name)
                t0 = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end(sid, name, t0, clock(), parent, stack)

            return wrapper

        self._patch(owner, attr, make)

    def wrap_iter(self, owner: type, attr: str, name: str) -> None:
        """Record a span around every ``next()`` of the iterator ``owner.attr`` returns.

        For a generator that blocks on another thread's future this is
        the time the consumer waited; work it runs inline shows up as
        child spans and is subtracted by the self-time rule.
        """
        begin, end, clock = self._begin, self._end, time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                it = iter(original(*args, **kwargs))
                while True:
                    sid, parent, stack = begin(name)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end(sid, name, t0, clock(), parent, stack)
                    yield item

            return wrapper

        self._patch(owner, attr, make)

    def count_calls(self, owner: type, attr: str, name: str) -> None:
        """Tally calls of ``owner.attr`` without timing them."""
        calls = self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, thread, rep in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "t0": t0, "t1": t1,
                         "parent": parent, "thread": thread, "rep": rep}
                    )
                    + "\n"
                )


def summarise(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds and self seconds."""
    spans = list(spans)
    thread_of = {s[0]: s[5] for s in spans}
    child_s: Dict[int, float] = defaultdict(float)
    for sid, _name, t0, t1, parent, thread, _rep in spans:
        if parent and thread_of.get(parent) == thread:
            child_s[parent] += t1 - t0
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, t0, t1, _parent, _thread, _rep in spans:
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_s.get(sid, 0.0)
    return out
