"""Every write op of the stream store's ingest and merge, cut and torn.

A dry run on a copy of the store counts the device write ops of each
phase of each batch: the ingest, and the merge with the compactions it
triggers.  The sweep then cuts power at every one of those ops, and
separately tears every one, on four intervals with one and with three
records per log page and a compaction threshold of 0.05 (so most merges
compact).  After each :meth:`StreamStore.recover`:

* every ingested record is merged or pending: ``merged + pending ==
  records_ingested``, pending being the records of the batches past
  ``last_applied`` up to ``last_ingested``;
* a batch that did not reach its commit point is re-submitted (what a
  client with an unacknowledged batch does), the merge is re-run and
  the rest of the sequence played; the materialised graph must then
  equal the uninterrupted store's, and every record be merged.
"""

import copy

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import SimulatedCrashError
from repro.graph.datasets import small_rmat
from repro.graph.partition import VertexIntervals
from repro.ssd import FaultPlan, FaultRule
from repro.ssd.filesystem import SimFS
from repro.stream import StreamStore, random_delta

CFG = DEFAULT_CONFIG.with_stream(compact_threshold=0.05)
INTERVALS = VertexIntervals(np.array([0, 4, 8, 12, 16]))
N_BATCHES = 4
PHASES = ("ingest", "apply")


def fresh(records_per_page):
    graph = small_rmat(n=16, m=64, seed=8, weighted=True)
    store = StreamStore(graph, SimFS(CFG), CFG, intervals=INTERVALS)
    store.records_per_page = records_per_page
    return store


def run_phase(store, phase, delta):
    return store.ingest(delta) if phase == "ingest" else store.apply_updates()


def merged(store):
    return store.inserts_applied + store.deletes_applied + store.noop_deletes


def reference(records_per_page):
    """The batches (each drawn against the graph the ones before it
    left) and the uninterrupted store that played them."""
    ref = fresh(records_per_page)
    deltas = []
    for b in range(N_BATCHES):
        s, t = ref.live_edge_arrays()
        rng = np.random.default_rng([38, b])
        deltas.append(random_delta(rng, ref.n, s, t, 12, p_delete=0.4, weighted=True, ts0=100 * b))
        ref.ingest(deltas[-1])
        ref.apply_updates()
    return deltas, ref


def write_ops(store, phase, delta):
    """Device write ops of ``phase`` on a copy of ``store``."""
    dry = copy.deepcopy(store)
    counter = FaultRule(op="write", kind="crash", after_ops=1 << 62)
    dry.fs.device.fault_plan = FaultPlan([counter])
    run_phase(dry, phase, delta)
    return counter.matched


def crash_points(records_per_page, deltas):
    """``(batch, phase, op)`` for every write op of the sequence."""
    store = fresh(records_per_page)
    points = []
    for b, delta in enumerate(deltas):
        for phase in PHASES:
            points += [(b, phase, op) for op in range(write_ops(store, phase, delta))]
            run_phase(store, phase, delta)
    return points


def crashed_run(records_per_page, deltas, point, kind):
    b, phase, op = point
    store = fresh(records_per_page)
    for delta in deltas[:b]:
        store.ingest(delta)
        store.apply_updates()
    if phase == "apply":
        store.ingest(deltas[b])
    store.fs.device.fault_plan = FaultPlan([FaultRule(op="write", kind=kind, after_ops=op)], seed=op)
    with pytest.raises(SimulatedCrashError):
        run_phase(store, phase, deltas[b])
    store.fs.device.fault_plan = None
    store.recover()
    pending = sum(deltas[s - 1].n for s in range(store.last_applied + 1, store.last_ingested + 1))
    assert merged(store) + pending == store.records_ingested, (point, kind)
    if store.last_ingested < b + 1:
        store.ingest(deltas[b])
    store.apply_updates()
    for delta in deltas[b + 1 :]:
        store.ingest(delta)
        store.apply_updates()
    return store


def assert_same_graph(a, b, why):
    assert a.rowptr.tolist() == b.rowptr.tolist(), why
    assert a.colidx.tolist() == b.colidx.tolist(), why
    assert a.weights.tolist() == b.weights.tolist(), why


@pytest.mark.parametrize("kind", ["crash", "torn"])
@pytest.mark.parametrize("records_per_page", [1, 3])
def test_every_write_op_of_ingest_and_merge(records_per_page, kind):
    deltas, ref = reference(records_per_page)
    want = ref.materialize()
    points = crash_points(records_per_page, deltas)
    # the sweep reaches both phases, compaction writes included
    assert ref.compactions > 0
    assert {phase for _, phase, _ in points} == set(PHASES)
    for point in points:
        store = crashed_run(records_per_page, deltas, point, kind)
        assert_same_graph(store.materialize(), want, (point, kind))
        assert merged(store) == store.records_ingested, (point, kind)
        assert store.last_ingested == store.last_applied == N_BATCHES, (point, kind)
