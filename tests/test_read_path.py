"""The group-wide read path against its per-interval reference.

The loader, the read-ahead predictor and the I/O plan's dispatch each
map a whole group's pages at once (DESIGN.md §6, §13).  The references
below keep the earlier, simpler shape -- one interval at a time, one
page run at a time, and a sort-based ``np.unique`` page mapping -- the
way ``test_stream_fold.py`` keeps ``ReferenceStore``.  Both paths must
agree bit for bit: every :class:`LoadReport` field, the ordered list of
``(file, pages)`` each read hands to the file layer and the plan, the
read-ahead queue, every :class:`PlanOutcome` field, the device's
charges (histograms and per-device times included), its stats
after every load and its overlay, the cache's state, and where an armed
fault plan fires.

Each hypothesis suite runs a tier-1 example budget; the full budget
runs under ``-m slow``.
"""

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryConfig, SimConfig, SSDConfig
from repro.core.edgelog import EdgeLogOptimizer
from repro.core.loader import GraphLoaderUnit, LoadReport
from repro.errors import InjectedFaultError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexIntervals
from repro.graph.storage import GraphOnSSD
from repro.io.plan import MIN_EXTENT_PAGES, WAVE_QUEUE_DEPTH, IOPlan, balance_order
from repro.io.planner import SuperstepIOPlanner
from repro.mem import MemoryBudget
from repro.ssd import DeviceArray, SimFS
from repro.ssd.device import SimulatedSSD
from repro.ssd.faults import FaultPlan
from repro.ssd.file import SimFileBase, pages_for_ranges

PAGE = 512
#: latencies with fractional parts, so a float sum taken in another
#: order than the reference's shows
SSD = SSDConfig(page_size=PAGE, channels=4, read_latency_us=61.7, batch_overhead_us=9.3)


# -- references --------------------------------------------------------------


def ref_pages_for_ranges(starts, stops, entries_per_page, entry_bytes):
    """The sort-based mapping: expand, then ``np.unique`` + ``bincount``."""
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    mask = stops > starts
    starts, stops = starts[mask], stops[mask]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    epp = int(entries_per_page)
    first = starts // epp
    counts = (stops - 1) // epp - first + 1
    cum = np.cumsum(counts)
    page_ids = np.repeat(first, counts) + (
        np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(cum - counts, counts)
    )
    page_lo = page_ids * epp
    overlap = np.minimum(np.repeat(stops, counts), page_lo + epp) - np.maximum(
        np.repeat(starts, counts), page_lo
    )
    uniq, inverse = np.unique(page_ids, return_inverse=True)
    useful = np.bincount(inverse, weights=overlap.astype(np.float64)).astype(np.int64)
    return uniq, useful * entry_bytes


def ref_read_ranges(file, starts, stops, plan):
    pages, useful = ref_pages_for_ranges(starts, stops, file.entries_per_page, file.entry_bytes)
    file._charge_read(pages, plan=plan)
    return pages, useful


def ref_load_active(loader, active, need_weights, use_edge_state, edgelog=None, plan=None):
    """``GraphLoaderUnit.load_active``, one interval at a time."""
    storage = loader.storage
    active = np.asarray(active, dtype=np.int64)
    report = LoadReport()
    report.colidx_useful = []
    ineff_flags = np.zeros(active.shape[0], dtype=bool)
    hit_all_mask = np.zeros(active.shape[0], dtype=bool)
    if active.size == 0:
        report.vertex_page_inefficient = ineff_flags
        return report
    cut = np.searchsorted(active, storage.intervals.boundaries)
    for i in range(storage.n_intervals):
        s, e = cut[i], cut[i + 1]
        if s == e:
            continue
        v = active[s:e]
        files = storage.interval_files(i)
        local, starts, stops = storage.local_ranges(i, v)
        pages, _ = ref_read_ranges(files.rowptr, local, local + 2, plan)
        report.rowptr_pages += int(pages.shape[0])
        hypo_pages, hypo_useful = ref_pages_for_ranges(
            starts, stops, files.colidx.entries_per_page, files.colidx.entry_bytes
        )
        report.hypo_pages += int(hypo_pages.shape[0])
        hypo_ineff = (hypo_useful > 0) & (hypo_useful / loader._page_size < loader._threshold)
        nonempty = stops > starts
        first_page = np.where(nonempty, starts // files.colidx.entries_per_page, 0)
        where = {int(p): j for j, p in enumerate(hypo_pages)}
        for j in np.flatnonzero(nonempty):
            ineff_flags[s + j] = hypo_ineff[where[int(first_page[j])]]
        hit = edgelog.contains_many(v) if edgelog is not None else np.zeros(v.shape[0], dtype=bool)
        hit_all_mask[s:e] = hit
        miss = ~hit
        report.edgelog_hits += int(hit.sum())
        pages, useful = ref_read_ranges(files.colidx, starts[miss], stops[miss], plan)
        report.colidx_pages += int(pages.shape[0])
        report.colidx_useful.append(useful)
        if (need_weights or use_edge_state) and files.values is not None:
            vpages, _ = ref_read_ranges(files.values, starts[miss], stops[miss], plan)
            report.val_pages += int(vpages.shape[0])
        in_read = np.isin(hypo_pages, pages)
        report.avoided_inefficient += int((hypo_ineff & ~in_read).sum())
    if edgelog is not None and hit_all_mask.any():
        report.edgelog_pages = edgelog.charge_read(active[hit_all_mask], plan=plan)
    report.vertex_page_inefficient = ineff_flags
    return report


def ref_collect_readahead(planner, plan, storage, edgelog, active_ids, next_lo, next_hi, need_vals):
    """``SuperstepIOPlanner.collect_readahead``, one interval at a time."""
    if not planner.readahead_enabled:
        return
    verts = active_ids[
        np.searchsorted(active_ids, next_lo) : np.searchsorted(active_ids, next_hi)
    ]
    if verts.size == 0:
        return
    budget = planner.readahead_budget
    cache = planner.cache

    def queue(file, page_ids):
        nonlocal budget
        if budget <= 0 or page_ids.size == 0:
            return
        fresh = page_ids[[(file.name, int(p)) not in cache for p in page_ids]][:budget]
        if fresh.size:
            plan.add_readahead(file, fresh)
            budget -= int(fresh.size)

    def pages(file, starts, stops):
        return ref_pages_for_ranges(starts, stops, file.entries_per_page, file.entry_bytes)[0]

    cut = np.searchsorted(verts, storage.intervals.boundaries)
    hit_verts = []
    for i in range(storage.n_intervals):
        s, e = cut[i], cut[i + 1]
        if s == e:
            continue
        v = verts[s:e]
        files = storage.interval_files(i)
        local, starts, stops = storage.local_ranges(i, v)
        queue(files.rowptr, pages(files.rowptr, local, local + 2))
        if edgelog is not None:
            hit = edgelog.contains_many(v)
            if hit.any():
                hit_verts.append(v[hit])
            starts, stops = starts[~hit], stops[~hit]
        queue(files.colidx, pages(files.colidx, starts, stops))
        if need_vals and files.values is not None:
            queue(files.values, pages(files.values, starts, stops))
        if budget <= 0:
            break
    if edgelog is not None and hit_verts and budget > 0 and edgelog._file_cur is not None:
        queue(edgelog._file_cur, edgelog.pages_of(np.concatenate(hit_verts)))


def ref_batch_time(device, counts):
    """The device's batch-time formula for one channel histogram."""
    lat = device.config.ssd.read_latency_us
    if device._any_degraded:
        weighted = counts.astype(np.float64)
        weighted[device._degraded_mask] *= device.degradation.read_latency_multiplier
        return float(device.config.ssd.batch_overhead_us + weighted.max() * lat)
    return float(device.config.ssd.batch_overhead_us + counts.max() * lat)


def ref_read_plan(device, klass, extents, scattered, extent_devices=None, scattered_devices=None):
    """``SimulatedSSD.read_plan`` with per-extent loops: ``extents`` is a
    list of ``(start_channel, n_pages)`` and ``extent_devices`` a list
    of per-extent device vectors (or None)."""
    c = device.channels
    scattered = np.asarray(scattered, dtype=np.int64)
    counts = np.bincount(scattered, minlength=c).astype(np.int64)
    expanded = [scattered] + [(np.arange(n, dtype=np.int64) + start) % c for start, n in extents]
    for ch in expanded[1:]:
        counts += np.bincount(ch, minlength=c)
    pages = int(counts.sum())
    if pages == 0:
        return 0.0
    expanded_devices = None
    if extent_devices is not None or scattered_devices is not None:
        parts = [
            scattered_devices if scattered_devices is not None
            else np.zeros(scattered.size, dtype=np.int64)
        ]
        for i, (_, n) in enumerate(extents):
            dv = extent_devices[i] if extent_devices is not None else None
            parts.append(np.zeros(n, dtype=np.int64) if dv is None else np.asarray(dv, np.int64))
        expanded_devices = np.concatenate(parts)
    if device.fault_plan is not None:
        device._fault_check(True, klass, np.concatenate(expanded), devices=expanded_devices)
    t = ref_batch_time(device, counts)
    dev_times = None
    if device.num_devices > 1:
        per = np.zeros((device.num_devices, c), dtype=np.int64)
        for ch, dv in zip(expanded, np.split(
            expanded_devices if expanded_devices is not None
            else np.zeros(pages, dtype=np.int64),
            np.cumsum([a.size for a in expanded])[:-1],
        )):
            np.add.at(per, (dv, ch), 1)
        dev_times = np.zeros(device.num_devices, dtype=np.float64)
        for d in range(device.num_devices):
            if per[d].any():
                dev_times[d] = ref_batch_time(device, per[d])
    device._charge(True, klass, pages, pages * device.page_size, t, counts, dev_times)
    return t


class RefIOPlan(IOPlan):
    """``IOPlan`` whose dispatch walks every page run in Python."""

    def _dispatch(self, demand, outcome):
        device = self.device
        c = device.channels
        by_klass = {}
        for klass, offset, ids, devs in demand:
            extents, extent_devs, scattered, scattered_devs = by_klass.setdefault(
                klass, ([], [], [], [])
            )
            outcome.batches_folded += 1
            outcome.baseline_time_us += ref_batch_time(
                device, np.bincount((ids + offset) % c, minlength=c)
            )
            breaks = np.flatnonzero(np.diff(ids) != 1)
            starts = np.concatenate(([0], breaks + 1))
            stops = np.concatenate((breaks + 1, [ids.size]))
            singles = []
            for a, b in zip(starts, stops):
                if b - a >= MIN_EXTENT_PAGES:
                    extents.append((int((ids[a] + offset) % c), int(b - a)))
                    extent_devs.append(None if devs is None else devs[a:b])
                    outcome.extents += 1
                    outcome.extent_pages += int(b - a)
                else:
                    singles.append(int(a))
            if singles:
                sel = np.asarray(singles, dtype=np.int64)
                scattered.append((ids[sel] + offset) % c)
                scattered_devs.append(None if devs is None else devs[sel])
        times = []
        wave_cap = c * WAVE_QUEUE_DEPTH
        for klass in sorted(by_klass):
            extents, extent_devs, scattered, scattered_devs = by_klass[klass]
            ch = np.concatenate(scattered) if scattered else np.empty(0, dtype=np.int64)
            perm = balance_order(ch)
            ch = ch[perm]
            dv = None
            if scattered and scattered_devs[0] is not None:
                dv = np.concatenate(scattered_devs)[perm]
            if not any(d is not None for d in extent_devs):
                extent_devs = None
            outcome.scattered_pages += int(ch.size)
            t = ref_read_plan(
                device, klass, extents, ch[:wave_cap], extent_devs,
                None if dv is None else dv[:wave_cap],
            )
            outcome.waves += 1
            for at in range(wave_cap, ch.size, wave_cap):
                t += ref_read_plan(
                    device, klass, [], ch[at : at + wave_cap], None,
                    None if dv is None else dv[at : at + wave_cap],
                )
                outcome.waves += 1
            times.append(t)
        return sum(times)


# -- comparison helpers ------------------------------------------------------


@contextmanager
def recording():
    """Log every ``(file, pages)`` handed to the file layer or a plan."""
    log = []
    charge, add = SimFileBase._charge_read, IOPlan.add

    def rec_charge(self, page_ids, klass=None, plan=None):
        log.append(("charge", self.name, np.asarray(page_ids).tolist(), plan is not None))
        return charge(self, page_ids, klass, plan)

    def rec_add(self, file, page_ids, klass=None):
        log.append(("add", file.name, np.asarray(page_ids).tolist()))
        return add(self, file, page_ids, klass)

    SimFileBase._charge_read, IOPlan.add = rec_charge, rec_add
    try:
        yield log
    finally:
        SimFileBase._charge_read, IOPlan.add = charge, add


@contextmanager
def charges_made():
    """Log every charge the device records, with all its arguments."""
    charges = []
    charge = SimulatedSSD._charge

    def spy(self, is_read, klass, pages, nbytes, t, channel_pages=None, dev_times=None):
        charges.append((is_read, klass, pages, nbytes, t, channel_pages, dev_times))
        return charge(self, is_read, klass, pages, nbytes, t, channel_pages, dev_times)

    SimulatedSSD._charge = spy
    try:
        yield charges
    finally:
        SimulatedSSD._charge = charge


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_same_report(got, want):
    for f in dataclasses.fields(LoadReport):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.name == "colidx_useful":
            w = np.concatenate(w) if w else np.empty(0, dtype=np.int64)
            assert g.dtype == np.int64 and np.array_equal(g, w)
        elif f.name == "vertex_page_inefficient":
            assert g.dtype == bool and np.array_equal(g, w)
        else:
            assert g == w, f.name


def assert_same_outcome(got, want):
    for f in dataclasses.fields(got):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert same_float(g, w) if isinstance(g, float) else g == w, f.name
    assert same_float(got.saved_us, want.saved_us)


def assert_same_charges(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
            elif isinstance(x, float):
                assert same_float(x, y)
            else:
                assert x == y


def assert_same_device(a, b):
    assert a.stats.to_dict() == b.stats.to_dict()
    if isinstance(a, DeviceArray):
        assert a.overlay_state() == b.overlay_state()


def cache_state(cache):
    if cache is None:
        return None
    return (cache.snapshot(), list(cache._keys), list(cache._ref), list(cache._pins), cache._hand)


# -- pages_for_ranges --------------------------------------------------------


@st.composite
def range_sets(draw):
    epp = draw(st.sampled_from([1, 3, 8, 64]))
    n = draw(st.integers(0, 40))
    starts = draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["sorted", "rowptr", "unsorted"]))
    if kind == "rowptr":
        starts = sorted(set(starts))
        stops = [s + 2 for s in starts]
    else:
        lengths = draw(st.lists(st.integers(-2, 3 * epp), min_size=n, max_size=n))
        if kind == "sorted":
            starts = sorted(starts)
        stops = [s + d for s, d in zip(starts, lengths)]
    return np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64), epp


def check_pages_for_ranges(case):
    starts, stops, epp = case
    got = pages_for_ranges(starts, stops, epp, 4)
    want = ref_pages_for_ranges(starts, stops, epp, 4)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)


@given(range_sets())
@settings(max_examples=30, deadline=None)
def test_pages_for_ranges_matches_unique_reference(case):
    check_pages_for_ranges(case)


@pytest.mark.slow
@given(range_sets())
@settings(max_examples=400, deadline=None)
def test_pages_for_ranges_matches_unique_reference_full_budget(case):
    check_pages_for_ranges(case)


# -- loader and read-ahead ---------------------------------------------------


@st.composite
def load_cases(draw):
    n = draw(st.sampled_from([1, 6, 60, 250, 700])) + draw(st.integers(0, 9))
    k = draw(st.integers(1, min(6, n)))
    cuts = []
    if n > 1:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    return dict(
        n=n,
        boundaries=[0] + cuts + [n],
        seed=draw(st.integers(0, 2**16)),
        p_empty=draw(st.sampled_from([0.0, 0.4, 0.9])),
        max_degree=draw(st.sampled_from([2, 12, 300])),
        empty_interval=draw(st.integers(-1, k - 1)),
        weighted=draw(st.booleans()),
        logged=draw(st.sampled_from([0.0, 0.3, 0.9])),  # share of vertices edge-logged
        plan=draw(st.booleans()),
        cache_pages=draw(st.sampled_from([0, 3, 16, 256])),
        devices=draw(st.sampled_from([1, 4])),
        readahead_pages=draw(st.sampled_from([1, 7, 64])),
        loads=draw(st.lists(
            st.tuples(st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.booleans(), st.booleans()),
            min_size=1, max_size=3,
        )),
    )


def build_world(case):
    cfg = SimConfig(ssd=SSD, memory=MemoryConfig(total_bytes=256 * 1024))
    cfg = cfg.with_workers(1).with_io_plan("off").with_devices(case["devices"], "stripe")
    if case["cache_pages"]:
        cfg = cfg.with_cache("clock", case["cache_pages"] * PAGE)
    n, b = case["n"], case["boundaries"]
    rng = np.random.default_rng(case["seed"])
    deg = rng.integers(0, case["max_degree"] + 1, n)
    deg[rng.random(n) < case["p_empty"]] = 0
    if case["empty_interval"] >= 0:
        deg[b[case["empty_interval"]] : b[case["empty_interval"] + 1]] = 0
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst = rng.integers(0, n, src.size)
    w = rng.random(src.size) if case["weighted"] else None
    graph = CSRGraph.from_edges(n, src, dst, weights=w)
    fs = SimFS(cfg)
    storage = GraphOnSSD(graph, VertexIntervals(np.array(b, dtype=np.int64)), fs, cfg)
    edgelog = None
    if case["logged"]:
        edgelog = EdgeLogOptimizer(fs, n, cfg, MemoryBudget.resolve(cfg, storage.n_intervals))
        logged = np.flatnonzero((rng.random(n) < case["logged"]) & (graph.out_degrees > 0))
        edgelog.consider(logged, graph.out_degrees[logged])
        edgelog.end_superstep()
    planner = SuperstepIOPlanner(
        fs.device, fs.cache, "coalesce+readahead", case["readahead_pages"]
    )
    return fs, storage, GraphLoaderUnit(storage, cfg), edgelog, planner, rng


def run_loads(case, reference):
    fs, storage, loader, edgelog, planner, rng = build_world(case)
    steps = []
    for density, need_w, use_es in case["loads"]:
        active = np.flatnonzero(rng.random(storage.n) < density)
        # Read-ahead predicts a later group: another vertex set and span.
        predicted = np.flatnonzero(rng.random(storage.n) < density)
        nxt = rng.integers(0, storage.n_intervals, 2)
        lo = storage.intervals.span(int(nxt.min()))[0]
        hi = storage.intervals.span(int(nxt.max()))[1]
        plan = (RefIOPlan if reference else IOPlan)(fs.device) if case["plan"] else None
        with recording() as log:
            if reference:
                report = ref_load_active(loader, active, need_w, use_es, edgelog, plan)
            else:
                report = loader.load_active(active, need_w, use_es, edgelog, plan=plan)
            if plan is not None and reference:
                ref_collect_readahead(
                    planner, plan, storage, edgelog, predicted, lo, hi, need_w or use_es
                )
            elif plan is not None:
                planner.collect_readahead(
                    plan, storage, edgelog, predicted, lo, hi, need_w or use_es
                )
        queue = [] if plan is None else [(f.name, ids.tolist()) for f, ids in plan._readahead]
        outcome = plan.execute() if plan is not None else None
        stats = fs.device.stats.to_dict()
        steps.append((report, log, queue, outcome, cache_state(fs.cache), stats))
    return steps, fs.device


def check_loads(case):
    got, dev = run_loads(case, reference=False)
    want, ref_dev = run_loads(case, reference=True)
    for (g_rep, g_log, g_q, g_out, g_cache, g_stats), (
        w_rep, w_log, w_q, w_out, w_cache, w_stats
    ) in zip(got, want):
        assert_same_report(g_rep, w_rep)
        assert g_log == w_log
        assert g_q == w_q
        if w_out is not None:
            assert_same_outcome(g_out, w_out)
        assert g_cache == w_cache
        assert g_stats == w_stats
    assert_same_device(dev, ref_dev)


@given(load_cases())
@settings(max_examples=25, deadline=None)
def test_group_load_and_readahead_match_per_interval_reference(case):
    check_loads(case)


@pytest.mark.slow
@given(load_cases())
@settings(max_examples=300, deadline=None)
def test_group_load_and_readahead_match_per_interval_reference_full_budget(case):
    check_loads(case)


# -- plan dispatch -----------------------------------------------------------


KLASSES = ("csr_col", "csr_row", "edgelog", "mlog")


@st.composite
def dispatch_cases(draw):
    devices = draw(st.sampled_from([1, 4]))
    page_lists = st.tuples(
        st.sampled_from([1, 3, 40, 300]),  # pages drawn
        st.sampled_from([2, 60, 1500]),  # out of this many (dense -> long runs)
    )
    fault = st.tuples(
        st.integers(0, 4),  # fire on this read batch
        st.sampled_from([None] + list(range(devices))),  # device scope
    )
    return dict(
        seed=draw(st.integers(0, 2**16)),
        devices=devices,
        placement=draw(st.sampled_from(["stripe", "affinity"])),
        degraded=draw(st.sampled_from([None, 0, 3])),
        entries=draw(st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(KLASSES), page_lists),
            min_size=1, max_size=10,
        )),
        readahead=draw(st.lists(st.tuples(st.integers(0, 5), page_lists), max_size=3)),
        fault=draw(st.one_of(st.none(), fault)),
    )


def draw_pages(rng, spec):
    if isinstance(spec, list):
        return np.array(spec, dtype=np.int64)
    size, span = spec
    return np.sort(rng.choice(span, min(size, span), replace=False)).astype(np.int64)


def run_dispatch(case, plan_cls):
    cfg = SimConfig(ssd=SSD).with_workers(1).with_devices(
        case["devices"], case["placement"]
    )
    fs = SimFS(cfg)
    files = [
        fs.create_array_file(
            f"f{j}", "csr_col", np.zeros(64 * 1500), 8, affinity=j if j % 2 else None
        )
        for j in range(6)
    ]
    dev = fs.device
    if case["degraded"] is not None:
        for _ in range(dev.degradation.error_threshold):
            dev._note_channel_fault(case["degraded"])
    if case["fault"] is not None:
        after, scope = case["fault"]
        dev.install_faults(FaultPlan.read_error(after_ops=after), device=scope)
    plan = plan_cls(dev)
    rng = np.random.default_rng(case["seed"])
    for j, klass, spec in case["entries"]:
        plan.add(files[j], draw_pages(rng, spec), klass)
    for j, spec in case["readahead"]:
        plan.add_readahead(files[j], draw_pages(rng, spec))
    error = outcome = None
    with charges_made() as charges:
        try:
            outcome = plan.execute()
        except InjectedFaultError as e:
            error = (e.op, e.klass, e.channel, str(e))
    ops_seen = dev.fault_plan.ops_seen if dev.fault_plan is not None else None
    return outcome, error, charges, dev, ops_seen


def check_dispatch(case):
    got, got_err, got_q, dev, got_ops = run_dispatch(case, IOPlan)
    want, want_err, want_q, ref_dev, want_ops = run_dispatch(case, RefIOPlan)
    assert got_err == want_err and got_ops == want_ops
    if want is not None:
        assert_same_outcome(got, want)
    assert_same_charges(got_q, want_q)
    assert_same_device(dev, ref_dev)


@given(dispatch_cases())
@settings(max_examples=30, deadline=None)
def test_dispatch_matches_per_run_reference(case):
    check_dispatch(case)


@pytest.mark.slow
@given(dispatch_cases())
@settings(max_examples=400, deadline=None)
def test_dispatch_matches_per_run_reference_full_budget(case):
    check_dispatch(case)


def test_fault_fires_on_the_same_extent_page():
    """A device-scoped fault sees the scattered pages first, then extents."""
    case = dict(
        seed=0, devices=4, placement="stripe", degraded=3,
        entries=[(0, "csr_col", (40, 60)), (1, "csr_col", (3, 1500))],
        readahead=[], fault=(0, 2),
    )
    check_dispatch(case)
    assert run_dispatch(case, IOPlan)[1] is not None


def test_runs_never_span_demand_entries():
    """Pages 3-4 and 5-6 of one file are two demand entries: two extents."""
    case = dict(
        seed=0, devices=1, placement="stripe", degraded=None,
        entries=[(0, "csr_col", [3, 4]), (0, "csr_col", [5, 6]), (0, "csr_col", [7])],
        readahead=[], fault=None,
    )
    check_dispatch(case)
    outcome = run_dispatch(case, IOPlan)[0]
    assert (outcome.extents, outcome.extent_pages, outcome.scattered_pages) == (2, 4, 1)


def test_read_batch_times_prices_each_batch_like_read_batch_time():
    dev = SimFS(SimConfig(ssd=SSD)).device
    ch = np.array([1, 1, 2, 0, 3, 3, 3], dtype=np.int64)
    batch = np.array([0, 0, 0, 2, 2, 2, 2], dtype=np.int64)
    got = dev.read_batch_times(ch, batch, 3)
    want = [dev.read_batch_time(ch[batch == b]) for b in range(3)]
    assert got.tolist() == want and want[1] == 0.0


def test_unattributed_plan_read_bills_device_zero():
    dev = SimFS(SimConfig(ssd=SSD).with_devices(4)).device
    t = dev.read_extent(1, 9, "csr_col")
    assert dev.device_busy_us.tolist() == [t, 0.0, 0.0, 0.0]


def test_group_mapping_follows_replace_interval():
    """A structural merge resizes one interval's files; the page bases and
    the concatenated row pointers must follow."""
    case = dict(
        n=200, boundaries=[0, 50, 120, 200], seed=1, p_empty=0.2, max_degree=30,
        empty_interval=-1, weighted=True, logged=0.0, plan=False, cache_pages=0,
        devices=1, readahead_pages=1, loads=[],
    )
    _, storage, *_ = build_world(case)
    rng = np.random.default_rng(0)
    degrees = rng.integers(0, 90, storage.interval_files(1).n_vertices)
    rowptr = np.concatenate([[0], np.cumsum(degrees)])
    m = int(rowptr[-1])
    storage.replace_interval(1, rowptr, rng.integers(0, 200, m).astype(np.int32), rng.random(m))
    v = np.flatnonzero(rng.random(storage.n) < 0.5)
    r = storage.group_ranges(v)
    iv = r.interval
    local = r.local(iv)
    got = {
        "rowptr": storage.group_pages("rowptr", iv, local, local + 2),
        "colidx": storage.group_pages("colidx", iv, r.starts, r.stops),
        "values": storage.group_pages("values", iv, r.starts, r.stops),
    }
    for i, s, e in r.spans():
        loc, starts, stops = storage.local_ranges(i, v[s:e])
        assert np.array_equal(r.starts[s:e], starts) and np.array_equal(r.stops[s:e], stops)
        files = storage.interval_files(i)
        for kind, lo, hi in (
            ("rowptr", loc, loc + 2), ("colidx", starts, stops), ("values", starts, stops)
        ):
            f = getattr(files, kind)
            pages, useful = ref_pages_for_ranges(lo, hi, f.entries_per_page, f.entry_bytes)
            g = got[kind]
            assert np.array_equal(g.of(i), pages)
            assert np.array_equal(g.useful[g.cut[i] : g.cut[i + 1]], useful)
