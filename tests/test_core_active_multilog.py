"""Active tracker transitions and the Multi-Log Update Unit."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_test_config
from repro.core.active import ActiveTracker
from repro.core.multilog import MultiLogUnit
from repro.core.update import UPDATE_DTYPES, UPDATE_FIELDS, UpdateBatch
from repro.errors import ProgramError
from repro.graph.partition import VertexIntervals
from repro.mem import MemoryBudget, RecordPageBuffer
from repro.ssd import SimFS


class TestActiveTracker:
    def test_seed(self):
        t = ActiveTracker(10)
        t.seed(np.array([1, 3]))
        assert set(t.current_ids.tolist()) == {1, 3}
        assert t.n_current == 2

    def test_message_receipt_activates_next(self):
        t = ActiveTracker(10)
        t.note_message(5)
        t.advance()
        assert 5 in t.current_ids

    def test_self_active_carries_over(self):
        t = ActiveTracker(10)
        t.note_self_active(2)
        t.advance()
        assert 2 in t.current_ids

    def test_deactivated_vertex_drops(self):
        t = ActiveTracker(10)
        t.seed(np.array([4]))
        t.advance()  # processed, deactivated, no messages
        assert t.n_current == 0

    def test_known_active_next(self):
        t = ActiveTracker(10)
        t.note_message(1)
        t.note_self_active(2)
        assert t.predict_active_next_many(np.array([1, 2, 3])).tolist() == [True, True, False]

    def test_prediction_uses_history_not_current(self):
        t = ActiveTracker(10, history_window=1)
        t.seed(np.array([7]))
        # During superstep 0: vertex 7 is current but history is empty.
        assert not t.predict_active_next_many(np.array([7]))[0]
        t.advance()
        # Now 7 is in the history window.
        assert t.predict_active_next_many(np.array([7]))[0]

    def test_history_window_expires(self):
        t = ActiveTracker(10, history_window=1)
        t.seed(np.array([7]))
        t.advance()
        t.advance()
        assert not t.predict_active_next_many(np.array([7]))[0]

    def test_longer_history_window(self):
        t = ActiveTracker(10, history_window=2)
        t.seed(np.array([7]))
        t.advance()
        t.advance()
        assert t.predict_active_next_many(np.array([7]))[0]

    def test_history_mask(self):
        t = ActiveTracker(10)
        t.seed(np.array([3]))
        t.advance()
        assert t.history_mask()[3]


@pytest.fixture
def intervals():
    return VertexIntervals(np.array([0, 10, 20, 40]))


@pytest.fixture
def mlog(cfg, intervals):
    fs = SimFS(cfg)
    budget = MemoryBudget.resolve(cfg, intervals.n_intervals)
    return MultiLogUnit(fs, intervals, cfg, budget, "m")


class TestMultiLogUnit:
    def test_send_routes_to_destination_interval(self, mlog):
        mlog.ingest(UpdateBatch.of([5, 15, 35], [0, 0, 0], [1.0, 2.0, 3.0]))
        assert mlog.message_count(0) == 1
        assert mlog.message_count(1) == 1
        assert mlog.message_count(2) == 1
        assert mlog.total_messages == 3

    def test_send_out_of_range(self, mlog):
        with pytest.raises(ProgramError, match=r"\[0, 40\)"):
            mlog.ingest(UpdateBatch.of([40], [0], [1.0]))
        with pytest.raises(ProgramError, match=r"\[0, 40\)"):
            mlog.ingest(UpdateBatch.of([5, -1], [0, 0], [1.0, 1.0]))

    def test_consume_roundtrip_multiset(self, mlog):
        sent = [(5, 1, 1.0), (7, 2, 2.0), (5, 3, 3.0), (15, 4, 4.0)]
        mlog.ingest(UpdateBatch.of(*zip(*sent)))
        batch = mlog.consume([0, 1])
        got = sorted(zip(batch.dest.tolist(), batch.src.tolist(), batch.data.tolist()))
        assert got == sorted(sent)
        assert mlog.total_messages == 0

    def test_consume_only_requested_intervals(self, mlog):
        mlog.ingest(UpdateBatch.of([5, 25], [0, 0], [1.0, 2.0]))
        batch = mlog.consume([0])
        assert batch.n == 1
        assert mlog.message_count(2) == 1

    def test_send_many_vectorised(self, mlog):
        dests = np.array([1, 11, 21, 2, 12])
        mlog.ingest(UpdateBatch.of(dests, np.full(5, 9), np.arange(5.0)))
        assert mlog.total_messages == 5
        batch = mlog.consume([0, 1, 2])
        assert sorted(batch.dest.tolist()) == [1, 2, 11, 12, 21]
        assert (batch.src == 9).all()

    def test_send_many_validation(self, mlog):
        # One bad destination rejects the whole batch before anything lands.
        dests = np.array([1, 100, 2])
        with pytest.raises(ProgramError):
            mlog.ingest(UpdateBatch.of(dests, np.zeros(3), np.ones(3)))
        assert mlog.appended == 0 and mlog.pages_buffered == 0

    def test_ingest(self, mlog):
        mlog.ingest(UpdateBatch.of([5, 15], [0, 0], [1.0, 2.0]))
        assert mlog.total_messages == 2
        assert mlog.appended == 2

    def test_appended_is_monotonic(self, mlog):
        mlog.ingest(UpdateBatch.of([1], [0], [1.0]))
        mlog.consume([0])
        mlog.ingest(UpdateBatch.of([2], [0], [1.0]))
        assert mlog.appended == 2

    def test_estimated_bytes(self, mlog, cfg):
        mlog.ingest(UpdateBatch.of([5], [0], [1.0]))
        assert mlog.estimated_bytes(0) == cfg.records.update_bytes

    def test_tracker_notification(self, cfg, intervals):
        from repro.core.active import ActiveTracker

        fs = SimFS(cfg)
        budget = MemoryBudget.resolve(cfg, 3)
        tracker = ActiveTracker(40)
        m = MultiLogUnit(fs, intervals, cfg, budget, "m", tracker=tracker)
        m.ingest(UpdateBatch.of([33], [0], [1.0]))
        assert tracker.next_from_messages[33]

    def test_eviction_under_pressure(self, tight_cfg, intervals):
        fs = SimFS(tight_cfg)
        budget = MemoryBudget.resolve(tight_cfg, 3)
        m = MultiLogUnit(fs, intervals, tight_cfg, budget, "m")
        n = budget.multilog_pages * tight_cfg.updates_per_page * 2
        rng = np.random.default_rng(0)
        dests = rng.integers(0, 40, n)
        m.ingest(UpdateBatch.of(dests, np.zeros(n), np.zeros(n)))
        # Buffer never exceeds its capacity...
        assert m.pages_buffered <= budget.multilog_pages
        # ...pages were spilled to flash...
        assert fs.stats.pages_written > 0
        # ...and nothing was lost.
        batch = m.consume([0, 1, 2])
        assert batch.n == n
        got = np.sort(batch.dest)
        assert np.array_equal(got, np.sort(dests))

    def test_write_amplification_bounded(self, tight_cfg, intervals):
        """Spilled pages must be mostly full (no thrash of tiny pages)."""
        fs = SimFS(tight_cfg)
        budget = MemoryBudget.resolve(tight_cfg, 3)
        m = MultiLogUnit(fs, intervals, tight_cfg, budget, "m")
        n = budget.multilog_pages * tight_cfg.updates_per_page * 4
        dests = np.arange(n) % 40
        m.ingest(UpdateBatch.of(dests, np.zeros(n), np.zeros(n)))
        data_pages = -(-n // tight_cfg.updates_per_page)
        assert fs.stats.pages_written <= 2 * data_pages

    def test_reset(self, mlog):
        mlog.ingest(UpdateBatch.of([5], [0], [1.0]))
        mlog.reset()
        assert mlog.total_messages == 0
        assert mlog.pages_buffered == 0
        assert mlog.consume([0, 1, 2]).n == 0


class TestWholeStripeEviction:
    """A write-through eviction frees the deficit rounded down to whole
    stripes of ``ssd.channels`` pages (all of it under one stripe); a
    write-back eviction is not charged and frees exactly the deficit."""

    @staticmethod
    def _evictions(cfg, monkeypatch):
        """(deficit, pages flushed) of every eviction of a raw-send PageRank run."""
        from repro.algorithms import DeltaPageRankProgram
        from repro.core.engine import MultiLogVC
        from repro.graph.datasets import small_rmat
        from repro.obs import TraceRecorder
        from repro.options import EngineOptions

        deficits = []
        evict = MultiLogUnit._evict

        def spy(unit):
            deficits.append(unit.pages_buffered - (unit.capacity_pages - unit._high_free))
            evict(unit)

        monkeypatch.setattr(MultiLogUnit, "_evict", spy)
        tracer = TraceRecorder()
        opts = EngineOptions(min_intervals=4, enable_precombine=False)
        graph = small_rmat(n=1024, m=4096, seed=3)
        MultiLogVC(graph, DeltaPageRankProgram(), cfg, options=opts, tracer=tracer).run(8)
        pages = [e.fields["pages"] for e in tracer.events if e.kind == "mlog_flush"]
        assert len(pages) == len(deficits)
        # Some deficits span a stripe without filling whole ones.
        c = cfg.ssd.channels
        assert any(d > c and d % c for d in deficits)
        return list(zip(deficits, pages))

    def test_write_through_evicts_whole_stripes(self, cfg, monkeypatch):
        c = cfg.ssd.channels
        for deficit, pages in self._evictions(cfg, monkeypatch):
            assert pages == (deficit - deficit % c if deficit >= c else deficit)

    def test_write_back_evicts_the_deficit(self, cfg, monkeypatch):
        cached = cfg.with_cache("clock", 16 * cfg.ssd.page_size)
        assert all(pages == deficit for deficit, pages in self._evictions(cached, monkeypatch))


class TestBulkAppendEdgeCases:
    """Batch-append (ingest / _append_bulk) boundary conditions.

    Every page boundary must be seamless: an empty batch is a no-op, a batch exactly
    filling a page does not force a partial page, a batch spanning a
    page boundary splits without loss or reorder, and degenerate
    single-vertex intervals still route correctly.
    """

    def test_empty_batch_is_a_noop(self, mlog):
        before = mlog.appended
        mlog.ingest(UpdateBatch.empty())
        mlog.ingest(None)
        assert mlog.appended == before
        assert mlog.total_messages == 0
        assert mlog.pages_buffered == 0

    def test_batch_exactly_filling_a_page(self, cfg, intervals):
        fs = SimFS(cfg)
        budget = MemoryBudget.resolve(cfg, intervals.n_intervals)
        m = MultiLogUnit(fs, intervals, cfg, budget, "m")
        rpp = cfg.updates_per_page
        # All records to one interval: exactly one page worth.
        batch = UpdateBatch.of(
            np.full(rpp, 5), np.arange(rpp), np.arange(rpp, dtype=np.float64)
        )
        m.ingest(batch)
        assert m.total_messages == rpp
        out = m.consume([0])
        assert out.n == rpp
        # Arrival order within the interval is preserved (the FIFO the
        # engines' bit-exact update ordering rests on).
        assert np.array_equal(out.src, np.arange(rpp))
        assert np.array_equal(out.data, np.arange(rpp, dtype=np.float64))

    def test_batch_spanning_page_boundary(self, cfg, intervals):
        fs = SimFS(cfg)
        budget = MemoryBudget.resolve(cfg, intervals.n_intervals)
        m = MultiLogUnit(fs, intervals, cfg, budget, "m")
        rpp = cfg.updates_per_page
        n = rpp + 3  # one full page plus a partial
        batch = UpdateBatch.of(
            np.full(n, 12), np.arange(n), np.arange(n, dtype=np.float64)
        )
        m.ingest(batch)
        assert m.total_messages == n
        out = m.consume([1])
        assert out.n == n
        assert np.array_equal(out.src, np.arange(n))

    def test_interleaved_intervals_keep_per_interval_order(self, mlog):
        # Alternate destinations across intervals; each interval must
        # see its own records in arrival order after the bulk append.
        dests = np.array([5, 15, 5, 35, 15, 5], dtype=np.int64)
        srcs = np.arange(6, dtype=np.int64)
        mlog.ingest(UpdateBatch.of(dests, srcs, srcs.astype(np.float64)))
        out0 = mlog.consume([0])
        assert out0.src.tolist() == [0, 2, 5]
        out1 = mlog.consume([1])
        assert out1.src.tolist() == [1, 4]
        out2 = mlog.consume([2])
        assert out2.src.tolist() == [3]

    def test_single_vertex_intervals(self, cfg):
        # Degenerate partition: every interval holds exactly one vertex.
        intervals = VertexIntervals(np.array([0, 1, 2, 3, 4]))
        fs = SimFS(cfg)
        budget = MemoryBudget.resolve(cfg, intervals.n_intervals)
        m = MultiLogUnit(fs, intervals, cfg, budget, "m")
        dests = np.array([3, 0, 3, 2, 0], dtype=np.int64)
        m.ingest(UpdateBatch.of(dests, np.arange(5), np.arange(5, dtype=np.float64)))
        assert m.message_count(0) == 2
        assert m.message_count(2) == 1
        assert m.message_count(3) == 2
        assert m.message_count(1) == 0
        out = m.consume([3])
        assert (out.dest == 3).all()
        assert out.src.tolist() == [0, 2]
        # Empty interval consumes cleanly.
        assert m.consume([1]).n == 0


# -- reference model ----------------------------------------------------------
#
# The unit keeps per-interval column runs and does its page accounting
# arithmetically.  The model below is the buffer-object formulation it
# replaced -- one RecordPageBuffer per interval, a page at a time -- and
# must agree with it on every page written, every tally and every
# exported byte: the benchmark pins totals, this pins the sequence.

PICKLE_PROTOCOL = 4  # repro.recovery.checkpoint.PICKLE_PROTOCOL


class ModelMultiLog:
    def __init__(self, fs, intervals, cfg, budget, name="m"):
        self.fs, self.intervals, self.name = fs, intervals, name
        self.k = intervals.n_intervals
        self.rpp = cfg.updates_per_page
        self.update_bytes = cfg.records.update_bytes
        self.bufs = [RecordPageBuffer(UPDATE_FIELDS, UPDATE_DTYPES, self.rpp) for _ in range(self.k)]
        self.files = [None] * self.k
        self.counters = np.zeros(self.k, dtype=np.int64)
        self.appended = self.used = self.flushes = self.flushed_pages = 0
        self.capacity = budget.multilog_pages
        self.low_free = int(np.floor(cfg.memory.evict_low_free_fraction * self.capacity))
        self.high_free = int(np.floor(cfg.memory.evict_high_free_fraction * self.capacity))
        assert fs.cache is None  # the model charges every eviction: whole stripes
        self.stripe = cfg.ssd.channels

    def ingest(self, dest, src, data):
        chunk = max(self.rpp, self.high_free * self.rpp)
        ivals = self.intervals.interval_of(dest)
        for i in np.unique(ivals):
            rows = np.flatnonzero(ivals == i)  # arrival order
            d, s, x = dest[rows], src[rows], data[rows]
            buf = self.bufs[i]
            for pos in range(0, len(d), chunk):
                before = buf.pages_used
                buf.append_many(d[pos : pos + chunk], s[pos : pos + chunk], x[pos : pos + chunk])
                self.used += buf.pages_used - before
                if self.capacity - self.used < self.low_free:
                    self.evict()
            self.counters[i] += len(d)
        self.appended += len(dest)

    def evict(self):
        need = self.used - (self.capacity - self.high_free)
        if need >= self.stripe:
            need -= need % self.stripe
        target = self.used - need
        channels, devices = [], []

        def flush(i, pages):
            if self.files[i] is None:
                self.files[i] = self.fs.create_page_file(f"{self.name}.i{i}", "mlog", affinity=i)
            f = self.files[i]
            useful = [len(p[0]) * self.update_bytes for p in pages]
            ids, _ = f.append_pages(pages, useful_bytes=useful, charge=False)
            channels.append(f.channels_of(ids))
            devices.append(f.devices_of(ids))
            self.used -= len(pages)

        for i in sorted(range(self.k), key=lambda i: self.bufs[i].sealed_pages, reverse=True):
            if self.used <= target:
                break
            if self.bufs[i].sealed_pages:
                flush(i, self.bufs[i].pop_sealed(min(self.bufs[i].sealed_pages, self.used - target)))
        if self.used > target:
            for i in sorted(range(self.k), key=lambda i: self.bufs[i].top_records, reverse=True):
                if self.used <= target:
                    break
                if self.bufs[i].top_records:
                    self.bufs[i].force_seal()
                    flush(i, self.bufs[i].pop_sealed())
        if channels:
            dev = None if devices[0] is None else np.concatenate(devices)
            self.fs.device.write_batch(np.concatenate(channels), "mlog", devices=dev)
            self.flushes += 1
            self.flushed_pages += sum(len(c) for c in channels)

    def consume(self, interval_ids):
        pages = []
        for i in interval_ids:
            f = self.files[i]
            if f is not None and f.n_pages:
                pages += f.read_all()[0]
                f.truncate()
            self.used -= self.bufs[i].pages_used
            self.bufs[i].force_seal()
            pages += self.bufs[i].pop_sealed()
            self.counters[i] = 0
        return [np.concatenate(col) for col in zip(*pages)] if pages else None

    def export_state(self):
        def copies(page):
            return tuple(np.array(c, copy=True) for c in page)

        return {
            "files": [
                None if f is None else {
                    "channel_offset": f.channel_offset,
                    "payloads": [copies(p) for p in f.read_all(charge=False)[0]],
                    "useful": list(f._useful),
                }
                for f in self.files
            ],
            "buffers": [
                {"sealed": [copies(p) for p in b._sealed], "top": [list(c) for c in b._top]}
                for b in self.bufs
            ],
            "counters": self.counters.copy(),
            "appended": self.appended,
            "pages_used": self.used,
            "flushes": self.flushes,
            "flushed_pages": self.flushed_pages,
        }


def _file_pages(f):
    """A log file as comparable data: per page (columns as bytes, dtypes), and useful bytes."""
    if f is None or f.n_pages == 0:
        return [], []
    pages = [[(c.dtype.str, c.tobytes()) for c in p] for p in f.read_all(charge=False)[0]]
    return pages, list(f._useful)


def _assert_same_log(a, a_files, b, b_files):
    """Two logs (unit or model, in any pairing) hold the same pages and tallies."""
    for fa, fb in zip(a_files, b_files):
        assert _file_pages(fa) == _file_pages(fb)
    for field in ("flushes", "flushed_pages", "appended"):
        assert getattr(a, field) == getattr(b, field), field
    assert a.counters.tolist() == b.counters.tolist()


def _model_config(rpp, low, high, channels=4):
    """A config whose log page holds exactly ``rpp`` update records."""
    page, payload = {1: (512, 504), 4: (512, 120), 256: (4096, 8)}[rpp]
    cfg = small_test_config(channels=channels)
    cfg = dataclasses.replace(
        cfg,
        ssd=dataclasses.replace(cfg.ssd, page_size=page),
        records=dataclasses.replace(cfg.records, update_payload_bytes=payload),
        memory=dataclasses.replace(
            cfg.memory, evict_low_free_fraction=low, evict_high_free_fraction=high
        ),
    )
    assert cfg.updates_per_page == rpp
    return cfg


@st.composite
def multilog_cases(draw):
    rpp = draw(st.sampled_from([1, 4, 256]))
    k = draw(st.integers(1, 6))
    capacity = draw(st.integers(2, 12))
    low, high = draw(st.sampled_from([(0.0, 0.5), (0.1, 0.5), (0.3, 0.75), (0.1, 1.0), (0.5, 0.6)]))
    width = draw(st.integers(1, 9))  # vertices per interval
    batches = draw(
        st.lists(
            st.tuples(
                st.integers(0, min(5000, 3 * rpp * capacity)),  # records
                st.integers(0, 2**31),  # content seed
                st.booleans(),  # skewed towards one interval
            ),
            min_size=1,
            max_size=6,
        )
    )
    cut = draw(st.integers(0, len(batches)))  # checkpoint after this many batches
    channels = draw(st.sampled_from([1, 3, 4]))  # the eviction stripe width
    return rpp, k, capacity, low, high, width, batches, cut, channels


def check_multilog_matches_model(case):
    rpp, k, capacity, low, high, width, batches, cut, channels = case
    cfg = _model_config(rpp, low, high, channels)
    intervals = VertexIntervals(np.arange(k + 1) * width)
    budget = dataclasses.replace(MemoryBudget.resolve(cfg, k), multilog_pages=capacity)
    n = k * width

    def fresh_unit(next_offset=0):
        fs = SimFS(cfg)
        fs.next_channel_offset = next_offset
        return MultiLogUnit(fs, intervals, cfg, budget, "m")

    unit, model = fresh_unit(), ModelMultiLog(SimFS(cfg), intervals, cfg, budget)
    resumed = None
    sent = 0
    for b, (size, seed, skewed) in enumerate(batches):
        if b == cut:
            # Export -> restore on a fresh file system -> continue, with
            # the device stats carried over as a checkpoint carries them.
            state = pickle.loads(pickle.dumps(unit.export_state(), protocol=PICKLE_PROTOCOL))
            resumed = fresh_unit(unit.fs.next_channel_offset)
            resumed.fs.device.stats = unit.fs.stats.snapshot()
            resumed.restore_state(state)
        rng = np.random.default_rng(seed)
        dest = rng.integers(0, width if skewed else n, size)
        src = np.arange(sent, sent + size)
        data = rng.random(size)
        sent += size
        for log in (unit, resumed):
            if log is not None:
                log.ingest(UpdateBatch.of(dest, src, data))
        model.ingest(*(np.asarray(c, dt) for c, dt in zip((dest, src, data), UPDATE_DTYPES)))

        _assert_same_log(unit, unit._files, model, model.files)
        assert unit.pages_buffered == model.used
        assert unit.fs.stats.to_dict() == model.fs.stats.to_dict()
        assert len(pickle.dumps(unit.export_state(), protocol=PICKLE_PROTOCOL)) == len(
            pickle.dumps(model.export_state(), protocol=PICKLE_PROTOCOL)
        )
        if resumed is not None:
            _assert_same_log(unit, unit._files, resumed, resumed._files)
            assert unit.pages_buffered == resumed.pages_buffered
            assert unit.fs.stats.to_dict() == resumed.fs.stats.to_dict()

    for group in (list(range(0, k, 2)), list(range(1, k, 2))):
        want = model.consume(group)
        for log in (unit, resumed):
            if log is None:
                continue
            got = log.consume(group)
            if want is None:
                assert got.n == 0
                continue
            for g, w in zip((got.dest, got.src, got.data), want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert unit.pages_buffered == model.used
        assert unit.fs.stats.to_dict() == model.fs.stats.to_dict()
        if resumed is not None:
            assert resumed.fs.stats.to_dict() == model.fs.stats.to_dict()
    assert unit.pages_buffered == 0 and unit.total_messages == 0


class TestAgainstReferenceModel:
    @given(multilog_cases())
    @settings(max_examples=30, deadline=None)
    def test_same_pages_tallies_and_exported_bytes(self, case):
        check_multilog_matches_model(case)

    @pytest.mark.slow
    @given(multilog_cases())
    @settings(max_examples=120, deadline=None)
    def test_same_pages_tallies_and_exported_bytes_full_budget(self, case):
        check_multilog_matches_model(case)

    @staticmethod
    def _checkpoint_blobs(precombine):
        """Each checkpoint's ``(blob lengths, payload pages)``."""
        from repro.algorithms import DeltaPageRankProgram
        from repro.core.engine import MultiLogVC
        from repro.graph.datasets import small_rmat
        from repro.options import EngineOptions
        from repro.recovery import CheckpointManager

        cfg = small_test_config().with_workers(1).with_io_plan("off").with_devices(1)
        opts = EngineOptions(checkpoint_every=2, enable_precombine=precombine)
        eng = MultiLogVC(small_rmat(n=256, m=2048, seed=3), DeltaPageRankProgram(), cfg, options=opts)
        eng.run(max_supersteps=8)
        commits = [
            eng.fs.get(f"ckpt.{cid}.commit").read_all(charge=False)[0][-1]
            for cid in CheckpointManager.list_ids(eng.fs)
        ]
        return [c["length"] for c in commits], [c["n_pages"] for c in commits]

    def test_checkpoint_blob_lengths_golden(self):
        """The pickled multi-log state is a simulated cost: a checkpoint is
        charged ``len(blob) / page_size`` pages.  Pages recorded before the
        buffers became run lists -- and before sends could be reduced ahead
        of the log, so with that off.  The lengths were re-recorded, 50
        bytes shorter each, when the units stopped exporting an I/O time
        (the device stats hold it); the pages did not move.  Since every
        checkpoint is a full snapshot the figures are a full snapshot's,
        45 bytes shorter each than before that, when the payload still
        named its format and wrapped the values; the pages did not move."""
        lengths, pages = self._checkpoint_blobs(False)
        assert pages == [13, 13, 13, 13]
        assert lengths == [50228, 52010, 52295, 51226]

    def test_checkpoint_blob_lengths_golden_precombine(self):
        """With the send-side combine the logs hold one record per
        (destination, source interval): a smaller cut.  Lengths re-recorded
        as above, 44 and then 45 bytes shorter each; the pages did not
        move either time."""
        lengths, pages = self._checkpoint_blobs(True)
        assert pages == [3, 3, 4, 4]
        assert lengths == [11867, 12079, 12289, 12486]
