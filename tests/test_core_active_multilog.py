"""Active tracker transitions and the Multi-Log Update Unit."""

import numpy as np
import pytest

from repro.core.active import ActiveTracker
from repro.core.multilog import MultiLogUnit
from repro.core.update import UpdateBatch
from repro.errors import ProgramError
from repro.graph.partition import VertexIntervals
from repro.mem import MemoryBudget
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
