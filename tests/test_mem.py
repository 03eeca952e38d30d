"""Memory budget resolution and page-staging buffers."""

import numpy as np
import pytest

from repro.config import small_test_config
from repro.errors import BudgetExceededError
from repro.mem import ByteStreamPager, MemoryBudget, RecordPageBuffer


class TestMemoryBudget:
    def test_resolve_splits(self, cfg):
        b = MemoryBudget.resolve(cfg, n_intervals=4)
        assert b.total_bytes == cfg.memory.total_bytes
        assert b.sort_bytes == cfg.memory.sort_bytes
        assert b.page_size == cfg.ssd.page_size

    def test_multilog_floor_two_pages_per_interval(self, cfg):
        b = MemoryBudget.resolve(cfg, n_intervals=1000)
        assert b.multilog_pages >= 2 * 1000

    def test_multilog_uses_budget_when_larger(self):
        cfg = small_test_config(total_bytes=4 * 1024 * 1024)
        b = MemoryBudget.resolve(cfg, n_intervals=2)
        assert b.multilog_pages == cfg.memory.multilog_bytes // cfg.ssd.page_size

    def test_edgelog_at_least_one_page(self, tight_cfg):
        b = MemoryBudget.resolve(tight_cfg, n_intervals=2)
        assert b.edgelog_pages >= 1

    def test_sort_capacity_records(self, cfg):
        b = MemoryBudget.resolve(cfg, 2)
        assert b.sort_capacity_records(16) == cfg.memory.sort_bytes // 16
        assert b.sort_capacity_records(b.sort_bytes * 2) == 1

    def test_byte_properties(self, cfg):
        b = MemoryBudget.resolve(cfg, 3)
        assert b.multilog_bytes == b.multilog_pages * b.page_size
        assert b.edgelog_bytes == b.edgelog_pages * b.page_size


class TestRecordPageBuffer:
    def make(self, rpp=4):
        return RecordPageBuffer(("d", "s", "x"), (np.int32, np.int32, np.float64), rpp)

    def test_append_seals_at_capacity(self):
        buf = self.make(rpp=3)
        assert buf.append(1, 1, 1.0) is False
        assert buf.append(2, 2, 2.0) is False
        assert buf.append(3, 3, 3.0) is True
        assert buf.sealed_pages == 1 and buf.top_records == 0

    def test_pages_used(self):
        buf = self.make(rpp=2)
        assert buf.pages_used == 0
        buf.append(1, 1, 1.0)
        assert buf.pages_used == 1
        buf.append(2, 2, 2.0)  # seals
        assert buf.pages_used == 1
        buf.append(3, 3, 3.0)
        assert buf.pages_used == 2

    def test_append_many_counts_sealed(self):
        buf = self.make(rpp=4)
        sealed = buf.append_many(np.arange(10), np.arange(10), np.arange(10.0))
        assert sealed == 2
        assert buf.n_records == 10
        assert buf.top_records == 2

    def test_append_many_empty(self):
        buf = self.make()
        assert buf.append_many(np.empty(0), np.empty(0), np.empty(0)) == 0

    def test_sealed_pages_preserve_order_values_and_dtypes(self):
        buf = self.make(rpp=3)
        buf.append_many(np.arange(7), np.arange(7) * 2, np.arange(7.0))
        buf.force_seal()
        pages = buf.pop_sealed()
        assert [len(p[0]) for p in pages] == [3, 3, 1]
        d, s, x = (np.concatenate(c) for c in zip(*pages))
        assert list(d) == list(range(7))
        assert list(s) == [i * 2 for i in range(7)]
        assert d.dtype == np.int32 and x.dtype == np.float64
        assert buf.n_records == 0

    def test_pop_sealed_fifo(self):
        buf = self.make(rpp=2)
        buf.append_many(np.arange(6), np.arange(6), np.arange(6.0))
        pages = buf.pop_sealed(2)
        assert len(pages) == 2
        assert list(pages[0][0]) == [0, 1]
        assert buf.sealed_pages == 1

    def test_force_seal_partial(self):
        buf = self.make(rpp=4)
        buf.append(1, 1, 1.0)
        buf.force_seal()
        assert buf.sealed_pages == 1 and buf.top_records == 0

    def test_page_must_hold_a_record(self):
        with pytest.raises(BudgetExceededError):
            RecordPageBuffer(("a",), (np.int32,), 0)

    def test_fields_dtypes_mismatch(self):
        with pytest.raises(ValueError):
            RecordPageBuffer(("a", "b"), (np.int32,), 4)


class TestByteStreamPager:
    def test_single_entry_within_page(self):
        p = ByteStreamPager(100)
        first, last, completed = p.append(40)
        assert (first, last) == (0, 0)
        assert list(completed) == []
        assert p.buffered_pages == 1

    def test_entry_completing_page(self):
        p = ByteStreamPager(100)
        p.append(60)
        first, last, completed = p.append(40)
        assert (first, last) == (0, 0)
        assert list(completed) == [0]
        assert p.final_partial_page() is None

    def test_spanning_entry(self):
        p = ByteStreamPager(100)
        first, last, completed = p.append(250)
        assert (first, last) == (0, 2)
        assert list(completed) == [0, 1]
        assert p.final_partial_page() == 2

    def test_offsets_accumulate(self):
        p = ByteStreamPager(100)
        p.append(30)
        p.append(30)
        assert p.offset == 60
        assert p.current_page == 0

    def test_reset(self):
        p = ByteStreamPager(100)
        p.append(250)
        p.reset()
        assert p.offset == 0 and p.buffered_pages == 0

    def test_positive_sizes_only(self):
        p = ByteStreamPager(100)
        with pytest.raises(ValueError):
            p.append(0)
        with pytest.raises(ValueError):
            ByteStreamPager(0)
