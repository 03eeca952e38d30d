"""Update batches and the combine fast path."""

import numpy as np
import pytest

from repro.core.combine import COMBINED_SRC, combine_sorted, validate_combine
from repro.core.update import UpdateBatch, stable_argsort_bounded
from repro.errors import ProgramError


class TestUpdateBatch:
    def test_of_and_n(self):
        b = UpdateBatch.of([1, 2], [0, 0], [1.0, 2.0])
        assert b.n == 2

    def test_of_length_mismatch(self):
        with pytest.raises(ValueError):
            UpdateBatch.of([1], [0, 0], [1.0, 2.0])

    def test_empty(self):
        b = UpdateBatch.empty()
        assert b.n == 0 and b.is_sorted()

    def test_concat(self):
        a = UpdateBatch.of([1], [0], [1.0])
        b = UpdateBatch.of([2, 3], [0, 0], [2.0, 3.0])
        c = UpdateBatch.concat([a, UpdateBatch.empty(), b])
        assert c.n == 3
        assert list(c.dest) == [1, 2, 3]

    def test_concat_single_passthrough(self):
        a = UpdateBatch.of([1], [0], [1.0])
        assert UpdateBatch.concat([a]) is a

    def test_concat_empty(self):
        assert UpdateBatch.concat([]).n == 0

    def test_sort_by_dest_stable(self):
        b = UpdateBatch.of([3, 1, 3, 1], [10, 11, 12, 13], [0.0, 1.0, 2.0, 3.0])
        s = b.sort_by_dest()
        assert list(s.dest) == [1, 1, 3, 3]
        assert list(s.src) == [11, 13, 10, 12]  # stable within a dest

    def test_group(self):
        b = UpdateBatch.of([1, 1, 2, 5, 5, 5], [0] * 6, [0.0] * 6).sort_by_dest()
        uniq, offsets = b.group()
        assert list(uniq) == [1, 2, 5]
        assert list(offsets) == [0, 2, 3, 6]

    def test_group_empty(self):
        uniq, offsets = UpdateBatch.empty().group()
        assert uniq.size == 0 and list(offsets) == [0]

    def test_is_sorted(self):
        assert UpdateBatch.of([1, 2, 2], [0] * 3, [0.0] * 3).is_sorted()
        assert not UpdateBatch.of([2, 1], [0] * 2, [0.0] * 2).is_sorted()


class TestStableArgsortBounded:
    """The one hot sort: must be *the* stable permutation, not a stable one
    of its own -- arrival order within a destination and the float ``add``
    order inside ``combine_sorted`` hang on it."""

    BOUNDS = [1, 2, 256, 257, 65_536, 65_537, 2**20]

    @staticmethod
    def check(keys, bound):
        keys = np.asarray(keys)
        got = stable_argsort_bounded(keys, bound)
        want = np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_numpy_stable_argsort(self, bound, dtype):
        rng = np.random.default_rng(bound)
        self.check(rng.integers(0, bound, 5000).astype(dtype), bound)
        # the extremes of the range, including the top value of every digit
        self.check(np.array([bound - 1, 0, bound - 1, 0, bound // 2], dtype=dtype), bound)

    @pytest.mark.parametrize("bound", BOUNDS + [None])
    def test_degenerate_shapes(self, bound):
        top = (bound or 1000) - 1
        self.check(np.empty(0, np.int64), bound)
        self.check(np.array([top]), bound)
        self.check(np.full(777, top), bound)  # all equal
        self.check(np.linspace(top, 0, 1500).astype(np.int64), bound)  # descending
        rng = np.random.default_rng(7)
        self.check(rng.choice(np.array([0, top // 2, top]), 4000), bound)  # heavy duplicates

    def test_bound_none_is_max_plus_one(self):
        rng = np.random.default_rng(3)
        for top in (0, 255, 256, 65_535, 65_536, 2**33):
            self.check(np.append(rng.integers(0, top + 1, 3000), top), None)

    def test_keys_already_narrow(self):
        rng = np.random.default_rng(9)
        self.check(rng.integers(0, 17, 3000).astype(np.uint8), 17)
        self.check(rng.integers(0, 40_000, 3000).astype(np.uint16), 40_000)

    def test_loose_bound_is_still_exact(self):
        self.check(np.random.default_rng(5).integers(0, 300, 2000), 2**40)


class TestSortAndGroupShapes:
    def test_sort_by_dest_span_over_16_bits(self):
        rng = np.random.default_rng(11)
        dest = rng.integers(0, 200_000, 6000).astype(np.int32)
        dest[:3] = [199_999, 0, 199_999]
        b = UpdateBatch.of(dest, np.arange(6000), rng.random(6000)).sort_by_dest()
        order = np.argsort(dest, kind="stable")
        assert np.array_equal(b.dest, dest[order])
        assert np.array_equal(b.src, order)  # src was arange: arrival order kept per dest

    def test_sort_by_dest_nonzero_minimum(self):
        dest = np.array([70_003, 70_001, 70_003, 70_000, 70_001], dtype=np.int32)
        b = UpdateBatch.of(dest, np.arange(5), np.arange(5.0)).sort_by_dest()
        assert b.dest.tolist() == [70_000, 70_001, 70_001, 70_003, 70_003]
        assert b.src.tolist() == [3, 1, 4, 0, 2]
        assert b.dest.dtype == np.int32

    def test_group_single_record(self):
        uniq, offsets = UpdateBatch.of([9], [0], [1.0]).group()
        assert uniq.tolist() == [9] and offsets.tolist() == [0, 1]
        assert uniq.dtype == np.int32 and offsets.dtype == np.int64

    def test_group_one_repeated_destination(self):
        uniq, offsets = UpdateBatch.of([4] * 6, range(6), [0.0] * 6).group()
        assert uniq.tolist() == [4] and offsets.tolist() == [0, 6]

    def test_group_matches_numpy_unique(self):
        dest = np.sort(np.random.default_rng(2).integers(0, 50, 400)).astype(np.int32)
        uniq, offsets = UpdateBatch.of(dest, dest, dest.astype(float)).group()
        want_uniq, want_starts = np.unique(dest, return_index=True)
        assert np.array_equal(uniq, want_uniq) and uniq.dtype == want_uniq.dtype
        assert offsets.tolist() == want_starts.tolist() + [400]

    def test_of_keeps_ids_that_do_not_fit_the_column(self):
        # ... so that the multi-log's range check sees 2**32 + 3, not 3.
        wide = UpdateBatch.of(np.array([2**32 + 3, 1]), [0, 0], [0.0, 0.0])
        assert wide.dest.tolist() == [2**32 + 3, 1]
        fits = UpdateBatch.of(np.array([2**31 - 1, 1]), [0, 0], [0.0, 0.0])
        assert fits.dest.dtype == np.int32 and fits.dest.tolist() == [2**31 - 1, 1]

    def test_direct_construction_checks_lengths(self):
        with pytest.raises(ValueError):
            UpdateBatch(np.zeros(2, np.int32), np.zeros(1, np.int32), np.zeros(2))


class TestCombine:
    def make_grouped(self, dests, datas):
        b = UpdateBatch.of(dests, [0] * len(dests), datas).sort_by_dest()
        uniq, offsets = b.group()
        return b, uniq, offsets

    def test_add(self):
        b, u, o = self.make_grouped([1, 1, 2], [1.0, 2.0, 5.0])
        out, uniq, offsets = combine_sorted(b, u, o, "add")
        assert list(out.data) == [3.0, 5.0]
        assert list(uniq) == [1, 2]
        assert list(offsets) == [0, 1, 2]
        assert (out.src == COMBINED_SRC).all()

    def test_min_max(self):
        b, u, o = self.make_grouped([1, 1, 1], [3.0, 1.0, 2.0])
        out, _, _ = combine_sorted(b, u, o, "min")
        assert out.data[0] == 1.0
        out, _, _ = combine_sorted(b, u, o, "max")
        assert out.data[0] == 3.0

    def test_callable(self):
        b, u, o = self.make_grouped([1, 1, 2], [1.0, 3.0, 7.0])
        out, _, _ = combine_sorted(b, u, o, lambda x: float(np.median(x)))
        assert list(out.data) == [2.0, 7.0]

    def test_empty_batch(self):
        b, u, o = UpdateBatch.empty(), *UpdateBatch.empty().group()
        out, uniq, offsets = combine_sorted(b, u, o, "add")
        assert out.n == 0

    def test_unknown_named_operator(self):
        with pytest.raises(ProgramError):
            validate_combine("multiply")

    def test_non_callable(self):
        with pytest.raises(ProgramError):
            validate_combine(42)

    def test_matches_numpy_groupby(self):
        rng = np.random.default_rng(0)
        dests = rng.integers(0, 20, 200)
        datas = rng.random(200)
        b, u, o = self.make_grouped(dests.tolist(), datas.tolist())
        out, _, _ = combine_sorted(b, u, o, "add")
        expected = np.bincount(dests, weights=datas, minlength=20)
        for d, x in zip(out.dest, out.data):
            assert x == pytest.approx(expected[d])
