import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isdtest import DataError, PairedSample, make_paired, make_sample


class TestMakeSample:
    def test_sorts(self):
        s = make_sample([3, 1, 2])
        assert list(s.values) == [1, 2, 3]
        assert s.n == 3

    def test_singleton(self):
        s = make_sample([5])
        assert list(s.values) == [5]
        assert s.n == 1

    def test_negative_rejected(self):
        with pytest.raises(DataError, match="negative"):
            make_sample([1, -1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            make_sample([])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            make_sample([1.0, np.nan])
        with pytest.raises(DataError, match="non-finite"):
            make_sample([1.0, np.inf])

    @pytest.mark.parametrize("raw, match", [(["1", "x"], "not numbers"), (["", "2"], "not numbers"),
                                            ([1.0, 2j], "not numbers"),
                                            ([10**400, 1.0], "double range")])
    def test_non_numeric_rejected(self, raw, match):
        with pytest.raises(DataError, match=match):
            make_sample(raw)
        with pytest.raises(DataError, match="left column"):
            make_paired(raw, [1.0] * len(raw))
        with pytest.raises(DataError, match="right column"):
            make_paired([1.0] * len(raw), raw)

    def test_immutable(self):
        s = make_sample([1, 2])
        with pytest.raises(ValueError):
            s.values[0] = 7.0


class TestPairedSample:
    def test_preserves_rows(self):
        p = make_paired([3, 1, 2], [30, 10, 20])
        assert list(p.left) == [3, 1, 2]
        assert list(p.right) == [30, 10, 20]
        left = p.left_sample()
        assert list(left.values) == [1, 2, 3]
        order = p.left_order()
        assert list(p.left[order]) == [1, 2, 3]
        assert list(p.right[p.right_order()]) == [10, 20, 30]
        assert list(p.right_sample().values) == [10, 20, 30]
        # The views are computed once, read-only, and the same on every call.
        for sample, order in ((p.left_sample, p.left_order), (p.right_sample, p.right_order)):
            assert sample() is sample() and order() is order()
            for arr in (sample().values, order()):
                with pytest.raises(ValueError):
                    arr[0] = 0
        ties = make_paired([3, 1, 2, 1], [5, 5, 4, 6])
        assert list(ties.left_order()) == [1, 3, 2, 0]  # stable among equal values
        assert list(ties.right_order()) == [2, 0, 1, 3]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=40))
    def test_orders_are_permutations(self, rows):
        # The matched core gathers through these orders without a bounds
        # check, so each must be a permutation of range(n), ties included.
        left, right = zip(*rows)
        p = make_paired(left, right)
        for column, order in ((p.left, p.left_order()), (p.right, p.right_order())):
            assert order.dtype == np.intp
            assert np.array_equal(np.sort(order), np.arange(len(rows)))
            assert np.all(np.diff(column[order]) >= 0)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            make_paired([1, 2], [1, 2, 3])

    def test_column_validation(self):
        with pytest.raises(DataError):
            make_paired([1, -2], [1, 2])

    @pytest.mark.parametrize("raw, match", [(["a", "b"], "not numbers"),
                                            ([10**400, 1.0], "double range")])
    def test_built_directly_types_errors(self, raw, match):
        # The public constructor converts its columns as make_paired does.
        with pytest.raises(DataError, match=f"left column contains .*{match}"):
            PairedSample(raw, [1.0, 2.0])
        with pytest.raises(DataError, match=f"right column contains .*{match}"):
            PairedSample([1.0, 2.0], raw)
