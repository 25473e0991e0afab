import hashlib
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isdtest import (
    ConfigError,
    Direction,
    SortedSample,
    TestConfig,
    curves,
    inference,
    make_sample,
    run_test,
)
from isdtest.bootstrap import draw_weights
from isdtest.curves import (
    MAX_DEGREE,
    BlockWorkspace,
    Grid,
    LambdaCurve,
    eval_block,
    eval_on_grid,
)

from conftest import (
    core_calls,
    expansion_rows,
    fraction_curves,
    grid_columns,
    point_lambda,
    quad_lambda,
    random_dp_values,
    rel_err,
    stacked,
)

UP, DOWN = Direction.UP, Direction.DOWN


def curve(values, m, direction):
    return LambdaCurve(stacked(make_sample(values)), m, direction)


def on_grid(c, grid):
    """The curve of a one-sample stack on a grid, shape (G,)."""
    return eval_on_grid(c, grid)[0]


def at(c, *ps):
    """Values of a curve at the points ``ps``, read off a grid that contains them."""
    pts = np.unique(np.concatenate(([0.0, 1.0], ps)))
    y = on_grid(c, Grid(pts))
    vals = [y[np.searchsorted(pts, p)] for p in ps]
    return vals[0] if len(ps) == 1 else vals


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(11)
        assert len(g) == 11
        assert g.points[0] == 0.0 and g.points[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Grid(np.array([0.0, 0.5, 0.9]))  # missing 1
        with pytest.raises(ConfigError):
            Grid(np.array([0.1, 0.5, 1.0]))  # missing 0
        with pytest.raises(ConfigError):
            Grid(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing


class TestLambdaEval:
    def test_m2_up_at_one_is_mean(self):
        assert at(curve([1, 2, 3], 2, UP), 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_m3_up_boundary(self):
        assert at(curve([1, 2, 3], 3, UP), 0.0) == 0.0

    def test_m3_up_at_one(self):
        got = at(curve([1, 2, 3], 3, UP), 1.0)
        assert got == pytest.approx(7 / 9, rel=1e-12)
        oracle = quad_lambda([1, 2, 3], [1 / 3, 2 / 3, 1.0], 3, UP, 1.0)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_m3_down_at_zero(self):
        got = at(curve([1, 2, 3], 3, DOWN), 0.0)
        assert got == pytest.approx(7 / 9, rel=1e-12)
        oracle = quad_lambda([1, 2, 3], [1 / 3, 2 / 3, 1.0], 3, DOWN, 0.0)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_down_boundary_bitexact_zero(self):
        rng = np.random.default_rng(2)
        for n in (1, 7, 30):
            vals = random_dp_values(rng, n)
            for m in (3, 4, 5):
                assert at(curve(vals, m, DOWN), 1.0) == 0.0
                assert at(curve(vals, m, UP), 0.0) == 0.0

    def test_degree_validation(self):
        # LambdaCurve and eval_block do not check the degree: the core passes
        # the config's m, and TestConfig holds it in [3, MAX_DEGREE].
        calls = core_calls()
        for name in ("inference.LambdaCurve", "inference.eval_block"):
            assert {args["m"] for args, _ in calls[name]} == {3, 5}
        for m in (1, 2, MAX_DEGREE + 1):
            with pytest.raises(ConfigError):
                TestConfig(m=m)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(0, 1, 21)
        for _ in range(12):
            n = int(rng.integers(2, 40))
            vals = random_dp_values(rng, n)
            cum = np.arange(1, n + 1) / n
            for m in (2, 3, 4):
                for direction in (UP, DOWN):
                    if direction is DOWN and m == 2:
                        continue
                    c = curve(vals, m, direction)
                    for p, got in zip(grid[::4], at(c, *grid[::4])):
                        want = quad_lambda(np.sort(vals), cum, m, direction, p)
                        assert rel_err(got, want, floor=1e-12) < 1e-9

    def test_nested_repeated_integral_m3(self):
        # Degree 3 is the twice-iterated integral of the quantile.
        import scipy.integrate

        rng = np.random.default_rng(23)
        vals = np.sort(random_dp_values(rng, 11))
        cum = np.arange(1, 12) / 11
        for p, got in zip((0.3, 0.8), at(curve(vals, 3, UP), 0.3, 0.8)):
            want, _ = scipy.integrate.quad(
                lambda t: point_lambda(vals, cum, 2, UP, t), 0, p, limit=200,
                points=[b for b in cum if b < p])
            assert got == pytest.approx(want, rel=1e-9)

    def test_weighted_equals_expanded(self):
        # A reweighted sample is the same step function as the expanded
        # sample that repeats each value by its weight.
        rng = np.random.default_rng(9)
        n = 25
        vals = np.sort(random_dp_values(rng, n))
        w = np.bincount(rng.integers(0, n, size=n), minlength=n)
        g = Grid.uniform(9)
        for m, direction in ((2, UP), (3, UP), (4, DOWN)):
            weighted = eval_block(stacked(make_sample(vals)), w[None, :], m, direction, g)[0]
            expanded = on_grid(curve(np.repeat(vals, w), m, direction), g)
            for got, want in zip(weighted, expanded):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(31)
        vals = random_dp_values(rng, 23)
        for m, direction in ((3, UP), (4, DOWN)):
            base = at(curve(vals, m, direction), 0.2, 0.7, 1.0)
            scaled = at(curve(1000.0 * vals, m, direction), 0.2, 0.7, 1.0)
            for got, want in zip(scaled, base):
                assert got == pytest.approx(1000.0 * want, rel=1e-12)

    def test_up_monotone_convex(self):
        rng = np.random.default_rng(41)
        vals = random_dp_values(rng, 35)
        g = Grid.uniform(101)
        for m in (2, 3, 4):
            y = on_grid(curve(vals, m, UP), g)
            dy = np.diff(y)
            assert np.all(dy >= -1e-12)
            assert np.all(np.diff(dy) >= -1e-12)


class TestBridgeIdentity:
    def test_m3_bridge(self):
        # Both sides equal mean minus the first moment of the quantile.
        rng = np.random.default_rng(77)
        for _ in range(100):
            vals = random_dp_values(rng, int(rng.integers(2, 60)))
            up = at(curve(vals, 3, UP), 1.0)
            down = at(curve(vals, 3, DOWN), 0.0)
            assert abs(up - down) < 1e-12 * max(1.0, abs(up))


def difference(first, second, grid):
    """Second curve minus first: positive values are evidence against the
    null that the first sample's distribution dominates the second's."""
    return on_grid(second, grid) - on_grid(first, grid)


class TestDifference:
    def test_identical_samples_zero(self):
        c1 = curve([1, 2, 5], 3, UP)
        c2 = curve([1, 2, 5], 3, UP)
        assert np.all(difference(c1, c2, Grid.uniform(7)) == 0.0)

    def test_shift_adds_half_at_one(self):
        d = difference(curve([1, 2, 3], 3, UP), curve([2, 3, 4], 3, UP), Grid.uniform(5))
        assert d[-1] == pytest.approx(0.5, rel=1e-12)
        oracle = (quad_lambda([2, 3, 4], [1 / 3, 2 / 3, 1.0], 3, UP, 1.0)
                  - quad_lambda([1, 2, 3], [1 / 3, 2 / 3, 1.0], 3, UP, 1.0))
        assert d[-1] == pytest.approx(oracle, rel=1e-10)

    def test_up_vanishes_at_zero(self):
        d = difference(curve([1, 9], 3, UP), curve([2, 3, 4], 3, UP), Grid.uniform(5))
        assert d[0] == 0.0

    def test_shift_monotone_pointwise(self):
        rng = np.random.default_rng(55)
        a = random_dp_values(rng, 40)
        b = random_dp_values(rng, 40)
        g = Grid.uniform(51)
        first = curve(a, 3, UP)
        base = difference(first, curve(b, 3, UP), g)
        shifted = difference(first, curve(b + 0.5, 3, UP), g)
        assert np.all(shifted >= base - 1e-12)


class TestEvalOnGrid:
    def test_matches_pointwise(self):
        rng = np.random.default_rng(10)
        vals = random_dp_values(rng, 33)
        cum = np.arange(1, 34) / 33
        g = Grid.uniform(101)
        for m, direction in ((2, UP), (3, UP), (4, UP), (3, DOWN), (4, DOWN)):
            c = curve(vals, m, direction)
            grid_vals = on_grid(c, g)
            for i in range(0, 101, 10):
                assert grid_vals[i] == pytest.approx(
                    point_lambda(np.sort(vals), cum, m, direction, g.points[i]),
                    rel=1e-11, abs=1e-13)

    def test_constant_sample(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        y = on_grid(curve([4, 4, 4], 2, UP), g)
        assert y == pytest.approx([0.0, 2.0, 4.0], rel=1e-14)

    def test_identical_difference_all_zero(self):
        g = Grid.uniform(17)
        assert np.all(difference(curve([1, 2], 3, UP), curve([1, 2], 3, UP), g) == 0.0)

    def test_endpoints_example(self):
        g = Grid(np.array([0.0, 1.0]))
        y = on_grid(curve([1, 2, 3], 3, UP), g)
        assert y[0] == 0.0
        assert y[1] == pytest.approx(7 / 9, rel=1e-12)


class TestStackedBlock:
    """A stack of samples of one size, one per row, evaluates each row
    exactly as that sample alone."""

    @staticmethod
    def _stack(rng, depth=5, n=40):
        return np.stack([np.sort(random_dp_values(rng, n)) for _ in range(depth)])

    @pytest.mark.parametrize("m", [3, 4, 6])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_rows_match_own_sample(self, m, direction):
        rng = np.random.default_rng(31)
        stack = self._stack(rng)
        w = np.stack([draw_weights(stack.shape[1], rng) for _ in stack])
        g = Grid.uniform(57)
        for work in (None, BlockWorkspace()):
            got = eval_block(SortedSample(stack), w, m, direction, g, work)
            for d, row in enumerate(stack):
                want = eval_block(SortedSample(row[None]), w[d:d + 1], m, direction, g)[0]
                assert np.array_equal(got[d], want), d

    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_eval_on_grid_of_a_stack(self, direction):
        stack = self._stack(np.random.default_rng(32), depth=3, n=25)
        g = Grid.uniform(41)
        got = eval_on_grid(LambdaCurve(SortedSample(stack), 4, direction), g)
        assert got.shape == (3, 41)
        for row, values in zip(got, stack):
            assert np.array_equal(row, on_grid(curve(values, 4, direction), g))

    @pytest.mark.parametrize("m", [3, 4, 6])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    @pytest.mark.parametrize("columns", [None, [0, 1, 2, 9, 10], [40, 50, 56]])
    def test_row_reweights_its_dataset_mod_depth(self, m, direction, columns):
        # Four replications of a stack of three: row r reweights dataset
        # r mod 3, bit for bit as that dataset alone and as the float rows.
        rng = np.random.default_rng(33)
        stack = self._stack(rng, depth=3, n=60)
        w = np.stack([draw_weights(stack.shape[1], rng) for _ in range(4 * len(stack))])
        g = Grid.uniform(57)
        got = eval_block(SortedSample(stack), w, m, direction, g, BlockWorkspace(), columns)
        at = slice(None) if columns is None else columns
        assert np.array_equal(got, expansion_rows(stack, w, m, direction, g.points)[:, at])
        for r, row in enumerate(got):
            want = eval_block(SortedSample(stack[r % 3][None]), w[r:r + 1], m, direction, g,
                              columns=columns)[0]
            assert np.array_equal(row, want), r

    def test_weights_are_whole_replications_of_the_stack(self):
        # eval_block does not check a stack against its weights: the core
        # passes each slot's stack, shape (D, n), with whole replications of
        # it, D rows each.  A warp-speed call has one, a full-mode call many.
        calls = core_calls()["inference.eval_block"]
        for args, _ in calls:
            depth, n = args["sample"].values.shape
            rows = len(args["weights"])
            assert args["weights"].shape == (rows, n) and rows % depth == 0
        depths = {(args["sample"].values.shape[0], len(args["weights"])) for args, _ in calls}
        assert any(rows == depth > 1 for depth, rows in depths)
        assert any(rows > depth > 1 for depth, rows in depths)

    def test_stacked_rows_match_each_dataset_alone(self):
        # Both simulation modes: every row of every stacked core call is
        # bit for bit its dataset's row evaluated alone.
        stacked = [(args, got) for args, got in core_calls()["inference.eval_block"]
                   if len(args["sample"].values) > 1]
        assert stacked
        for args, got in stacked:
            values, w = args["sample"].values, args["weights"]
            for r, row in enumerate(got):
                want = eval_block(SortedSample(values[r % len(values)][None]), w[r:r + 1],
                                  args["m"], args["direction"], args["grid"],
                                  columns=args["columns"])[0]
                assert np.array_equal(row, want), r


class TestPairLanes:
    """Rows 2q and 2q + 1 of a block share one complex row; each is still
    bit for bit the float row that the row-by-row expansion computes."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [3, 4, 12])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    def test_rows_match_float_rows(self, rows, m, direction, stacked):
        rng = np.random.default_rng(100 * rows + m)
        n, g = 37, Grid.uniform(41)
        values = (np.sort(random_dp_values(rng, n * rows).reshape(rows, n), axis=1)
                  if stacked else np.sort(random_dp_values(rng, n)))
        w = np.stack([draw_weights(n, rng) for _ in range(rows)])
        got = eval_block(SortedSample(np.atleast_2d(values)), w, m, direction, g)
        assert got.shape == (rows, len(g))
        assert np.array_equal(got, expansion_rows(values, w, m, direction, g.points))

    @pytest.mark.parametrize("bad", [0, 1])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_overflow_stays_in_its_lane(self, bad, direction):
        # One row's largest value has overflowed to inf, so its curve is inf
        # and NaN; the other lane of its pair keeps its solo bits.
        rng = np.random.default_rng(41)
        stack = np.sort(random_dp_values(rng, 2 * 30).reshape(2, 30), axis=1)
        stack[bad, -1] = np.inf
        w = np.stack([draw_weights(30, rng) for _ in range(2)])
        g = Grid.uniform(31)
        with np.errstate(all="ignore"):
            got = eval_block(SortedSample(stack), w, 5, direction, g)
        good = 1 - bad
        assert not np.isfinite(got[bad]).all()
        assert np.array_equal(got[good],
                              eval_block(SortedSample(stack[good:good + 1]), w[good:good + 1], 5,
                                         direction, g)[0])

    def test_plan_arrays_are_read_only(self):
        g = Grid.uniform(21)
        for direction in (UP, DOWN):
            plan = g._plan(15, 4, direction)
            assert g._plan(15, 4, direction) is plan
            assert plan.lattice.shape == (3, 2 * 16) and plan.powers.shape == (4, 2 * 21)
            arrays = [plan.cut, plan.lattice, plan.powers]
            arrays += [plan.mean_factor] if direction is DOWN else []
            for array in arrays:
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_odd_last_block(self, monkeypatch):
        # B = 7 in blocks of two replications: the last block has one row,
        # and every block's rows equal the float rows bit for bit.
        rng = np.random.default_rng(42)
        s1, s2 = (make_sample(random_dp_values(rng, n)) for n in (40, 50))
        cfg = TestConfig(bootstrap=7, seed=5, grid=61, vgrid=11)
        rows = []

        def checked(sample, weights, m, direction, grid, work=None, columns=None):
            got = eval_block(sample, weights, m, direction, grid, work, columns)
            full = expansion_rows(sample.values, weights, m, direction, grid.points)
            assert np.array_equal(got, full if columns is None else full[:, columns])
            rows.append(len(weights))
            return got

        default = run_test(s1, s2, cfg)
        monkeypatch.setattr(inference, "eval_block", checked)
        monkeypatch.setattr(inference, "_BLOCK_CELLS", 2 * (max(50, 61) + 1))
        result = run_test(s1, s2, cfg)
        assert rows == [2] * 6 + [1] * 2
        assert (result.statistic, result.critical_value, result.p_value) == (
            default.statistic, default.critical_value, default.p_value)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 8])
    def test_block_rows_even(self, depth):
        # Every block but a last one holds an even number of rows, two at
        # least, within the cell budget whenever the budget holds two.
        budget, step = inference._BLOCK_CELLS, 1 + depth % 2
        for width in [*range(2, 3000, 7), *range(3000, 300000, 997), 65536, 65537, 10**6]:
            per_block = inference._block_replications(width, depth)
            rows = per_block * depth
            assert rows % 2 == 0 and rows >= 2, width
            if step * depth * width <= budget:  # as many even rows as fit
                assert rows * width <= budget < (per_block + step) * depth * width, width


def _column_sets(size):
    """Named column sets of a grid of ``size`` points."""
    third = size // 3
    return {
        "first": [0],
        "last": [size - 1],
        "prefix": list(range(third)),
        "suffix": list(range(2 * third, size)),
        "two-intervals": [*range(0, 4), *range(third, 2 * third)],
        "scattered": [2, 5, 11, third + 1, size - 3],
        "every": list(range(size)),
    }


class TestColumns:
    """A block read off at some grid columns equals, bit for bit, the whole
    grid's block at those columns, whichever columns and however far the
    upward prefix sums stop."""

    @pytest.mark.parametrize("name", list(_column_sets(41)))
    @pytest.mark.parametrize("m", [3, 4, 12])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    @pytest.mark.parametrize("rows", [4, 5])
    @pytest.mark.parametrize("n", [37, 300])
    def test_columns_match_whole_grid(self, name, m, direction, stacked, rows, n):
        # At n = 37 every knot is binned; at n = 300 a set of columns that
        # stops short of the far end of p bins a leading (upward) or
        # trailing (downward) range of knots.
        rng = np.random.default_rng(7 * m + len(name) + rows + n)
        g = Grid.uniform(41)
        values = (np.sort(random_dp_values(rng, n * rows).reshape(rows, n), axis=1)
                  if stacked else np.sort(random_dp_values(rng, n)))
        w = np.stack([draw_weights(n, rng) for _ in range(rows)])
        columns = np.array(_column_sets(len(g))[name])
        sample = SortedSample(np.atleast_2d(values))
        full = eval_block(sample, w, m, direction, g)
        assert np.array_equal(full, expansion_rows(values, w, m, direction, g.points))
        work = BlockWorkspace()
        for _ in range(2):  # a second call reuses the workspace's views
            got = eval_block(sample, w, m, direction, g, work, columns)
            assert got.shape == (rows, len(columns))
            assert got.tobytes() == np.ascontiguousarray(full[:, columns]).tobytes()

    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_prefix_ending_on_a_level(self, direction):
        # G = n + 1 puts every grid point on a lattice level: a prefix of
        # columns 0..j stops upward at level j exactly, and the column at
        # p = 1 takes the sums to level n, the whole lattice.
        rng = np.random.default_rng(8)
        n, rows = 24, 3
        g = Grid.uniform(n + 1)
        values = np.sort(random_dp_values(rng, n))
        w = np.stack([draw_weights(n, rng) for _ in range(rows)])
        full = eval_block(SortedSample(values[None]), w, 4, direction, g)
        for columns in ([0], list(range(7)), list(range(n)), [3, n], list(range(n + 1))):
            got = eval_block(SortedSample(values[None]), w, 4, direction, g, columns=columns)
            assert got.tobytes() == np.ascontiguousarray(full[:, columns]).tobytes(), columns

    @pytest.mark.parametrize("margin", [0, 1, 10**9])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_binned_range_changes_no_bit(self, monkeypatch, margin, direction):
        # However far past the last level read the binned range of knots
        # runs (none: nearly every block falls back to all knots; one; all
        # of them), every value keeps its bits.
        rng = np.random.default_rng(11)
        n, g, rows = 300, Grid.uniform(41), 6
        values = np.sort(random_dp_values(rng, n))
        w = np.stack([draw_weights(n, rng) for _ in range(rows)])
        full = expansion_rows(values, w, 5, direction, g.points)
        monkeypatch.setattr(curves, "_margin", lambda n: margin)
        for columns in _column_sets(len(g)).values():
            got = eval_block(SortedSample(values[None]), w, 5, direction, g, columns=columns)
            assert got.tobytes() == np.ascontiguousarray(full[:, columns]).tobytes(), columns

    @pytest.mark.parametrize("end", ["first", "last", "both"])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_weight_at_one_end(self, end, direction):
        # All weight on the first observation puts every knot but the first
        # at level n: a downward suffix's range of knots then holds no
        # level it reads and falls back to all knots.  All weight on the
        # last observation does the same to an upward prefix.
        rng = np.random.default_rng(12)
        n, g = 300, Grid.uniform(41)
        values = np.sort(random_dp_values(rng, n))
        first, last = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        first[0] = last[-1] = n
        w = np.stack({"first": [first] * 3, "last": [last] * 3,
                      "both": [first, last, draw_weights(n, rng)]}[end])
        full = expansion_rows(values, w, 4, direction, g.points)
        exact = fraction_curves(values, w, 4, direction, g.points)
        for columns in ([0, 1, 2], list(range(12)), list(range(30, 41)), [38, 39, 40], None):
            got = eval_block(SortedSample(values[None]), w, 4, direction, g, columns=columns)
            want = full if columns is None else full[:, columns]
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), columns
            picked = range(len(g)) if columns is None else columns
            for row, exact_row in zip(got, exact):
                for value, j in zip(row, picked):
                    assert abs(Fraction(float(value)) - exact_row[j]) <= 1e-12 * abs(exact_row[j])

    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_bad_weights_beyond_the_range(self, direction):
        # Weights past the knots a block bins are not checked: the core's
        # weights are multinomial counts of n at every knot, and where its
        # columns stop short of the far end of p the block reads what the
        # whole grid gives.
        short = [(args, got) for args, got in core_calls()["inference.eval_block"]
                 if args["direction"] is direction and args["columns"] is not None
                 and (args["columns"][-1] < len(args["grid"]) - 1 if direction is UP
                      else args["columns"][0] > 0)]
        assert short
        for args, got in short:
            w = args["weights"]
            assert np.all(w >= 0) and np.all(w.sum(axis=1) == w.shape[1])
            full = eval_block(args["sample"], w, args["m"], direction, args["grid"])
            assert got.tobytes() == np.ascontiguousarray(full[:, args["columns"]]).tobytes()

    @pytest.mark.parametrize("columns", [[], [3, 2], [1, 1], [-1], [41], [[0, 1]], [0.0, 1.0]])
    def test_bad_columns(self, columns):
        # eval_block does not check its columns: the core passes
        # np.flatnonzero of a contact-set union, which always holds the
        # endpoint, and never a set like these.
        assert not grid_columns(columns, 41)
        for args, _ in core_calls()["inference.eval_block"]:
            if args["columns"] is not None:
                assert grid_columns(args["columns"], len(args["grid"]))


class _Recording(BlockWorkspace):
    """A workspace that records the shape of every array asked of it, by name."""

    def __init__(self):
        super().__init__()
        self.shapes: dict = {}

    def array(self, name, shape, dtype=np.float64):
        self.shapes.setdefault(name, []).append(shape)
        return super().array(name, shape, dtype)


class TestBinnedRange:
    """What makes the block's unchecked gathers and its short binned range
    safe: every cut lies inside the prefix sums, and a multinomial draw
    reaches the binned range's far end."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cuts_lie_within_the_prefix(self, data):
        n = data.draw(st.integers(1, 300))
        inner = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                   max_size=30, unique=True))
        grid = Grid(np.array([0.0, *sorted(inner), 1.0]))
        columns = np.array(sorted(data.draw(
            st.sets(st.integers(0, len(grid) - 1), min_size=1))))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        w = np.stack([draw_weights(n, rng) for _ in range(3)])
        values = np.sort(random_dp_values(rng, n))[None]
        for direction in (UP, DOWN):
            cut = grid._plan(n, 3, direction).at(columns)[0]
            work = _Recording()
            eval_block(SortedSample(values), w, 3, direction, grid, work, columns)
            (shape,) = work.shapes["prefix"]  # (pairs, stop + 1)
            assert 0 <= cut.min() and cut.max() < shape[1] <= n + 2

    @pytest.mark.parametrize("reach", [0.2, 0.8])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    @pytest.mark.parametrize("n", [500, 2000, 3000, 10**4])
    def test_draws_reach_the_margin(self, n, direction, reach):
        # 2 000 multinomial rows, in blocks of 100: none falls back to all
        # knots, so every block bins exactly stop + _margin(n) knots.
        rng = np.random.default_rng(n)
        grid = Grid.uniform(1001)
        last = int(reach * (len(grid) - 1))
        columns = np.arange(last + 1) if direction is UP else np.arange(1000 - last, 1001)
        values = np.sort(random_dp_values(rng, n))[None]
        work = _Recording()
        for _ in range(20):
            w = np.stack([draw_weights(n, rng) for _ in range(100)])
            eval_block(SortedSample(values), w, 3, direction, grid, work, columns)
        (stop,) = {shape[1] - 1 for shape in work.shapes["prefix"]}
        assert stop + curves._margin(n) < n + 1  # a range shorter than every knot
        assert work.shapes["levels"] == [(100, stop + curves._margin(n))] * 20


@lru_cache(maxsize=None)
def _exact_case(m, direction, stacked):
    """A block of four reweighted samples of 200 values, its weights and its
    exact curves on a grid of 41 points."""
    rng = np.random.default_rng(200 + m)
    n, rows = 200, 4
    values = (np.sort(random_dp_values(rng, n * rows).reshape(rows, n), axis=1)
              if stacked else np.sort(random_dp_values(rng, n)))
    w = rng.multinomial(n, np.full(n, 1 / n), size=rows)
    return values, w, fraction_curves(values, w, m, direction, Grid.uniform(41).points)


class TestExactOracle:
    """Curves against exact rational arithmetic: within 1e-12 of the exact
    value, relatively, wherever it is not 0, up to the largest degree and in
    both directions.  Downward the expansion about p = 1 keeps its terms
    small where the curve is small; in powers of p, they cancelled to a
    relative error of 3.6e-7 at m = 7 and 8.6e+2 at m = 12 near p = 1.  Upward
    the expansion in powers of p cancels mildly at p = 1 and m = 12, up to
    1.9e-12 on these data, which the bound for that case states."""

    BOUND = {(UP, 12): 1e-11}

    @pytest.mark.parametrize("name", ["every", "prefix", "suffix", "two-intervals", "scattered"])
    @pytest.mark.parametrize("m", [3, 7, 12])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    def test_relative_error(self, name, m, direction, stacked):
        values, w, exact = _exact_case(m, direction, stacked)
        g = Grid.uniform(41)
        columns = _column_sets(len(g))[name]
        got = eval_block(SortedSample(np.atleast_2d(values)), w, m, direction, g,
                         columns=columns)
        worst = max(abs(Fraction(float(got[b, i])) - exact[b][j]) / abs(exact[b][j])
                    for b in range(len(w)) for i, j in enumerate(columns) if exact[b][j])
        assert worst <= self.BOUND.get((direction, m), 1e-12)


class TestGoldenBits:
    """The block kernel's exact bits on one fixed block (n = 37, R = 5,
    G = 41), recorded from the row-by-row float kernel; any change to the
    kernel that moves a bit fails here."""

    DIGESTS = {
        (3, UP): "fbc6221c559a3624cb12e2f3ed5eb28e3316c86e9ce1c4ff15d69b590f86f692",
        (3, DOWN): "4af20b6b20e11b58b4cfc2322003b1bac2a4230810ea17418df96bc5b257ceed",
        (5, UP): "756ce5f400f9f2db2fc15d72c694593931e03957d201a630d5b2e23fba55db1f",
        (5, DOWN): "ed92efacde92c3b688597cf9dc5a985ab91383a2d7d795ad81693da736457e4f",
    }

    @pytest.mark.parametrize("m, direction", list(DIGESTS), ids=["3-up", "3-down", "5-up", "5-down"])
    def test_digest(self, m, direction):
        rng = np.random.default_rng(37)
        values = np.sort(rng.random(37) * 8.0)
        weights = rng.multinomial(37, np.full(37, 1 / 37), size=5)
        out = eval_block(SortedSample(values[None]), weights, m, direction, Grid.uniform(41))
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.DIGESTS[m, direction]
