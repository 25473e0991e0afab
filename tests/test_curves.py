import numpy as np
import pytest

from isdtest import (
    BlockWorkspace,
    ConfigError,
    DataError,
    Direction,
    Grid,
    LambdaCurve,
    SortedSample,
    draw_weights,
    eval_block,
    eval_on_grid,
    make_sample,
)

from conftest import point_lambda, quad_lambda, random_dp_values, rel_err

UP, DOWN = Direction.UP, Direction.DOWN


def curve(values, m, direction):
    return LambdaCurve(make_sample(values), m, direction)


def at(c, *ps):
    """Values of a curve at the points ``ps``, read off a grid that contains them."""
    pts = np.unique(np.concatenate(([0.0, 1.0], ps)))
    y = eval_on_grid(c, Grid(pts))
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
        s = make_sample([1, 2])
        with pytest.raises(ConfigError):
            LambdaCurve(s, 2, DOWN)
        with pytest.raises(ConfigError):
            LambdaCurve(s, 1, UP)
        with pytest.raises(ConfigError):
            LambdaCurve(s, 13, UP)

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
            weighted = eval_block(make_sample(vals), w[None, :], m, direction, g)[0]
            expanded = eval_on_grid(curve(np.repeat(vals, w), m, direction), g)
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
            y = eval_on_grid(curve(vals, m, UP), g)
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
    return eval_on_grid(second, grid) - eval_on_grid(first, grid)


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
            grid_vals = eval_on_grid(c, g)
            for i in range(0, 101, 10):
                assert grid_vals[i] == pytest.approx(
                    point_lambda(np.sort(vals), cum, m, direction, g.points[i]),
                    rel=1e-11, abs=1e-13)

    def test_constant_sample(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        y = eval_on_grid(curve([4, 4, 4], 2, UP), g)
        assert y == pytest.approx([0.0, 2.0, 4.0], rel=1e-14)

    def test_identical_difference_all_zero(self):
        g = Grid.uniform(17)
        assert np.all(difference(curve([1, 2], 3, UP), curve([1, 2], 3, UP), g) == 0.0)

    def test_endpoints_example(self):
        g = Grid(np.array([0.0, 1.0]))
        y = eval_on_grid(curve([1, 2, 3], 3, UP), g)
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
                want = eval_block(SortedSample(row), w[d:d + 1], m, direction, g)[0]
                assert np.array_equal(got[d], want), d

    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_eval_on_grid_of_a_stack(self, direction):
        stack = self._stack(np.random.default_rng(32), depth=3, n=25)
        g = Grid.uniform(41)
        got = eval_on_grid(LambdaCurve(SortedSample(stack), 4, direction), g)
        assert got.shape == (3, 41)
        for row, values in zip(got, stack):
            assert np.array_equal(row, eval_on_grid(curve(values, 4, direction), g))

    def test_stack_must_match_weights(self):
        stack = self._stack(np.random.default_rng(33), depth=3, n=10)
        with pytest.raises(DataError):
            eval_block(SortedSample(stack), np.ones((2, 10), dtype=np.int64), 3, UP,
                       Grid.uniform(11))
