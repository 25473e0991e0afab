import tracemalloc

import numpy as np
import pytest

from isdtest import (
    ConfigError,
    DataError,
    Direction,
    Scheme,
    SortedSample,
    TestConfig,
    make_paired,
    make_sample,
)
from isdtest import variance
from isdtest.curves import Grid
from isdtest.variance import CovKernel, sigma_curve
from conftest import (
    centered_clips,
    core_calls,
    dense_sigma_sq,
    fine_kernel,
    fraction_sigma_sq,
    independent_kernel,
    interval_weights,
    nested_sigma_oracle,
    random_dp_values,
    rel_err,
)

UP, DOWN = Direction.UP, Direction.DOWN


def vv_cov(x, y, t, t2):
    """Sample covariance (n - 1) of the clipped series min(Q_x(t), x_i) and
    min(Q_y(t2), y_i) of row-aligned columns, from the reference clips."""
    a = centered_clips(getattr(x, "values", x), [t])[:, 0]
    b = centered_clips(getattr(y, "values", y), [t2])[:, 0]
    return float(a @ b) / (len(a) - 1)


class TestVvCov:
    """The clip covariance that ``centered_clips`` and ``fine_kernel`` build on."""

    def test_variance_at_full_clip(self):
        s = make_sample([1, 2, 3])
        assert vv_cov(s, s, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_constant_clip_is_zero(self):
        s = make_sample([1, 2, 3])
        for p2 in (0.2, 0.7, 1.0):
            assert vv_cov(s, s, 1 / 3, p2) == 0.0

    def test_degenerate_sample(self):
        s = make_sample([4, 4, 4])
        assert vv_cov(s, s, 0.5, 0.9) == 0.0

    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(2)
        x = random_dp_values(rng, 30)
        xs = np.sort(x)
        q = xs[int(np.ceil(0.4 * 30)) - 1]
        q2 = xs[int(np.ceil(0.8 * 30)) - 1]
        want = np.cov(np.minimum(x, q), np.minimum(x, q2), ddof=1)[0, 1]
        assert vv_cov(x, x, 0.4, 0.8) == pytest.approx(want, rel=1e-12)


class TestKernel:
    """A degenerate kernel's zero variance, and the clip-covariance formulas
    of ``fine_kernel``, the kernel that the nested variance oracle integrates."""

    def test_degenerate_samples_zero(self):
        s = make_sample([2.0] * 10)
        k = independent_kernel(s, make_sample([3.0] * 12))
        for m in (3, 4):
            for direction in (UP, DOWN):
                assert np.all(k.sigma_sq_many(m, direction, np.linspace(0, 1, 11)) == 0.0)

    def test_identical_independent_convex_combination(self):
        rng = np.random.default_rng(9)
        vals = random_dp_values(rng, 35)
        s = make_sample(vals)
        t = 0.6
        want = vv_cov(s, s, t, t)  # (1-lam) Var + lam Var = Var
        assert fine_kernel(vals, vals, [t])[0, 0] == pytest.approx(want, rel=1e-12)

    def test_independent_mixture_formula(self):
        rng = np.random.default_rng(10)
        x1, x2 = random_dp_values(rng, 30), random_dp_values(rng, 50)
        s1, s2 = make_sample(x1), make_sample(x2)
        lam = 30 / 80
        t, t2 = 0.25, 0.85
        want = (1 - lam) * vv_cov(s1, s1, t, t2) + lam * vv_cov(s2, s2, t, t2)
        assert fine_kernel(x1, x2, [t, t2])[0, 1] == pytest.approx(want, rel=1e-12)

    def test_matched_four_term_formula(self):
        rng = np.random.default_rng(11)
        left = random_dp_values(rng, 40)
        right = left * rng.uniform(0.8, 1.2, size=40)
        t, t2 = 0.3, 0.7
        c11 = vv_cov(left, left, t, t2)
        c12 = vv_cov(left, right, t, t2)
        c21 = vv_cov(right, left, t, t2)
        c22 = vv_cov(right, right, t, t2)
        want = 0.5 * (c11 - c12 - c21 + c22)
        assert fine_kernel(left, right, [t, t2], matched=True)[0, 1] == pytest.approx(
            want, rel=1e-12)

    def test_matched_independent_columns_small_cross(self):
        # Shuffled pairing: the cross-covariance should vanish within
        # Monte Carlo error of the clipped product series.
        rng = np.random.default_rng(13)
        n = 5000
        left = random_dp_values(rng, n)
        right = random_dp_values(rng, n)
        t, t2 = 0.4, 0.7
        cross = vv_cov(left, right, t, t2)
        a = np.minimum(left, np.quantile(left, t))
        b = np.minimum(right, np.quantile(right, t2))
        mc_se = np.std((a - a.mean()) * (b - b.mean()), ddof=1) / np.sqrt(n)
        assert abs(cross) < 3 * mc_se


class TestIntervalWeights:
    def test_total_mass(self):
        # Rows must sum to p^(m-2)/(m-2)! (mirrored downward), so a constant
        # kernel c yields sigma^2 = c * p^(2m-4)/((m-2)!)^2: c*p^2 at m=3.
        breaks = np.concatenate(([0.0], np.arange(1, 8) / 7))
        ps = np.array([0.0, 0.25, 0.5, 1.0])
        from math import factorial

        for m in (3, 4, 5):
            w_up = interval_weights(breaks, ps, m, UP)
            assert w_up.sum(axis=1) == pytest.approx(ps ** (m - 2) / factorial(m - 2), abs=1e-15)
            w_dn = interval_weights(breaks, ps, m, DOWN)
            assert w_dn.sum(axis=1) == pytest.approx(
                (1 - ps) ** (m - 2) / factorial(m - 2), abs=1e-15)


def _layout(rng, n, matched):
    """Raw columns and their kernel: two independent samples, or n matched pairs."""
    x1 = random_dp_values(rng, n)
    if matched:
        x2 = x1 * rng.uniform(0.6, 1.4, size=n)
        return x1, x2, CovKernel.matched(make_paired(x1, x2))
    x2 = random_dp_values(rng, n + 1)
    return x1, x2, independent_kernel(make_sample(x1), make_sample(x2))


def _levels(n):
    """Every lattice level j/n, the endpoints, points inside (0, 1/n) and off the lattice."""
    lattice = np.arange(n + 1) / n
    inside = np.array([0.5, 1e-9, 1.0 - 1e-9]) / n
    return np.unique(np.concatenate((lattice, inside, np.linspace(0.0, 1.0, 23))))


def _bound(m):
    # Relative to max sigma^2: the moments lose accuracy with the degree, upward.
    return 1e-11 if m <= 4 else 1e-9 if m <= 6 else 1e-5


DEGREES = (3, 4, 5, 6, 12)
SCHEMES = pytest.mark.parametrize("matched", [False, True], ids=["independent", "matched"])


class TestPrefixMoments:
    @SCHEMES
    @pytest.mark.parametrize("n", [2, 3, 7, 501])
    @pytest.mark.parametrize("m", DEGREES)
    def test_matches_dense_reference(self, m, n, matched):
        rng = np.random.default_rng(100 * m + n)
        x1, x2, k = _layout(rng, n, matched)
        ps = _levels(n)
        for direction in (UP, DOWN):
            want = dense_sigma_sq(x1, x2, m, direction, ps, matched=matched)
            got = k.sigma_sq_many(m, direction, ps)
            assert np.max(np.abs(got - want)) <= _bound(m) * np.max(want)

    @SCHEMES
    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("m", DEGREES)
    def test_matches_fraction_oracle(self, m, n, matched):
        rng = np.random.default_rng(200 * m + n)
        x1, x2, k = _layout(rng, n, matched)
        ps = _levels(n)
        for direction in (UP, DOWN):
            want = np.array([fraction_sigma_sq(x1, x2, m, direction, p, matched=matched)
                             for p in ps])
            got = k.sigma_sq_many(m, direction, ps)
            assert np.max(np.abs(got - want)) <= _bound(m) * np.max(want)

    @SCHEMES
    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_shift_invariant(self, m, matched):
        rng = np.random.default_rng(300 + m)
        x1, x2, k = _layout(rng, 40, matched)
        shift = 25.0
        if matched:
            shifted = CovKernel.matched(make_paired(x1 + shift, x2 + shift))
        else:
            shifted = independent_kernel(make_sample(x1 + shift), make_sample(x2 + shift))
        ps = _levels(40)
        for direction in (UP, DOWN):
            base = k.sigma_sq_many(m, direction, ps)
            moved = shifted.sigma_sq_many(m, direction, ps)
            assert np.max(np.abs(moved - base)) <= 1e-12 * np.max(base)

    def test_unsorted_levels(self):
        rng = np.random.default_rng(17)
        _, _, k = _layout(rng, 30, False)
        ps = rng.permutation(_levels(30))
        for direction in (UP, DOWN):
            got = k.sigma_sq_many(4, direction, ps)
            want = np.array([k.sigma_sq_many(4, direction, np.array([p]))[0] for p in ps])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_memory_is_linear_in_n(self):
        # One dense (101 x n) float array alone would take 162 MB here.
        rng = np.random.default_rng(18)
        n = 200_000
        k = independent_kernel(make_sample(random_dp_values(rng, n)),
                                  make_sample(random_dp_values(rng, n)))
        ps = Grid.uniform(101).points
        tracemalloc.start()
        try:
            out = k.sigma_sq_many(3, UP, ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (101,)
        assert peak < 64 * 2 ** 20


class TestSigmaSq:
    def test_boundaries_exact_zero(self):
        rng = np.random.default_rng(3)
        k = independent_kernel(make_sample(random_dp_values(rng, 20)),
                                  make_sample(random_dp_values(rng, 30)))
        for m in (3, 4):
            assert k.sigma_sq_many(m, UP, np.array([0.0]))[0] == 0.0
            assert k.sigma_sq_many(m, DOWN, np.array([1.0]))[0] == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        k = independent_kernel(make_sample(random_dp_values(rng, 25)),
                                  make_sample(random_dp_values(rng, 25)))
        ps = np.linspace(0, 1, 41)
        for m in (3, 4):
            for direction in (UP, DOWN):
                assert np.all(k.sigma_sq_many(m, direction, ps) >= 0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.0 + 1e-12, np.nan, np.inf])
    def test_levels_validated(self, bad):
        # sigma_sq_many does not check its levels: the core passes the points
        # of the test's variance grid, and a Grid holds no level outside [0, 1].
        with pytest.raises(ConfigError):
            Grid(np.array([0.0, bad, 1.0]))
        for args, _ in core_calls()["CovKernel.sigma_sq_many"]:
            assert np.all((0.0 <= args["ps"]) & (args["ps"] <= 1.0))

    def test_degree_validation(self):
        # sigma_sq_many does not check the degree: the core passes the
        # config's m, and TestConfig holds it at 3 or more.
        assert {args["m"] for args, _ in core_calls()["CovKernel.sigma_sq_many"]} == {3, 5}
        with pytest.raises(ConfigError):
            TestConfig(m=2)

    def test_matches_nested_oracle_independent(self):
        # Sample sizes divide the fine-cell count, so the oracle's midpoint
        # sums integrate the step kernel without discretization error.
        rng = np.random.default_rng(42)
        cells = 1200
        for n1, n2 in ((20, 30), (48, 48), (40, 24)):
            x1, x2 = random_dp_values(rng, n1), random_dp_values(rng, n2)
            k = independent_kernel(make_sample(x1), make_sample(x2))
            mids = (np.arange(cells) + 0.5) / cells
            km = fine_kernel(x1, x2, mids)
            for m in (3, 4):
                for direction in (UP, DOWN):
                    for p in (0.25, 0.5, 0.75):
                        want = nested_sigma_oracle(km, cells, m, direction, p)
                        got = k.sigma_sq_many(m, direction, np.array([p]))[0]
                        assert rel_err(got, want, floor=1e-12) < 1e-6

    def test_matches_nested_oracle_matched(self):
        rng = np.random.default_rng(43)
        cells = 1200
        n = 40
        left = random_dp_values(rng, n)
        right = left * rng.uniform(0.6, 1.4, size=n)
        k = CovKernel.matched(make_paired(left, right))
        mids = (np.arange(cells) + 0.5) / cells
        km = fine_kernel(left, right, mids, matched=True)
        for m in (3, 4):
            for p in (0.25, 0.75):
                want = nested_sigma_oracle(km, cells, m, UP, p)
                got = k.sigma_sq_many(m, UP, np.array([p]))[0]
                assert rel_err(got, want, floor=1e-12) < 1e-6

    def test_scale_quadratic(self):
        rng = np.random.default_rng(14)
        x1, x2 = random_dp_values(rng, 30), random_dp_values(rng, 45)
        k = independent_kernel(make_sample(x1), make_sample(x2))
        kc = independent_kernel(make_sample(1000.0 * x1), make_sample(1000.0 * x2))
        for m, direction, p in ((3, UP, 0.4), (4, DOWN, 0.6)):
            assert kc.sigma_sq_many(m, direction, np.array([p]))[0] == pytest.approx(
                1e6 * k.sigma_sq_many(m, direction, np.array([p]))[0], rel=1e-9)

    def test_matched_identical_columns_zero(self):
        base = np.linspace(0.5, 4.0, 20)
        k = CovKernel.matched(make_paired(base, base))
        assert k.sigma_sq_many(3, UP, np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-18)


    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_matched_gathers_positions_in_range(self, monkeypatch, direction):
        # The row values are gathered without a bounds check: the positions
        # of each column's rows must be a permutation of range(n), ties
        # included.
        rng = np.random.default_rng(15)
        n = 30
        left, right = np.round(random_dp_values(rng, n), 1), np.round(random_dp_values(rng, n), 1)
        left[:5] = left[5]
        k = CovKernel.matched(make_paired(left, right))
        gathered, take = [], np.take
        monkeypatch.setattr(np, "take", lambda a, indices, *args, **kwargs:
                            gathered.append(np.array(indices)) or take(a, indices, *args, **kwargs))
        k.sigma_sq_many(4, direction, np.linspace(0.0, 1.0, 11))
        assert len(gathered) == 2
        for positions in gathered:
            assert np.array_equal(np.sort(positions), np.arange(n))


class TestSigmaCurve:
    """``sigma_curve`` is the trimmed standard deviation on the functional grid."""

    def _kernel(self, seed):
        rng = np.random.default_rng(seed)
        return independent_kernel(make_sample(random_dp_values(rng, 40)),
                                     make_sample(random_dp_values(rng, 40)))

    @pytest.mark.parametrize("xi", [1e-3, 1e-12])
    def test_interpolated_from_variance_grid(self, xi):
        k = self._kernel(15)
        vgrid, fgrid = Grid.uniform(11), Grid.uniform(101)
        got = sigma_curve(k, 3, UP, vgrid, fgrid, xi)
        want = np.interp(fgrid.points, vgrid.points, k.sigma_sq_many(3, UP, vgrid.points))
        assert np.array_equal(got, np.sqrt(np.maximum(want, xi)))
        assert np.all(got >= np.sqrt(xi))

    def test_zero_variance_is_floored(self):
        k = independent_kernel(make_sample([2.0] * 10), make_sample([3.0] * 12))
        got = sigma_curve(k, 4, DOWN, Grid.uniform(11), Grid.uniform(31), 0.001)
        assert np.array_equal(got, np.full(31, np.sqrt(0.001)))

    @pytest.mark.parametrize("xi", [0.0, -1.0, np.nan])
    def test_nonpositive_xi_rejected(self, xi):
        # sigma_curve does not check xi: the core passes the config's xi,
        # which TestConfig holds positive, so sigma-hat is at least sqrt(xi).
        with pytest.raises(ConfigError):
            TestConfig(xi=xi)
        for args, sigma in core_calls()["inference.sigma_curve"]:
            assert 0.0 < args["xi"] < np.inf and np.all(sigma >= np.sqrt(args["xi"]))


class TestStackedVariance:
    """Stacks of D samples of one size give, row by row, exactly the
    variance of each sample alone."""

    @staticmethod
    def _stacks(depth=4, n1=30, n2=45):
        rng = np.random.default_rng(41)
        return [np.stack([np.sort(random_dp_values(rng, n)) for _ in range(depth)])
                for n in (n1, n2)]

    @pytest.mark.parametrize("m", [3, 4, 6])
    @pytest.mark.parametrize("direction", [UP, DOWN], ids=lambda d: d.value)
    def test_sigma_curve_rows_match_each_pair(self, m, direction):
        x1, x2 = self._stacks()
        vgrid, fgrid = Grid.uniform(21), Grid.uniform(81)
        stacked = independent_kernel(SortedSample(x1), SortedSample(x2))
        # A floor far below the variance, so that every row's own values show.
        got = sigma_curve(stacked, m, direction, vgrid, fgrid, 1e-30)
        assert got.shape == (4, 81)
        for d in range(4):
            v = variance._variance_independent(x1[d], m, direction, vgrid.points)
            assert np.array_equal(
                variance._variance_independent(x1, m, direction, vgrid.points)[d], v)
            pair = independent_kernel(SortedSample(x1[d]), SortedSample(x2[d]))
            assert np.array_equal(got[d], sigma_curve(pair, m, direction, vgrid, fgrid, 1e-30))


class TestSampleVariance:
    """Kernels that share a memo compute each common sample's own variance
    term once; kernels without one compute their own, to the same bits."""

    def test_once_per_sample(self, monkeypatch):
        rng = np.random.default_rng(42)
        samples = [make_sample(random_dp_values(rng, n)) for n in (30, 40, 50)]
        computed, original = [], variance._variance_independent

        def counted(values, m, direction, ps):
            computed.append(len(values))
            return original(values, m, direction, ps)

        monkeypatch.setattr(variance, "_variance_independent", counted)
        vgrid, fgrid = Grid.uniform(21), Grid.uniform(81)
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        memo = {}
        shared = [sigma_curve(CovKernel(Scheme.INDEPENDENT, samples[a], samples[b], memo=memo),
                              4, DOWN, vgrid, fgrid, 1e-30) for a, b in pairs]
        assert sorted(computed) == [30, 40, 50]
        computed.clear()
        alone = [sigma_curve(independent_kernel(samples[a], samples[b]), 4, DOWN, vgrid,
                             fgrid, 1e-30) for a, b in pairs]
        assert sorted(computed) == sorted([30, 40, 50] * 4)
        assert all(np.array_equal(x, y) for x, y in zip(shared, alone))


@pytest.mark.parametrize("make", [
    lambda: independent_kernel(make_sample([1.5]), make_sample([1.0, 2.0, 3.0])),
    lambda: independent_kernel(make_sample([1.0, 2.0]), make_sample([4.0])),
    lambda: CovKernel.matched(make_paired([1.0], [2.0])),
], ids=["first", "second", "matched"])
def test_one_observation_is_data_error(make):
    # Too little data is an input problem, not a configuration one.
    with pytest.raises(DataError, match="at least two observations"):
        make()
