import warnings

import numpy as np
import pytest
import scipy.integrate

from isdtest import ConfigError, DataError, DoubleParetoParams, dp_sample
from isdtest.dgp import dp_quantile

from conftest import core_calls, dp_cdf, dp_mean, dp_pdf, substream


@pytest.fixture
def params():
    return DoubleParetoParams(3.0, 2.0)


class TestParams:
    def test_positive_required(self):
        with pytest.raises(ConfigError):
            DoubleParetoParams(-1.0, 2.0)
        with pytest.raises(ConfigError):
            DoubleParetoParams(3.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(1e308, 1e308), (1e200, 1e200), (3.0, 1e308)])
    def test_shape_overflow(self, alpha, beta):
        # alpha + beta or alpha * beta overflows to inf, which would zero the
        # lower mass alpha / (alpha + beta) (every draw 0) or the density.
        with pytest.raises(ConfigError, match="overflow"):
            DoubleParetoParams(alpha, beta)
        with pytest.raises(ConfigError, match="overflow"):
            DoubleParetoParams(np.float64(alpha), np.float64(beta))
        assert DoubleParetoParams(1e308, 1.0).lower_mass == 1.0

    def test_stored_as_floats(self):
        # A simulation keys its streams by these values, and an int key
        # hashes by its value while a float hashes by its bits.
        for given in ((3, 2), (3.0, 2.0), (np.float64(3.0), np.int64(2)), (3, 2, 1)):
            p = DoubleParetoParams(*given)
            assert p == DoubleParetoParams(3.0, 2.0)
            assert all(type(v) is float for v in (p.alpha, p.beta, p.scale))

    @pytest.mark.parametrize("given", [(10**400, 2.0), (3.0, 10**400), (3.0, 2.0, 10**400)],
                             ids=["alpha", "beta", "scale"])
    def test_overflowing_number_is_config_error(self, given):
        with pytest.raises(ConfigError, match="overflows"):
            DoubleParetoParams(*given)

    def test_heavy_tail_warns(self):
        with pytest.warns(UserWarning, match="alpha"):
            DoubleParetoParams(2.0, 1.0)
        with pytest.warns(UserWarning):
            DoubleParetoParams(1.5, 1.0)


class TestDensity:
    def test_integrates_to_one(self, params):
        low, _ = scipy.integrate.quad(lambda x: dp_pdf(params, x), 0, 1)
        up, _ = scipy.integrate.quad(lambda x: dp_pdf(params, x), 1, np.inf)
        assert low + up == pytest.approx(1.0, rel=1e-9)

    def test_mass_split(self, params):
        low, _ = scipy.integrate.quad(lambda x: dp_pdf(params, x), 0, 1)
        assert low == pytest.approx(params.lower_mass, rel=1e-10)


class TestCdf:
    def test_at_scale_point(self, params):
        assert dp_cdf(params, 1.0) == pytest.approx(3 / 5, rel=1e-14)
        numeric, _ = scipy.integrate.quad(lambda x: dp_pdf(params, x), 0, 1.0)
        assert dp_cdf(params, 1.0) == pytest.approx(numeric, rel=1e-9)

    def test_zero_and_limit(self, params):
        assert dp_cdf(params, 0.0) == 0.0
        assert dp_cdf(params, 1e12) > 1 - 1e-6

    def test_matches_numeric_integral(self, params):
        for x in (0.3, 0.9, 1.5, 4.0):
            numeric, _ = scipy.integrate.quad(lambda t: dp_pdf(params, t), 0, x, limit=200,
                                              points=[1.0] if x > 1 else None)
            assert dp_cdf(params, x) == pytest.approx(numeric, rel=1e-9)

    def test_monotone_right_continuous(self, params):
        xs = np.linspace(0, 10, 2001)
        f = dp_cdf(params, xs)
        assert np.all(np.diff(f) >= 0)


class TestQuantile:
    def test_symmetric_split(self):
        p = DoubleParetoParams(3.0, 3.0)
        assert dp_quantile(p, np.array([0.5]))[0] == pytest.approx(1.0, rel=1e-14)

    def test_zero(self, params):
        assert dp_quantile(params, np.zeros(1))[0] == 0.0

    def test_one_rejected(self, params):
        # dp_quantile does not check its levels: they come from
        # Generator.random, in [0, 1), and its largest value still maps to a
        # finite draw.
        calls = core_calls()
        for name in ("dgp.dp_quantile", "montecarlo.dp_quantile"):
            assert calls[name]
            for args, _ in calls[name]:
                assert np.all((0.0 <= args["u"]) & (args["u"] < 1.0))
        top, below = dp_quantile(params, np.array([np.nextafter(1.0, 0.0), 0.999]))
        assert np.isfinite(top) and top > below

    def test_round_trip(self, params):
        rng = substream(11, 0)
        u = rng.random(1000) * 0.999
        back = dp_cdf(params, dp_quantile(params, u))
        assert np.max(np.abs(back - u)) < 1e-12

    def test_round_trip_other_shapes(self):
        p = DoubleParetoParams(2.1, 1.5)
        u = np.linspace(0.0005, 0.999, 500)
        back = dp_cdf(p, dp_quantile(p, u))
        assert np.max(np.abs(back - u)) < 1e-12


class TestMean:
    def test_closed_form_against_numeric(self, params):
        low, _ = scipy.integrate.quad(lambda x: x * dp_pdf(params, x), 0, 1.0)
        up, _ = scipy.integrate.quad(lambda x: x * dp_pdf(params, x), 1.0, np.inf)
        assert dp_mean(params) == pytest.approx(low + up, rel=1e-9)
        assert dp_mean(params) == pytest.approx(1.0, rel=1e-12)

    def test_infinite_for_heavy_tail(self):
        with pytest.warns(UserWarning):
            p = DoubleParetoParams(1.0, 2.0)
        assert dp_mean(p) == np.inf


class TestSampling:
    def test_deterministic(self, params):
        a = dp_sample(params, 50, substream(3, 1))
        b = dp_sample(params, 50, substream(3, 1))
        assert np.array_equal(a.values, b.values)

    def test_positive_and_sorted(self, params):
        s = dp_sample(params, 200, substream(4, 2))
        assert np.all(s.values > 0)
        assert np.all(np.diff(s.values) >= 0)

    def test_ks_distance(self, params):
        n = 100_000
        s = dp_sample(params, n, substream(5, 3))
        f = dp_cdf(params, s.values)
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert d < 1.628 / np.sqrt(n)  # 1% critical value

    @pytest.mark.filterwarnings("ignore:upper-tail shape")
    def test_overflow_is_data_error(self):
        # alpha = 0.01 sends the quantiles of uniforms above about 0.9992
        # past the double range (20 000 draws hold some): inf, then a
        # DataError, and no RuntimeWarning on the way.
        params = DoubleParetoParams(0.01, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isinf(dp_quantile(params, np.array([1.0 - 2.0**-53]))).all()
            with pytest.raises(DataError, match="non-finite"):
                dp_sample(params, 20_000, substream(7, 5))

    def test_mean_mc(self, params):
        n = 1_000_000
        s = dp_sample(params, n, substream(6, 4))
        # Var(X) = E[X^2] - 1 = alpha*beta/((alpha-2)(beta+2)) - 1 = 0.5
        se = np.sqrt(0.5 / n)
        assert abs(float(np.mean(s.values)) - 1.0) < 4 * se
