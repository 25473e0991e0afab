from math import sqrt

import numpy as np
import pytest

from isdtest import bootstrap, inference, variance
from isdtest import (
    ConfigError,
    CovKernel,
    DataError,
    Direction,
    DoubleParetoParams,
    FunctionalKind,
    Grid,
    LambdaCurve,
    Relation,
    Scheme,
    SimSpec,
    TestConfig,
    critical_value,
    derivative,
    dp_sample,
    draw_weights,
    estimate_contact_set,
    eval_block,
    eval_on_grid,
    functional,
    make_paired,
    make_sample,
    p_value,
    pairwise_rank,
    run_table,
    run_test,
    sigma_curve,
    substream,
)

from conftest import random_dp_values


def quick_cfg(**kw):
    base = dict(bootstrap=99, grid=201, vgrid=51, seed=7)
    base.update(kw)
    return TestConfig(**base)


class TestConfigValidation:
    def test_defaults(self):
        cfg = TestConfig()
        assert cfg.m == 3 and cfg.tau == 3.0 and cfg.xi == 1e-3
        assert cfg.alpha == 0.05 and cfg.eta == 0.0 and cfg.bootstrap == 999
        assert cfg.grid == 1001 and cfg.vgrid == 101 and cfg.threads == 1

    def test_string_coercion(self):
        cfg = TestConfig(direction="down", kind="int", scheme="matched")
        assert cfg.direction is Direction.DOWN
        assert cfg.kind is FunctionalKind.INT
        assert cfg.scheme is Scheme.MATCHED

    @pytest.mark.parametrize("kw", [
        dict(m=2), dict(m=13), dict(alpha=0.0), dict(alpha=1.0),
        dict(tau=0.0), dict(tau=-1.0), dict(xi=0.0), dict(eta=-0.1),
        dict(bootstrap=0), dict(grid=1), dict(threads=0), dict(threads=2), dict(threads=8),
        dict(eta=float("nan")), dict(eta=float("inf")),
        dict(xi=float("inf")), dict(xi=float("nan")),
        dict(bootstrap=2.5), dict(grid=10.5), dict(vgrid=10.5), dict(threads=2.0),
        dict(m=3.0), dict(seed=1.5), dict(bootstrap=True), dict(grid="11"),
        dict(alpha="0.05"), dict(tau="3"), dict(xi=None), dict(direction="sideways"),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            TestConfig(**kw)

    def test_numpy_integers_become_ints(self):
        cfg = TestConfig(m=np.int64(4), bootstrap=np.int32(9), seed=np.uint64(7))
        assert (cfg.m, cfg.bootstrap, cfg.seed) == (4, 9, 7)
        assert all(type(v) is int for v in (cfg.m, cfg.bootstrap, cfg.seed, cfg.grid))

    def test_infinite_tau_allowed(self):
        assert np.isinf(TestConfig(tau=float("inf")).tau)


class TestRunTest:
    def test_duplicated_sample_never_rejects(self):
        rng = np.random.default_rng(1)
        s = make_sample(random_dp_values(rng, 60))
        for direction in Direction:
            for kind in FunctionalKind:
                res = run_test(s, s, quick_cfg(direction=direction, kind=kind))
                assert res.statistic == 0.0
                assert not res.reject
                assert res.p_value == 1.0

    def test_decision_consistency_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        for seed in range(4):
            s1 = make_sample(random_dp_values(rng, 80))
            s2 = make_sample(random_dp_values(rng, 120))
            res = run_test(s1, s2, quick_cfg(seed=seed))
            assert res.reject == (res.statistic > res.critical_value)
            assert res.statistic >= 0.0
            assert 0.0 <= res.p_value <= 1.0
            assert 0.0 <= res.contact_fraction <= 1.0
            assert res.t_n == pytest.approx(80 * 120 / 200)

    def test_scale_equivariance_with_coscaled_floor(self):
        rng = np.random.default_rng(3)
        c = 1000.0
        for seed in range(3):
            a = random_dp_values(rng, 70)
            b = random_dp_values(rng, 90)
            cfg = quick_cfg(seed=seed)
            cfg_scaled = quick_cfg(seed=seed, xi=cfg.xi * c * c)
            r1 = run_test(make_sample(a), make_sample(b), cfg)
            r2 = run_test(make_sample(c * a), make_sample(c * b), cfg_scaled)
            assert r2.statistic == pytest.approx(c * r1.statistic, rel=1e-9)
            assert r2.critical_value == pytest.approx(c * r1.critical_value, rel=1e-9)
            assert r2.reject == r1.reject

    def test_shift_monotone_statistic(self):
        rng = np.random.default_rng(4)
        a = random_dp_values(rng, 60)
        b = random_dp_values(rng, 60)
        cfg = quick_cfg()
        stats = []
        for delta in (0.0, 0.3, 0.8, 1.5):
            res = run_test(make_sample(a), make_sample(b + delta), cfg)
            stats.append(res.statistic)
        assert np.all(np.diff(stats) >= -1e-12)

    def test_matched_requires_paired(self):
        rng = np.random.default_rng(6)
        s = make_sample(random_dp_values(rng, 20))
        with pytest.raises(ConfigError):
            run_test(s, s, quick_cfg(scheme=Scheme.MATCHED))
        pairs = make_paired(random_dp_values(rng, 20), random_dp_values(rng, 20))
        with pytest.raises(ConfigError):
            run_test(pairs, None, quick_cfg())  # independent scheme wants two samples

    def test_matched_runs(self):
        rng = np.random.default_rng(7)
        base = random_dp_values(rng, 120)
        pairs = make_paired(base, base * rng.uniform(0.8, 1.25, size=120))
        res = run_test(pairs, None, quick_cfg(scheme=Scheme.MATCHED))
        assert res.statistic >= 0.0
        assert res.reject == (res.statistic > res.critical_value)

    def test_eta_floors_critical_value(self):
        rng = np.random.default_rng(8)
        s = make_sample(random_dp_values(rng, 40))
        res = run_test(s, s, quick_cfg(eta=123.0))
        assert res.critical_value == 123.0


class TestPairwiseRank:
    def test_identical_datasets_none(self):
        rng = np.random.default_rng(9)
        s = make_sample(random_dp_values(rng, 80))
        matrix = pairwise_rank([("a", s), ("b", s)], quick_cfg())
        assert matrix.relation("a", "b") is Relation.NONE
        assert matrix.relation("b", "a") is Relation.NONE

    def test_shifted_transitive_ordering(self):
        rng = substream(31, 0)
        dgp = DoubleParetoParams(3.0, 2.0)
        n = 1200
        a = dp_sample(dgp, n, rng)
        b = make_sample(dp_sample(dgp, n, rng).values + 1.0)
        c = make_sample(dp_sample(dgp, n, rng).values + 2.0)
        cfg = TestConfig(bootstrap=199, seed=5)
        matrix = pairwise_rank([("a", a), ("b", b), ("c", c)], cfg)
        assert matrix.relation("a", "b") is Relation.LESS
        assert matrix.relation("b", "a") is Relation.GREATER
        assert matrix.relation("a", "c") is Relation.LESS
        assert matrix.relation("b", "c") is Relation.LESS
        table = matrix.to_table()
        assert table[0][1] == "<" and table[0][2] == "<" and table[1][2] == "<"

    def test_requires_two(self):
        rng = np.random.default_rng(10)
        s = make_sample(random_dp_values(rng, 10))
        with pytest.raises(ConfigError):
            pairwise_rank([("only", s)], quick_cfg())

    def test_requires_sorted_samples(self):
        rng = np.random.default_rng(11)
        s = make_sample(random_dp_values(rng, 10))
        with pytest.raises(ConfigError):
            pairwise_rank([("x", s), ("y", list(s.values))], quick_cfg())

    def test_unique_labels(self):
        rng = np.random.default_rng(11)
        s = make_sample(random_dp_values(rng, 10))
        with pytest.raises(ConfigError):
            pairwise_rank([("x", s), ("x", s)], quick_cfg())


def _rank_sets():
    rng = substream(8, 0)
    return [(c, make_sample(random_dp_values(rng, n) + 0.02 * i))
            for i, (c, n) in enumerate(zip("abc", (60, 70, 80)))]


RANK_SETS = _rank_sets()


def rank_cfg(**kw):
    base = dict(bootstrap=49, grid=101, vgrid=21, seed=4)
    base.update(kw)
    return TestConfig(**base)


RANK_PINNED = {
    ("up", "sup"): [(4, 49), (2, 49), (23, 31)],
    ("up", "int"): [(4, 49), (1, 49), (21, 31)],
    ("down", "sup"): [(4, 49), (2, 49), (28, 21)],
    ("down", "int"): [(3, 49), (2, 49), (29, 22)],
}


def _rank_reference(samples, cfg):
    """Both nulls of every pair, dataset k's replication b drawn from
    (seed, k, b) and each dataset's B curves evaluated in one block."""
    fgrid, vgrid = Grid.uniform(cfg.grid), Grid.uniform(cfg.vgrid)
    m, direction, kind = cfg.m, cfg.direction, cfg.kind
    def rows(k, n):
        return np.stack([draw_weights(n, substream(cfg.seed, inference._RANK_TAG, k, b))
                         for b in range(cfg.bootstrap)])

    boot = [eval_block(s, rows(k, s.n), m, direction, fgrid) for k, s in enumerate(samples)]
    curves = [eval_on_grid(LambdaCurve(s, m, direction), fgrid) for s in samples]

    def null(a, b):  # H0: dataset a dominates dataset b
        t_n = samples[a].n * samples[b].n / (samples[a].n + samples[b].n)
        phi = curves[b] - curves[a]
        vhat = sigma_curve(CovKernel.independent(samples[a], samples[b]), m, direction,
                           vgrid, fgrid, cfg.xi)
        cs = estimate_contact_set(phi, vhat, t_n, cfg.tau, fgrid)
        statistic = sqrt(t_n) * functional(kind, phi, fgrid)
        stats = derivative(kind, sqrt(t_n) * (boot[b] - boot[a] - phi), cs, fgrid)
        return bool(statistic > critical_value(stats, cfg.alpha)), p_value(stats, statistic)

    return [null(i, j) + null(j, i)
            for i in range(len(samples)) for j in range(i + 1, len(samples))]


COMBOS = pytest.mark.parametrize(
    "direction, kind", [(d, k) for d in Direction for k in FunctionalKind],
    ids=lambda v: v.value)


class TestRankDraws:
    """Ranking draws each dataset once per replication, from (seed, k, b)."""

    @COMBOS
    def test_reference(self, direction, kind, monkeypatch):
        # Blocks of 7 rows (101 grid points), so that the replications span many of them.
        monkeypatch.setattr(inference, "_BLOCK_CELLS", 7 * 102)
        cfg = rank_cfg(direction=direction, kind=kind)
        matrix = pairwise_rank(RANK_SETS, cfg)
        got = [(d.reject_a_dominates, d.p_a_dominates, d.reject_b_dominates, d.p_b_dominates)
               for d in matrix.decisions]
        assert got == _rank_reference([s for _, s in RANK_SETS], cfg)

    def test_draws_each_dataset_once(self, monkeypatch):
        calls = []

        def counted(n, rng):
            calls.append(n)
            return draw_weights(n, rng)

        monkeypatch.setattr(bootstrap, "draw_weights", counted)
        cfg = rank_cfg()
        pairwise_rank(RANK_SETS, cfg)
        assert len(calls) == 3 * cfg.bootstrap
        assert sorted(calls) == sorted([s.n for _, s in RANK_SETS] * cfg.bootstrap)

    def test_variance_once_per_dataset(self, monkeypatch):
        # Each dataset's own variance term serves both nulls of its K - 1 pairs.
        computed, original = [], variance._variance_independent

        def counted(values, m, direction, ps):
            computed.append(values.shape[-1])
            return original(values, m, direction, ps)

        monkeypatch.setattr(variance, "_variance_independent", counted)
        pairwise_rank(RANK_SETS, rank_cfg())
        assert sorted(computed) == sorted(s.n for _, s in RANK_SETS)

    @COMBOS
    def test_pinned_p_values(self, direction, kind):
        # Bootstrap p-value counts out of B = 49 per pair (a < b, a < c, b < c)
        # as (a dominates b, b dominates a), recorded when ranking drew each
        # dataset once per replication.
        matrix = pairwise_rank(RANK_SETS, rank_cfg(direction=direction, kind=kind))
        counts = [(round(d.p_a_dominates * 49), round(d.p_b_dominates * 49))
                  for d in matrix.decisions]
        assert counts == RANK_PINNED[direction.value, kind.value]
        for d, (ab, ba) in zip(matrix.decisions, counts):
            assert (d.p_a_dominates, d.p_b_dominates) == (ab / 49, ba / 49)


class TestNonFinite:
    """Data whose variance or curves overflow give a DataError, and no
    numpy warning escapes (tier-1 turns RuntimeWarning into an error)."""

    @pytest.mark.parametrize("scale", [2.0 ** 510, 1e300], ids=["2^510", "1e300"])
    def test_run_test(self, scale):
        rng = np.random.default_rng(13)
        a, b = random_dp_values(rng, 80), random_dp_values(rng, 90)
        with pytest.raises(DataError, match="overflows"):
            run_test(make_sample(a * scale), make_sample(b * scale), quick_cfg())
        with pytest.raises(DataError, match="overflows"):
            run_test(make_sample(a * scale), make_sample(b * scale),
                     quick_cfg(direction=Direction.DOWN, kind=FunctionalKind.INT))
        # The same data one power of two below the overflow still test.
        res = run_test(make_sample(a * 2.0 ** 500), make_sample(b * 2.0 ** 500), quick_cfg())
        assert np.isfinite(res.statistic) and np.isfinite(res.critical_value)

    def test_matched(self):
        rng = np.random.default_rng(14)
        a, b = random_dp_values(rng, 80), random_dp_values(rng, 80)
        with pytest.raises(DataError, match="overflows"):
            run_test(make_paired(a * 1e300, b * 1e300), None, quick_cfg(scheme=Scheme.MATCHED))

    def test_rank_and_simulation(self):
        rng = np.random.default_rng(15)
        big = [(c, make_sample(random_dp_values(rng, 50) * 2.0 ** 510)) for c in "ab"]
        with pytest.raises(DataError, match="overflows"):
            pairwise_rank(big, quick_cfg())
        dgp = DoubleParetoParams(3.0, 2.0, scale=2.0 ** 510)
        spec = SimSpec(dgp, dgp, 50, 50, quick_cfg(), 3)
        with pytest.raises(DataError, match="overflows"):
            run_table([spec])
