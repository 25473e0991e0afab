import numpy as np
import pytest

from isdtest import inference
from isdtest import (
    ConfigError,
    Direction,
    DoubleParetoParams,
    FunctionalKind,
    Relation,
    Scheme,
    TestConfig,
    dp_sample,
    make_paired,
    make_sample,
    pairwise_rank,
    run_test,
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
        assert cfg.grid == 1001 and cfg.vgrid == 101

    def test_string_coercion(self):
        cfg = TestConfig(direction="down", kind="int", scheme="matched")
        assert cfg.direction is Direction.DOWN
        assert cfg.kind is FunctionalKind.INT
        assert cfg.scheme is Scheme.MATCHED

    @pytest.mark.parametrize("kw", [
        dict(m=2), dict(m=13), dict(alpha=0.0), dict(alpha=1.0),
        dict(tau=0.0), dict(tau=-1.0), dict(xi=0.0), dict(eta=-0.1),
        dict(bootstrap=0), dict(grid=1), dict(threads=0),
        dict(eta=float("nan")), dict(eta=float("inf")),
        dict(xi=float("inf")), dict(xi=float("nan")),
        dict(bootstrap=2.5), dict(grid=10.5), dict(vgrid=10.5), dict(threads=2.0),
        dict(m=3.0), dict(seed=1.5), dict(bootstrap=True), dict(grid="11"),
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

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
    def test_thread_count_does_not_change_result(self, scheme, monkeypatch):
        # Small blocks, so that the 99 replications span many of them.
        monkeypatch.setattr(inference, "_BLOCK_CELLS", 8 * 91)
        rng = np.random.default_rng(5)
        a = random_dp_values(rng, 90)
        b = random_dp_values(rng, 90)
        if scheme is Scheme.MATCHED:
            args = (make_paired(a, b), None)
        else:
            args = (make_sample(a), make_sample(b))
        r1 = run_test(*args, quick_cfg(threads=1, scheme=scheme))
        r3 = run_test(*args, quick_cfg(threads=3, scheme=scheme))
        assert r1.statistic == r3.statistic
        assert r1.critical_value == r3.critical_value
        assert r1.p_value == r3.p_value

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

    def test_unique_labels(self):
        rng = np.random.default_rng(11)
        s = make_sample(random_dp_values(rng, 10))
        with pytest.raises(ConfigError):
            pairwise_rank([("x", s), ("x", s)], quick_cfg())

    def test_threaded_matches_serial(self):
        rng = np.random.default_rng(12)
        sets = [(name, make_sample(random_dp_values(rng, 60))) for name in "abc"]
        m1 = pairwise_rank(sets, quick_cfg(threads=1))
        m2 = pairwise_rank(sets, quick_cfg(threads=2))
        assert m1.to_table() == m2.to_table()
        for d1, d2 in zip(m1.decisions, m2.decisions):
            assert d1 == d2
