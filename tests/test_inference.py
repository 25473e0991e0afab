from dataclasses import asdict, fields
from math import sqrt

import numpy as np
import pytest

from isdtest import bootstrap, inference, variance
from isdtest import (
    ConfigError,
    DataError,
    Direction,
    DoubleParetoParams,
    FunctionalKind,
    PairDecision,
    RankingMatrix,
    Relation,
    Scheme,
    SimMode,
    SimSpec,
    SortedSample,
    TestConfig,
    TestResult,
    dp_sample,
    make_paired,
    make_sample,
    pairwise_rank,
    run_table,
    run_test,
)
from isdtest.bootstrap import critical_value, draw_weights, p_value
from isdtest.curves import Grid, LambdaCurve, eval_block, eval_on_grid
from isdtest.functionals import derivative, estimate_contact_set, functional
from isdtest.variance import sigma_curve

from conftest import (
    full_grid_bootstrap_stats,
    independent_kernel,
    random_dp_values,
    reference_rank,
    reference_test,
    stacked,
    substream,
)


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
        dict(alpha=10**400), dict(tau=10**400), dict(xi=10**400), dict(eta=10**400),
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

    def test_stacked_sample_rejected(self):
        # A (D, n) stack is the core's layout; each argument is one sample.
        rng = np.random.default_rng(9)
        one = make_sample(random_dp_values(rng, 50))
        stack = SortedSample(np.sort(random_dp_values(rng, (2, 50)), axis=1))
        for args in ((stack, one), (one, stack)):
            with pytest.raises(ConfigError, match=r"one sample, with values of shape \(n,\)"):
                run_test(*args, quick_cfg())

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


    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
    def test_float_fields_are_python_floats(self, scheme):
        # repr(result) prints plain numbers only when no field is a numpy
        # scalar; eta = 50 floors the critical value at the configured float.
        rng = np.random.default_rng(10)
        a, b = random_dp_values(rng, 60), random_dp_values(rng, 60)
        args = ((make_paired(a, b), None) if scheme is Scheme.MATCHED
                else (make_sample(a), make_sample(b)))
        names = [f.name for f in fields(TestResult) if f.type == "float"]
        assert names == ["statistic", "critical_value", "p_value", "contact_fraction", "t_n",
                         "elapsed_ms"]
        for eta in (0.0, 50.0):
            res = run_test(*args, quick_cfg(scheme=scheme, eta=eta))
            assert [type(getattr(res, name)) for name in names] == [float] * len(names)
            assert type(res.reject) is bool and "np." not in repr(res)


def _reference_samples():
    # Sample 2's curves lie far above sample 1's over part of the grid, so
    # that the contact sets at tau = 3 are partial.
    rng = np.random.default_rng(5)
    x, y = random_dp_values(rng, 24), random_dp_values(rng, 32, alpha=3.5, beta=2.5)
    return make_sample(0.4 * y), make_sample(x)


REFERENCE_SAMPLES = _reference_samples()


def _reference_rank_sets():
    rng = np.random.default_rng(0)
    return [(c, make_sample(scale * random_dp_values(rng, n)))
            for c, n, scale in zip("abc", (20, 26, 32), (1.0, 1.25, 1.6))]


REFERENCE_RANK_SETS = _reference_rank_sets()


class TestReference:
    """``run_test`` against ``conftest.reference_test``, the test written
    from the paper's definitions in exact arithmetic.  The decisions,
    p-values and contact fractions are equal; the statistics and critical
    values agree within a relative 1e-10 (the package's curves round, the
    reference's do not; measured: 1.2e-14 at most).  No grid point lies
    within a relative 1e-6 of its contact set's boundary (measured: 0.011
    at least), so rounding of that size cannot move a member.  On these
    samples 35 of the 48 configurations reject, the contact sets at
    tau = 1 hold 1 to 13 of the 21 grid points and those at tau = 3 2 to
    18, so no tau = 3 set is full, and eta = 0.3 floors 20 critical
    values.  ``pairwise_rank`` of three datasets is checked against
    ``conftest.reference_rank`` the same way: every decision's reject
    flags and p-values are equal; 16 of its 48 nulls reject, and 16 of its
    24 pairs are strictly ranked."""

    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_reference(self, m, direction):
        s1, s2 = REFERENCE_SAMPLES
        for kind in FunctionalKind:
            for tau in (1.0, 3.0, float("inf")):
                for eta in (0.0, 0.3):
                    cfg = TestConfig(m=m, direction=direction, kind=kind, tau=tau, eta=eta,
                                     bootstrap=39, grid=21, vgrid=11, seed=17)
                    got, want = run_test(s1, s2, cfg), reference_test(s1, s2, cfg)
                    assert want["margin"] > 1e-6
                    assert (got.reject, got.p_value, got.contact_fraction) == (
                        want["reject"], want["p_value"], want["contact_fraction"]), cfg
                    assert got.statistic == pytest.approx(want["statistic"], rel=1e-10, abs=0)
                    assert got.critical_value == pytest.approx(want["critical_value"], rel=1e-10,
                                                               abs=0)

    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    def test_rank_matches_reference(self, direction):
        for kind in FunctionalKind:
            for tau in (1.0, float("inf")):
                cfg = TestConfig(direction=direction, kind=kind, tau=tau, bootstrap=39, grid=21,
                                 vgrid=11, seed=23)
                got = pairwise_rank(REFERENCE_RANK_SETS, cfg)
                want = reference_rank(REFERENCE_RANK_SETS, cfg)
                assert all(pair.pop("margin") > 1e-6 for pair in want)
                assert [asdict(d) for d in got.decisions] == want, cfg


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

    def test_independent_samples_only(self):
        rng = np.random.default_rng(13)
        s = make_sample(random_dp_values(rng, 10))
        with pytest.raises(ConfigError, match="independent samples only"):
            pairwise_rank([("x", s), ("y", s)], quick_cfg(scheme=Scheme.MATCHED))

    def test_stacked_dataset_rejected(self):
        rng = np.random.default_rng(12)
        one = make_sample(random_dp_values(rng, 50))
        stack = SortedSample(np.sort(random_dp_values(rng, (2, 50)), axis=1))
        with pytest.raises(ConfigError, match=r"one sample, with values of shape \(n,\)"):
            pairwise_rank([("x", one), ("y", stack)], quick_cfg())


class TestRankingMatrix:
    """Relations read off a hand-built matrix of four labels."""

    LESS, GREATER, NONE = Relation.LESS, Relation.GREATER, Relation.NONE
    # (a, b, reject "a dominates b", reject "b dominates a", relation of a to b)
    PAIRS = [("w", "x", True, False, LESS), ("w", "y", False, True, GREATER),
             ("w", "z", False, False, NONE), ("x", "y", True, True, NONE),
             ("x", "z", True, False, LESS), ("y", "z", False, True, GREATER)]
    REVERSED = {LESS: GREATER, GREATER: LESS, NONE: NONE}

    def matrix(self):
        return RankingMatrix(labels=("w", "x", "y", "z"), decisions=tuple(
            PairDecision(a, b, ab, ba, 0.01 if ab else 0.5, 0.01 if ba else 0.5)
            for a, b, ab, ba, _ in self.PAIRS))

    def test_ordered_pairs_are_antisymmetric(self):
        matrix = self.matrix()
        for decision, (a, b, _, _, want) in zip(matrix.decisions, self.PAIRS):
            assert decision.relation is want
            assert matrix.relation(a, b) is want
            assert matrix.relation(b, a) is self.REVERSED[want]

    def test_diagonal_is_none(self):
        matrix = self.matrix()
        assert all(matrix.relation(a, a) is Relation.NONE for a in matrix.labels)

    def test_table(self):
        assert self.matrix().to_table() == [["", "<", ">", ""],
                                            ["", "", "", "<"],
                                            ["", "", "", ">"],
                                            ["", "", "", ""]]

    def test_unknown_label(self):
        matrix = self.matrix()
        for a, b in (("v", "w"), ("w", "v"), ("v", "v")):
            with pytest.raises(ConfigError, match="'v'"):
                matrix.relation(a, b)

    @pytest.mark.parametrize("labels, pairs, match", [
        (("a", "b", "c"), [("a", "b")], "no decision for the pair 'a', 'c'"),
        (("a", "b"), [("a", "b"), ("b", "a")], "more than one decision"),
        (("a", "b"), [("a", "b"), ("a", "b")], "more than one decision"),
        (("a", "b"), [("a", "a"), ("a", "b")], "with itself"),
        (("a", "b"), [("a", "c")], "unknown dataset label 'c'"),
        (("a", "a"), [("a", "b")], "unique"),
    ], ids=["missing", "reversed", "repeated", "self", "unknown", "duplicate-label"])
    def test_decisions_validated(self, labels, pairs, match):
        # One decision per unordered pair of distinct known labels: a missing
        # pair made to_table raise a bare KeyError, and (a, b) beside (b, a)
        # gave contradictory relations.
        decisions = tuple(PairDecision(a, b, True, False, 0.01, 0.5) for a, b in pairs)
        with pytest.raises(ConfigError, match=match):
            RankingMatrix(labels=labels, decisions=decisions)


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

    boot = [eval_block(stacked(s), rows(k, s.n), m, direction, fgrid)
            for k, s in enumerate(samples)]
    curves = [eval_on_grid(LambdaCurve(stacked(s), m, direction), fgrid)[0] for s in samples]

    def null(a, b):  # H0: dataset a dominates dataset b
        t_n = samples[a].n * samples[b].n / (samples[a].n + samples[b].n)
        phi = curves[b] - curves[a]
        vhat = sigma_curve(independent_kernel(samples[a], samples[b]), m, direction,
                           vgrid, fgrid, cfg.xi)
        cs = estimate_contact_set(phi, vhat, t_n, cfg.tau)
        statistic = sqrt(t_n) * float(functional(kind, phi, fgrid))
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
        # One row per replication, with one stream and one weight row per dataset.
        rows, calls, draw_block = [], [], bootstrap.draw_block

        def counted(block, sizes, gen, work):
            weights = draw_block(block, sizes, gen, work)
            rows.extend(len(keys) for keys in block)
            calls.extend(w.shape[1] for w in weights for _ in w)
            return weights

        monkeypatch.setattr(bootstrap, "draw_block", counted)
        cfg = rank_cfg()
        pairwise_rank(RANK_SETS, cfg)
        assert rows == [3] * cfg.bootstrap
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

    @staticmethod
    def _window_samples(k):
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 2.0, 200)
        y = rng.uniform(1.0, 2.2, 300)
        return make_sample(x * 2.0 ** k), make_sample(y * 2.0 ** k)

    def test_variance_below_overflow_scales(self):
        # At 2^506 every variance is finite: the verdict is the unscaled
        # one, and the statistics scale by 2^506 exactly.
        cfg = TestConfig(bootstrap=49)
        base, scaled = (run_test(*self._window_samples(k), cfg) for k in (0, 506))
        assert scaled.statistic == base.statistic * 2.0 ** 506
        assert scaled.critical_value == base.critical_value * 2.0 ** 506
        assert (scaled.p_value, scaled.reject, scaled.contact_fraction) == (
            base.p_value, base.reject, base.contact_fraction) == (5 / 49, False, 1.0)

    @pytest.mark.parametrize("k", [507, 508])
    def test_variance_overflow_is_data_error(self, k):
        # The larger sample's sum f^2 overflows while its curves and
        # statistics stay finite: clamped to 0, its variance would shrink
        # the contact set and turn the verdict into a rejection.
        with pytest.raises(DataError, match="variance overflows"):
            run_test(*self._window_samples(k), TestConfig(bootstrap=49))
        x, y = self._window_samples(k)
        kernel = independent_kernel(x, y)
        with pytest.raises(DataError, match="variance overflows"):
            kernel.sigma_sq_many(3, Direction.UP, np.linspace(0.0, 1.0, 101))

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


CONTACT_CELLS = [(d, k, tau) for d in Direction for k in FunctionalKind for tau in (1.0, 3.0)]


def _columns_spy(monkeypatch):
    """Check that every bootstrap curve is evaluated at the union of its
    direction's contact sets (all tests, datasets and bandwidths), passed
    as None when it is the whole grid; returns the (direction, column
    count, grid size) of every evaluation.  The union is taken from the
    whole-grid masks as ``estimate_contact_set`` returns them: a core call
    evaluates a direction's observed curves, then its contact sets, and
    then, after every direction, the bootstrap's curves."""
    seen, masks, current = [], {}, []
    block, observed = inference.eval_block, inference.eval_on_grid
    contact = inference.estimate_contact_set

    def spied_observed(curve, grid):
        masks[curve.direction], current[:] = [], [curve.direction]
        return observed(curve, grid)

    def spied_contact(*args):
        mask = contact(*args)
        masks[current[0]].append(mask)
        return mask

    def spied_block(sample, weights, m, direction, grid, work=None, columns=None):
        want = np.flatnonzero(np.vstack(masks[direction]).any(axis=0))
        if columns is None:
            assert len(want) == len(grid)
        else:
            assert len(want) < len(grid) and np.array_equal(columns, want)
        seen.append((direction, len(want), len(grid)))
        return block(sample, weights, m, direction, grid, work, columns)

    monkeypatch.setattr(inference, "eval_on_grid", spied_observed)
    monkeypatch.setattr(inference, "estimate_contact_set", spied_contact)
    monkeypatch.setattr(inference, "eval_block", spied_block)
    return seen


def _whole_grid(monkeypatch, call):
    """``call()`` with every bootstrap curve evaluated on the whole grid."""
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_bootstrap_stats", full_grid_bootstrap_stats)
        return call()


def _fields(result):
    return [getattr(result, name) for name in
            ("statistic", "critical_value", "p_value", "reject", "contact_fraction", "t_n")]


class TestContactColumns:
    """The bootstrap evaluates its curves only where its statistics read
    them, the union of each direction's contact sets, and every result is
    bit for bit that of the whole-grid evaluation.  The samples are far
    enough apart that the union leaves out part of the grid."""

    CFG = dict(bootstrap=19, grid=101, vgrid=11, seed=13)

    @staticmethod
    def _strict(seen):
        # Both directions evaluated somewhere short of the whole grid.
        assert {d for d, columns, size in seen if columns < size} == set(Direction)

    @pytest.mark.parametrize("matched", [False, True], ids=["independent", "matched"])
    def test_run_test(self, matched, monkeypatch):
        rng = np.random.default_rng(61)
        x = random_dp_values(rng, 150)
        if matched:
            args = [(make_paired(x, 1.4 * x + rng.random(150)), None),
                    (make_paired(1.4 * x + rng.random(150), x), None)]
        else:
            s1, s2 = make_sample(x), make_sample(1.4 * random_dp_values(rng, 120))
            args = [(s1, s2), (s2, s1)]
        scheme = Scheme.MATCHED if matched else Scheme.INDEPENDENT
        seen = _columns_spy(monkeypatch)
        for direction, kind, tau in CONTACT_CELLS:
            cfg = TestConfig(direction=direction, kind=kind, tau=tau, scheme=scheme, **self.CFG)
            for a, b in args:
                got = run_test(a, b, cfg)
                want = _whole_grid(monkeypatch, lambda: run_test(a, b, cfg))
                assert _fields(got) == _fields(want), (direction, kind, tau)
        self._strict(seen)

    def test_pairwise_rank(self, monkeypatch):
        rng = np.random.default_rng(62)
        datasets = [(f"d{k}", make_sample((1 + 0.4 * k) * random_dp_values(rng, 100 + 20 * k)))
                    for k in range(3)]
        seen = _columns_spy(monkeypatch)
        for direction, kind, tau in CONTACT_CELLS:
            cfg = TestConfig(direction=direction, kind=kind, tau=tau, **self.CFG)
            got = pairwise_rank(datasets, cfg)
            assert got == _whole_grid(monkeypatch, lambda: pairwise_rank(datasets, cfg))
        self._strict(seen)

    @pytest.mark.parametrize("mode", list(SimMode), ids=lambda mode: mode.value)
    def test_run_table(self, mode, monkeypatch):
        # One group of 8 cells; each core call stacks its chunk's datasets.
        dgp1, dgp2 = DoubleParetoParams(3.0, 2.0), DoubleParetoParams(3.0, 2.0, 3.0)
        specs = [SimSpec(dgp1, dgp2, 80, 100,
                         TestConfig(direction=direction, kind=kind, tau=tau, **self.CFG),
                         6 if mode is SimMode.FULL else 12, mode)
                 for direction, kind, tau in CONTACT_CELLS]
        seen = _columns_spy(monkeypatch)

        def table():  # full mode reports no pooled critical value: NaN, compared by text
            return [(r.rejections, r.rejection_rate, repr(r.critical_value))
                    for r in run_table(specs)]

        assert table() == _whole_grid(monkeypatch, table)
        self._strict(seen)
