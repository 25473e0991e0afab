
import numpy as np
import pytest

from isdtest import (
    ConfigError,
    Direction,
    FunctionalKind,
    Scheme,
    TestConfig,
    make_paired,
    make_sample,
    run_test,
)
from isdtest import bootstrap, inference
from isdtest.bootstrap import critical_value, derive_seed, draw_weights, p_value
from isdtest.curves import BlockWorkspace, Grid, LambdaCurve, eval_block, eval_on_grid
from isdtest.functionals import derivative

from conftest import (
    core_calls,
    point_lambda,
    random_dp_values,
    seed_sequence,
    stacked,
    substream,
)


def curve_on_grid(sample, m, direction, grid):
    """One sample's curve on a grid, shape (G,)."""
    return eval_on_grid(LambdaCurve(stacked(sample), m, direction), grid)[0]


def stream_key(seed, *key):
    """The package's Philox key of the stream keyed by (seed, *key)."""
    return bootstrap._generate_state(seed, key, 2)


class TestSubstream:
    def test_deterministic(self):
        assert np.array_equal(stream_key(42, 3, 7), stream_key(42, 3, 7))

    def test_distinct_keys_distinct_streams(self):
        assert not np.array_equal(stream_key(42, 3, 7), stream_key(42, 3, 8))

    def test_float_keys(self):
        assert np.array_equal(stream_key(1, 2.5, 0.1), stream_key(1, 2.5, 0.1))
        assert not np.array_equal(stream_key(1, 2.5, 0.1), stream_key(1, 2.5, 0.2))

    def test_negative_seed_accepted(self):
        assert np.array_equal(stream_key(-17, 0), stream_key(2**64 - 17, 0))

    def test_derive_seed_stable(self):
        assert derive_seed(9, 1, 2) == derive_seed(9, 1, 2)
        assert derive_seed(9, 1, 2) != derive_seed(9, 2, 1)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -2**40, 2**64, 2**64 + 5, 2**70 + 3]
# Key parts as the package uses them: tags, counters, sizes and the double
# Pareto parameters of a simulation cell (floats, keyed by their bits).
PARTS = [0xB0, 7, 2**40 + 3, 3.0, 2.5, 0.1, 100.0, 2**64 - 1, -5, 1e-300]


class TestStreamKeys:
    """One vectorised hash derives every stream key, bit for bit as numpy's
    SeedSequence does."""

    @pytest.mark.parametrize("count", range(1, 9))
    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_matches_seed_sequence(self, count, words):
        for shift, seed in enumerate(SEEDS):
            key = tuple(PARTS[(shift + i) % len(PARTS)] for i in range(count))
            want = seed_sequence(seed, *key).generate_state(words, np.uint64)
            got = bootstrap._generate_state(seed, key, words)
            assert got.dtype == want.dtype and np.array_equal(got, want), (seed, key)

    def test_empty_key(self):
        for seed in SEEDS:
            want = seed_sequence(seed).generate_state(2, np.uint64)
            assert np.array_equal(bootstrap._generate_state(seed, (), 2), want)

    def test_broadcasts_over_seeds_and_key_parts(self):
        seeds = np.array([0, 2**32, 2**64 - 1, 12345], dtype=np.uint64)
        replication = np.arange(37)[:, None]
        got = bootstrap._generate_state(seeds, (0xD2, 2.5, replication), 2)
        assert got.shape == (37, 4, 2)
        for b in range(37):
            for d, seed in enumerate(seeds):
                want = seed_sequence(int(seed), 0xD2, 2.5, b).generate_state(2, np.uint64)
                assert np.array_equal(got[b, d], want)
        floats = np.array([0.5, 3.0, 1e-300])
        got = bootstrap._generate_state(7, (1, floats), 2)
        for i, x in enumerate(floats):
            want = seed_sequence(7, 1, float(x)).generate_state(2, np.uint64)
            assert np.array_equal(got[i], want)

    def test_derive_seed_is_numpys_state(self):
        hi, lo = seed_sequence(9, 1, 2.5).generate_state(2)
        assert derive_seed(9, 1, 2.5) == int(hi) << 32 | int(lo)
        seeds = derive_seed(9, 1, 2.5, np.arange(5))
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [derive_seed(9, 1, 2.5, r) for r in range(5)]

    def test_restart_draws_a_fresh_stream(self):
        # Re-keying one generator, mid-stream and with a half-used 32-bit
        # buffer, draws what a newly built generator of that key draws.
        gen = substream(1, 0)
        for seed, key in [(5, (1, 2)), (6, (0xB0, 3)), (5, (1, 2))]:
            gen.integers(0, 7, size=3)
            bootstrap._restart(gen, stream_key(seed, *key))
            fresh = substream(seed, *key)
            assert np.array_equal(gen.integers(0, 500, 9), fresh.integers(0, 500, 9))
            assert np.array_equal(gen.random(4), fresh.random(4))

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
    def test_generators_built_per_call_not_per_replication(self, scheme, monkeypatch):
        s1, s2, pairs = _layout(scheme)
        args = (pairs, None) if pairs is not None else (s1, s2)
        built = []
        for name in ("Philox", "SeedSequence"):
            real = getattr(np.random, name)
            monkeypatch.setattr(np.random, name,
                                lambda *a, real=real, name=name, **k: built.append(name)
                                or real(*a, **k))
        counts = []
        for b in (19, 199):
            built.clear()
            run_test(*args, TestConfig(scheme=scheme, bootstrap=b, seed=2, grid=101, vgrid=11))
            counts.append(len(built))
        assert counts[0] == counts[1] <= 2


class TestDrawWeights:
    def test_sum_invariant(self):
        rng = substream(0, 1)
        for n in (1, 2, 17, 400):
            w = draw_weights(n, rng)
            assert w.sum() == n
            assert len(w) == n
            assert np.all(w >= 0)

    def test_n1_forced(self):
        assert list(draw_weights(1, substream(5, 0))) == [1]

    def test_repeatable(self):
        w1 = draw_weights(3, substream(77, 4))
        w2 = draw_weights(3, substream(77, 4))
        assert np.array_equal(w1, w2)

    def test_marginal_means(self):
        # Multinomial marginals have mean 1 and variance 1 - 1/n.
        n, reps = 100, 10000
        rng = substream(123, 9)
        total = np.zeros(n)
        for _ in range(reps):
            total += draw_weights(n, rng)
        means = total / reps
        band = 4 * np.sqrt((1 - 1 / n) / reps)
        assert np.all(np.abs(means - 1.0) < band)


# 2**32 mod 40 000 = 7296: about 7 % of rows of 40 000 draws hit numpy's rejection.
REJECTING_N = 40_000


def _block_keys(count, first=0):
    """Rows of one stream each, a fixed scan of Philox keys: row i's key is
    (0, first + i), as Python ints."""
    return [[[0, i]] for i in range(first, first + count)]


def _row_draws(block, sizes):
    """Each row's weights from :func:`draw_weights`, one new generator per
    row and stream, the samples in order: the stream contract, one row at a
    time."""
    out = [np.empty((len(block), n), np.int64) for n in sizes]
    for row, keys in enumerate(block):
        for k, n in enumerate(sizes):
            if k < len(keys):
                rng = np.random.Generator(np.random.Philox(key=keys[k]))
            out[k][row] = draw_weights(n, rng)
    return out


def _rejects(key, n):
    """Whether ``integers(0, n, n)`` on the stream of ``key`` draws more than
    n 32-bit halves (n even): its next raw word is then not the one that
    follows the stream's first n / 2."""
    drawn = np.random.Generator(np.random.Philox(key=key))
    drawn.integers(0, n, n)
    following = np.random.Philox(key=key).random_raw(n // 2 + 1)[-1]
    return drawn.bit_generator.random_raw() != following


def _numpy_rule(key, n):
    """``integers(0, n, n)`` from the stream's raw words, written out: the
    32-bit halves in order, low half first; half x gives (x n) >> 32 unless
    (x n) mod 2**32 < 2**32 mod n, when the next half is taken instead;
    n = 1 takes none."""
    if n == 1:
        return np.zeros(1, np.int64)
    raw = np.random.Philox(key=key).random_raw(n + 64)
    halves = iter(raw.astype("<u8", copy=False).view("<u4").tolist())
    out = []
    while len(out) < n:
        product = next(halves) * n
        if product % 2**32 >= 2**32 % n:
            out.append(product >> 32)
    return np.array(out)


class TestDrawBlock:
    """A block's weights from raw words equal per-row draw_weights, bit for bit."""

    def _draw(self, block, sizes):
        gen = np.random.Generator(np.random.Philox(key=0))
        return bootstrap.draw_block(block, sizes, gen, BlockWorkspace())

    def _assert_rows_match(self, block, sizes):
        got = self._draw(block, sizes)
        want = _row_draws(block, sizes)
        assert [w.shape for w in got] == [(len(block), n) for n in sizes]
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 2000, 3000, 10**4 + 1])
    def test_matches_draw_weights(self, n):
        self._assert_rows_match(_block_keys(12), [n])

    @pytest.mark.parametrize("sizes", [(3, 2000), (2001, 3000), (1, 5, 7, 2)])
    def test_shared_stream_carries_half_word(self, sizes):
        # An odd first size leaves the high half of a word to the next sample.
        self._assert_rows_match(_block_keys(10, 100), list(sizes))

    def test_one_stream_per_dataset(self):
        sizes = [2000, 3000, 7]
        block = [[[1, 3 * i + k] for k in range(len(sizes))] for i in range(8)]
        self._assert_rows_match(block, sizes)

    @pytest.mark.parametrize("sizes", [(REJECTING_N,), (REJECTING_N, 3)])
    def test_rejected_rows_are_redrawn(self, sizes, monkeypatch):
        block = _block_keys(64)
        rejecting = [row for row, [key] in enumerate(block) if _rejects(key, REJECTING_N)]
        assert 0 < len(rejecting) < len(block)
        redrawn, counted = [], []

        def recorded(n, rng=None, *, categories=None):
            (redrawn if categories is None else counted).append(n)
            return draw_weights(n, rng, categories=categories)

        monkeypatch.setattr(bootstrap, "draw_weights", recorded)
        got = self._draw(block, list(sizes))
        monkeypatch.undo()
        # Only the rejecting rows, each redrawn whole: a rejection in the
        # first sample moves the second's halves too.
        assert redrawn == list(sizes) * len(rejecting)
        # Every row and sample is counted through draw_weights first.
        assert sorted(counted) == sorted(list(sizes) * len(block))
        for g, w in zip(got, _row_draws(block, list(sizes))):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2000, 3000, REJECTING_N])
    def test_numpy_bounded_draw_rule(self, n):
        # The rule draw_block reads numpy's draws by, checked against numpy,
        # at n = 40 000 on the scan's rows that hit a rejection.
        keys = [key for [key] in _block_keys(12)]
        if n == REJECTING_N:
            keys = [key for [key] in _block_keys(64) if _rejects(key, n)]
            assert keys
        for key in keys:
            rng = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(rng.integers(0, n, n), _numpy_rule(key, n))

    def test_reuses_the_workspace(self):
        work, gen = BlockWorkspace(), np.random.Generator(np.random.Philox(key=0))
        sizes = [2000, 3000]
        first = bootstrap.draw_block(_block_keys(6), sizes, gen, work)
        second = bootstrap.draw_block(_block_keys(6, 6), sizes, gen, work)
        assert all(np.shares_memory(a, b) for a, b in zip(first, second))
        for g, w in zip(second, _row_draws(_block_keys(6, 6), sizes)):
            assert np.array_equal(g, w)


class TestBootstrapCurves:
    def test_degenerate_concentration(self):
        # All weight on the smallest value: the curve of a sample of copies of it.
        s = stacked(make_sample([1.0, 2.0, 3.0]))
        w = np.array([[3, 0, 0]])
        g = Grid.uniform(11)
        star = eval_block(s, w, 3, Direction.UP, g)
        plain = curve_on_grid(make_sample([1.0, 1.0, 1.0]), 3, Direction.UP, g)
        assert star[0] == pytest.approx(plain, rel=1e-15, abs=1e-15)
        resample = eval_block(s, w, 2, Direction.UP, Grid(np.array([0.0, 1.0])))
        assert resample[0, -1] == pytest.approx(1.0)  # mean of the resample


BLOCK_COMBOS = [(m, direction, kind, scheme)
                for m in (3, 4, 6) for direction in Direction
                for kind in FunctionalKind for scheme in Scheme]
BLOCK_ROWS = 6


def _layout(scheme, n1=40, n2=55, seed=21):
    rng = np.random.default_rng(seed)
    if scheme is Scheme.MATCHED:
        left = random_dp_values(rng, n1)
        pairs = make_paired(left, left * rng.uniform(0.7, 1.4, size=n1))
        return pairs.left_sample(), pairs.right_sample(), pairs
    return make_sample(random_dp_values(rng, n1)), make_sample(random_dp_values(rng, n2)), None


def _orders(pairs):
    """Matched pairs as the core takes them: the columns' sort orders."""
    return None if pairs is None else (pairs.left_order(), pairs.right_order())


def _contact(grid):
    # Gaps in the membership exercise the masked reductions.
    mask = (np.arange(len(grid)) % 7) != 3
    mask[[0, -1]] = True
    return mask


def _row_curve(s1, s2, pairs, w1, w2, m, direction, grid):
    """One replication's difference curve from the point formula at each
    grid point; matched rows are routed through each column's sort order here."""
    if pairs is not None:
        w1, w2 = w1[pairs.left_order()], w1[pairs.right_order()]
    return (point_lambda(s2.values, np.cumsum(w2) / s2.n, m, direction, grid.points)
            - point_lambda(s1.values, np.cumsum(w1) / s1.n, m, direction, grid.points))


def _statistic(star, phi, cs, t_n, kind, grid):
    """A replication's statistic: the derivative of sqrt(T_n) (phi* - phi)."""
    return derivative(kind, np.sqrt(t_n) * (np.asarray(star) - phi), cs, grid)


class TestBlockRoute:
    """Blocks of replications against the one-draw-at-a-time reference."""

    grid = Grid.uniform(101)

    def _setup(self, m, direction, kind, scheme, bootstrap):
        s1, s2, pairs = _layout(scheme)
        phi = (curve_on_grid(s2, m, direction, self.grid)
               - curve_on_grid(s1, m, direction, self.grid))
        cfg = TestConfig(m=m, direction=direction, kind=kind, scheme=scheme,
                         bootstrap=bootstrap, seed=5, grid=len(self.grid))
        t_n = s1.n * s2.n / (s1.n + s2.n)
        return s1, s2, pairs, phi, _contact(self.grid), t_n, cfg

    def _block_stats(self, s1, s2, pairs, phi, cs, t_n, cfg):
        """The test's block loop on one cell, with the given contact set,
        its curves evaluated on the set's columns, as the core passes them."""
        at = np.flatnonzero(cs)
        test = (0, 1, phi[None, at], np.sqrt(t_n), cs[None, None, at])
        [stats] = inference._bootstrap_stats(
            [stacked(s1), stacked(s2)], _orders(pairs), cfg.m,
            self.grid, [(cfg.direction, at, [cfg.kind], [test])],
            inference._test_keys(cfg.seed, cfg.bootstrap))
        return stats[0, 0, 0, 0]

    @pytest.mark.parametrize("bootstrap", [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("m, direction, kind, scheme", BLOCK_COMBOS)
    def test_block_stats_match_single_draws(self, m, direction, kind, scheme, bootstrap,
                                            monkeypatch):
        s1, s2, pairs, phi, cs, t_n, cfg = self._setup(m, direction, kind, scheme, bootstrap)
        monkeypatch.setattr(inference, "_BLOCK_CELLS",
                            BLOCK_ROWS * (max(s1.n, s2.n, len(self.grid)) + 1))
        got = self._block_stats(s1, s2, pairs, phi, cs, t_n, cfg)
        want = []
        for b in range(bootstrap):
            rng = substream(cfg.seed, inference._BOOT_TAG, b)
            w1 = draw_weights(s1.n, rng)
            w2 = w1 if pairs is not None else draw_weights(s2.n, rng)
            star = _row_curve(s1, s2, pairs, w1, w2, m, direction, self.grid)
            want.append(_statistic(star, phi, cs, t_n, kind, self.grid))
        want = np.array(want)
        assert got.shape == (bootstrap,)
        # Both routes round relative to the curves; a statistic can be far smaller.
        scale = np.sqrt(t_n) * max(np.max(np.abs(curve_on_grid(s, m, direction, self.grid)))
                                   for s in (s1, s2))
        assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), scale)

    @pytest.mark.parametrize("m, direction, kind, scheme", BLOCK_COMBOS)
    def test_smallest_blocks_match_default(self, m, direction, kind, scheme, monkeypatch):
        # A row's statistic does not depend on the rows it shares a block
        # with, so the block size leaves every bit of the statistics alone.
        s1, s2, pairs, phi, cs, t_n, cfg = self._setup(m, direction, kind, scheme, 150)
        default = self._block_stats(s1, s2, pairs, phi, cs, t_n, cfg)
        monkeypatch.setattr(inference, "_BLOCK_CELLS", 1)
        single = self._block_stats(s1, s2, pairs, phi, cs, t_n, cfg)
        assert np.array_equal(single, default)

    @pytest.mark.parametrize("m, direction, kind, scheme", BLOCK_COMBOS)
    def test_rows_with_empty_ends(self, m, direction, kind, scheme):
        # Zero weight on the smallest and the largest observation stacks
        # several knots on each lattice end, 0 and 1.
        s1, s2, pairs, phi, cs, t_n, _ = self._setup(m, direction, kind, scheme, 1)
        rng = np.random.default_rng(8)

        def rows(n, count):
            w = np.zeros((count, n), dtype=np.int64)
            for row in w:
                row[1:-1] = np.bincount(rng.integers(0, n - 2, size=n), minlength=n - 2)
            return w

        if pairs is not None:
            w1 = rows(pairs.n, 4)  # drop the left column's ends
            w = np.empty_like(w1)
            w[:, pairs.left_order()] = w1
            w2 = w[:, pairs.right_order()]
        else:
            w1, w2 = rows(s1.n, 4), rows(s2.n, 4)
        stars = (eval_block(stacked(s2), w2, m, direction, self.grid)
                 - eval_block(stacked(s1), w1, m, direction, self.grid))
        end = 0 if direction is Direction.UP else -1
        assert np.all(stars[:, end] == 0.0)
        got = _statistic(stars, phi, cs, t_n, kind, self.grid)
        for b in range(4):
            row = w[b] if pairs is not None else w1[b]  # matched: row order
            star = _row_curve(s1, s2, pairs, row, w2[b], m, direction, self.grid)
            assert star[end] == 0.0
            assert np.max(np.abs(stars[b] - star)) <= 1e-10 * np.max(np.abs(star))
            want = _statistic(star, phi, cs, t_n, kind, self.grid)
            assert abs(got[b] - want) <= 1e-10 * max(abs(want), np.max(np.abs(got)))

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
    def test_draws_keyed_by_seed_and_replication(self, scheme, monkeypatch):
        # run_test's replication b draws n1 then n2 categories (matched
        # pairs: n once) from the generator keyed by (seed, b).
        s1, s2, pairs = _layout(scheme)
        drawn, draw_block = [], bootstrap.draw_block

        def recorded(block, sizes, gen, work):
            weights = draw_block(block, sizes, gen, work)
            drawn.extend(row.tobytes() for w in weights for row in w)
            return weights

        monkeypatch.setattr(bootstrap, "draw_block", recorded)
        cfg = TestConfig(scheme=scheme, bootstrap=2 * BLOCK_ROWS + 1, seed=3, grid=101, vgrid=11)
        monkeypatch.setattr(inference, "_BLOCK_CELLS",
                            BLOCK_ROWS * (max(s1.n, s2.n, cfg.grid) + 1))
        run_test(*((pairs, None) if pairs is not None else (s1, s2)), cfg)
        want = []
        for b in range(cfg.bootstrap):
            rng = substream(cfg.seed, inference._BOOT_TAG, b)
            want.append(draw_weights(s1.n, rng).tobytes())
            if pairs is None:
                want.append(draw_weights(s2.n, rng).tobytes())
        assert sorted(drawn) == sorted(want)

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
    def test_block_budget_covers_the_grid(self, scheme, monkeypatch):
        # At n = 200 on 1001 grid points a block's curves, rows x G, are its
        # largest arrays: the grid, not n, bounds the rows (n alone allows 326).
        s1, s2, pairs = _layout(scheme, 200, 200)
        cfg = TestConfig(scheme=scheme, bootstrap=399, seed=11, grid=1001, vgrid=26)
        rows, stats = [], []

        def recorded_block(sample, weights, *args, **kwargs):
            rows.append(len(weights))
            return eval_block(sample, weights, *args, **kwargs)

        def recorded_derivative(*args):
            stats.append(derivative(*args))
            return stats[-1]

        monkeypatch.setattr(inference, "eval_block", recorded_block)
        monkeypatch.setattr(inference, "derivative", recorded_derivative)
        run_test(*((pairs, None) if pairs is not None else (s1, s2)), cfg)
        assert max(rows) * (cfg.grid + 1) <= 1 << 16 and sum(rows) == 2 * cfg.bootstrap
        default, rows[:], stats[:] = np.concatenate(stats, axis=-1), [], []
        monkeypatch.setattr(inference, "_BLOCK_CELLS", 1)
        run_test(*((pairs, None) if pairs is not None else (s1, s2)), cfg)
        # The smallest blocks hold one pair of lanes; B = 399 leaves one row.
        assert rows == [2] * (cfg.bootstrap - 1) + [1, 1]
        assert np.array_equal(np.concatenate(stats, axis=-1), default)

    def test_matched_rows_match_expanded_pairs(self):
        # A matched replication reweights whole rows: its curves are those of
        # the samples that repeat each row's left and right values w_i times.
        rng = np.random.default_rng(4)
        left, right = random_dp_values(rng, 15), random_dp_values(rng, 15)
        pairs = make_paired(left, right)
        g = Grid.uniform(51)
        full = np.ones(len(g), dtype=bool)
        test = (0, 1, np.zeros((1, len(g))), 1.0, full[None, None])
        [stats] = inference._bootstrap_stats(
            [stacked(pairs.left_sample()), stacked(pairs.right_sample())], _orders(pairs), 3, g,
            [(Direction.UP, None, list(FunctionalKind), [test])], inference._test_keys(8, 3))
        for b in range(3):
            w = draw_weights(15, substream(8, inference._BOOT_TAG, b))
            expanded = (curve_on_grid(make_sample(np.repeat(right, w)), 3, Direction.UP, g)
                        - curve_on_grid(make_sample(np.repeat(left, w)), 3, Direction.UP, g))
            for i, kind in enumerate(FunctionalKind):
                want = derivative(kind, expanded, full, g)
                assert stats[0, i, 0, 0, b] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_workspace_reuse_is_bit_exact(self):
        # One workspace lent to calls of changing n, rows, degree and
        # direction gives the same bits as fresh temporaries.
        rng = np.random.default_rng(12)
        work = BlockWorkspace()
        g = Grid.uniform(41)
        for n, rows, m, direction in ((30, 4, 3, Direction.UP), (45, 4, 4, Direction.DOWN),
                                      (30, 2, 3, Direction.DOWN), (30, 4, 3, Direction.UP)):
            s = stacked(make_sample(random_dp_values(rng, n)))
            w = np.stack([draw_weights(n, rng) for _ in range(rows)])
            assert np.array_equal(eval_block(s, w, m, direction, g, work),
                                  eval_block(s, w, m, direction, g))

    def test_block_weight_checks(self):
        # eval_block does not check its weights: the core passes draw_weights
        # rows, multinomial counts of n, whole replications of the stack.
        s = stacked(make_sample([1.0, 2.0, 4.0]))
        g = Grid.uniform(5)
        good = np.array([[3, 0, 0], [1, 1, 1]])
        assert eval_block(s, good, 3, Direction.UP, g).shape == (2, 5)
        for args, _ in core_calls()["inference.eval_block"]:
            w, n = args["weights"], args["sample"].values.shape[-1]
            assert w.dtype == np.int64 and w.ndim == 2 and w.shape[1] == n
            assert np.all(w >= 0) and np.all(w.sum(axis=1) == n)


class TestBootstrapStatistic:
    def setup_method(self):
        self.grid = Grid.uniform(101)
        self.cs_full = np.ones(101, dtype=bool)

    def test_zero_when_equal(self):
        phi = np.linspace(0, 1, 101)
        for kind in FunctionalKind:
            assert _statistic(phi, phi, self.cs_full, 50.0, kind, self.grid) == 0.0

    def test_full_grid_sup_reduction(self):
        phi = np.zeros(101)
        star = np.zeros(101)
        star[40] = 0.25
        got = _statistic(star, phi, self.cs_full, 100.0, FunctionalKind.SUP, self.grid)
        assert got == pytest.approx(10.0 * 0.25)

    def test_nonpositive_int_zero(self):
        phi = np.zeros(101)
        star = -np.ones(101)
        got = _statistic(star, phi, self.cs_full, 100.0, FunctionalKind.INT, self.grid)
        assert got == 0.0


class TestCriticalValue:
    def test_counting_example(self):
        stats = np.arange(1, 101) / 100.0
        assert critical_value(stats, 0.05) == pytest.approx(0.95)

    def test_single_value(self):
        assert critical_value(np.array([3.2]), 0.05) == 3.2
        assert critical_value(np.array([3.2]), 0.5) == 3.2

    def test_all_equal(self):
        assert critical_value(np.full(9, 2.0), 0.1) == 2.0

    def test_monotone_in_level_and_bounded(self):
        rng = np.random.default_rng(5)
        stats = rng.normal(size=999)
        prev = -np.inf
        for alpha in (0.5, 0.2, 0.1, 0.05, 0.01):
            c = critical_value(stats, alpha)
            assert c >= prev
            assert stats.min() <= c <= stats.max()
            prev = c

    def test_validation(self):
        # critical_value does not check its arguments: the core passes B >= 1
        # statistics and the config's alpha, and TestConfig rejects the rest.
        for args, _ in core_calls()["inference.critical_value"]:
            assert len(args["stats"]) >= 1 and 0.0 < args["alpha"] < 1.0
        with pytest.raises(ConfigError):
            TestConfig(bootstrap=0)
        with pytest.raises(ConfigError):
            TestConfig(alpha=1.5)


class TestPValue:
    def test_counting(self):
        stats = np.array([0.1, 0.2, 0.3, 0.4])
        assert p_value(stats, 0.25) == 0.5
        assert p_value(stats, 99.0) == 0.0
        assert p_value(stats, -np.inf) == 1.0

    def test_empty_rejected(self):
        # p_value does not check that it has statistics: the core passes
        # B >= 1 of them, and TestConfig rejects bootstrap = 0.
        for args, p in core_calls()["inference.p_value"]:
            assert len(args["stats"]) >= 1 and 0.0 <= p <= 1.0
        with pytest.raises(ConfigError):
            TestConfig(bootstrap=0)
