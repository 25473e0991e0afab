import tracemalloc
import warnings

import numpy as np
import pytest

from isdtest import (
    ConfigError,
    DataError,
    DoubleParetoParams,
    Scheme,
    SimMode,
    SimSpec,
    SortedSample,
    TestConfig,
    dp_sample,
    preset_specs,
    run_table,
)
from isdtest import inference, montecarlo
from isdtest.bootstrap import derive_seed
from isdtest.curves import Grid
from isdtest.functionals import derivative

from conftest import philox_key, substream

DGP = DoubleParetoParams(3.0, 2.0)
INF = float("inf")


def spec(replications=50, n=100, mode=SimMode.WARPSPEED, **cfg_kw):
    base = dict(grid=201, vgrid=51, seed=3)
    base.update(cfg_kw)
    return SimSpec(DGP, DGP, n, n, TestConfig(**base), replications, mode)


class TestSimSpec:
    @pytest.mark.parametrize("make", [
        lambda: SimSpec(DGP, DGP, 100, 100, TestConfig(), 0),
        lambda: SimSpec(DGP, DGP, 1, 100, TestConfig(), 10),
        lambda: SimSpec(DGP, DGP, 100, 100, TestConfig(scheme=Scheme.MATCHED), 10),
        lambda: SimSpec(DGP, DGP, 100, 100, TestConfig(), 2.5),
        lambda: SimSpec(DGP, DGP, 100, 100, TestConfig(), True),
        lambda: SimSpec(DGP, DGP, 100, 100, TestConfig(), float("nan")),
        lambda: SimSpec(DGP, DGP, 50.5, 100, TestConfig(), 10),
        lambda: SimSpec(DGP, DGP, "50", 100, TestConfig(), 10),
        lambda: SimSpec(DGP, DGP, 100, 100, TestConfig(), 10, "x"),
        lambda: DoubleParetoParams(INF, 2.0),
        lambda: DoubleParetoParams("3", 2),
    ])
    def test_validation(self, make):
        with pytest.raises(ConfigError):
            make()


class TestRunCell:
    def test_single_replication_rate_is_zero_or_one(self):
        res = run_table([spec(replications=1)])[0]
        assert res.rejection_rate in (0.0, 1.0)
        assert res.replications == 1 if hasattr(res, "replications") else True

    def test_deterministic(self):
        a = run_table([spec()])[0]
        b = run_table([spec()])[0]
        assert a.rejection_rate == b.rejection_rate
        assert a.critical_value == b.critical_value

    def test_full_mode_runs(self):
        res = run_table([spec(replications=10, mode=SimMode.FULL, bootstrap=49)])[0]
        assert 0.0 <= res.rejection_rate <= 1.0
        assert np.isnan(res.critical_value)


class TestDgpKey:
    def test_int_and_float_shapes_draw_alike(self):
        # (3, 2) and (3.0, 2.0) are one law: before the parameters were
        # stored as floats they keyed different streams and rejected 1 and
        # 5 times here.
        cfg = TestConfig(bootstrap=19, grid=41, seed=3)
        results = [run_table([SimSpec(d, d, 60, 60, cfg, 40)])[0]
                   for d in (DoubleParetoParams(3, 2), DoubleParetoParams(3.0, 2.0))]
        assert results[0].rejections == results[1].rejections == 5
        assert results[0].critical_value == results[1].critical_value


class TestRunTable:
    @pytest.mark.parametrize("mode, size", [(SimMode.WARPSPEED, dict()),
                                            (SimMode.FULL, dict(replications=8, n=60, alpha=0.5))])
    def test_grouping_matches_individual_cells(self, mode, size):
        # Batched execution must reproduce the stand-alone cells bit-exactly,
        # also where cells differ only in the bootstrap count.
        specs = [spec(mode=mode, tau=t, kind=k, direction=d, bootstrap=b, **size)
                 for t in (2.0, 3.0)
                 for k in ("sup", "int")
                 for d in ("up", "down")
                 for b in (9, 29)]
        table = run_table(specs)
        for s, joint in zip(specs, table):
            alone = run_table([s])[0]
            assert joint.rejection_rate == alone.rejection_rate
            np.testing.assert_equal(joint.critical_value, alone.critical_value)  # NaN in full mode

    def test_tau_monotone_on_shared_draws(self):
        taus = (1.0, 2.0, 3.0, 4.0, float("inf"))
        results = run_table([spec(replications=120, n=150, tau=t) for t in taus])
        rates = [r.rejection_rate for r in results]
        assert np.all(np.diff(rates) <= 1e-12)
        chats = [r.critical_value for r in results]
        assert np.all(np.diff(chats) >= -1e-12)

    def test_order_preserved(self):
        specs = [spec(tau=3.0), spec(tau=1.0)]
        table = run_table(specs)
        assert table[0].spec.config.tau == 3.0
        assert table[1].spec.config.tau == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            run_table([])


# Rejections and critical values of a warp-speed table (n = 100, 40
# replications, seed 2024), recorded before the warp-speed replication was
# moved onto the test's block route and shared functionals.  Any change to
# the data or bootstrap streams, the curves, the variance or the functionals
# shows up here.
PINNED_TABLE = [
    ("up", "sup", 1.0, 24, 0.23125945942471232),
    ("up", "sup", 3.0, 9, 0.35844424383002005),
    ("up", "sup", INF, 9, 0.35844424383002005),
    ("up", "int", 1.0, 22, 0.07231365807792901),
    ("up", "int", 3.0, 12, 0.10191518013579262),
    ("up", "int", INF, 12, 0.10191518013579262),
    ("down", "sup", 1.0, 23, 0.23165462721600485),
    ("down", "sup", 3.0, 9, 0.35844424383002477),
    ("down", "sup", INF, 9, 0.35844424383002477),
    ("down", "int", 1.0, 24, 0.1589630628396222),
    ("down", "int", 3.0, 10, 0.2344893114986759),
    ("down", "int", INF, 10, 0.2344893114986759),
]


class TestPinnedWarpSpeed:
    def test_table_matches_recorded_values(self):
        dgp2 = DoubleParetoParams(3.0, 2.5)
        specs = [SimSpec(DGP, dgp2, 100, 100,
                         TestConfig(direction=d, kind=k, tau=tau, grid=201, vgrid=51, seed=2024),
                         40)
                 for d, k, tau, _, _ in PINNED_TABLE]
        for (d, k, tau, rejections, chat), res in zip(PINNED_TABLE, run_table(specs)):
            assert res.rejections == rejections, (d, k, tau)
            assert res.critical_value == pytest.approx(chat, rel=1e-12), (d, k, tau)


# Rejections of a full-mode table (n = 100, 20 replications, seed 2024),
# recorded when every full-mode cell still ran run_test on its own.  The
# cells vary direction, functional, tau, alpha, eta and B, so cells that now
# share draws must still decide with their own level, floor and B.
PINNED_FULL = [
    ("up", "sup", 1.0, 0.05, 0.0, 49, 8),
    ("up", "sup", 3.0, 0.05, 0.0, 49, 3),
    ("up", "sup", INF, 0.05, 0.0, 99, 2),
    ("up", "int", 1.0, 0.3, 0.0, 49, 13),
    ("up", "int", 3.0, 0.05, 0.0, 99, 3),
    ("up", "int", 3.0, 0.05, 0.3, 99, 0),
    ("down", "sup", 1.0, 0.3, 0.0, 99, 15),
    ("down", "sup", 3.0, 0.05, 0.0, 49, 3),
    ("down", "sup", 3.0, 0.05, 0.4, 49, 2),
    ("down", "int", 1.0, 0.05, 0.0, 99, 8),
    ("down", "int", INF, 0.3, 0.0, 49, 12),
    ("down", "int", INF, 0.3, 0.0, 99, 14),
]


class TestPinnedFull:
    def test_table_matches_recorded_values(self):
        dgp2 = DoubleParetoParams(3.0, 2.4)
        specs = [SimSpec(DGP, dgp2, 100, 100,
                         TestConfig(direction=d, kind=k, tau=tau, alpha=a, eta=e, bootstrap=b,
                                    grid=201, vgrid=51, seed=2024),
                         20, SimMode.FULL)
                 for d, k, tau, a, e, b, _ in PINNED_FULL]
        for cell, res in zip(PINNED_FULL, run_table(specs)):
            assert res.rejections == cell[-1], cell
            assert np.isnan(res.critical_value)


def _one_replication_at_a_time(specs):
    """Warp-speed (rejections, critical value) of one group's cells, the core
    called once per replication on that replication's own data and draws."""
    base, cfg = specs[0], specs[0].config
    key = montecarlo._dgp_key(base)
    fgrid, vgrid = Grid.uniform(cfg.grid), Grid.uniform(cfg.vgrid)
    plan = inference._plan([(0, 1, s.config.direction, s.config.kind, s.config.tau)
                            for s in specs])
    observed, boot = [], []
    for r in range(base.replications):
        rng = substream(cfg.seed, montecarlo._MC_DATA, *key, r)
        x1, x2 = dp_sample(base.dgp1, base.n1, rng), dp_sample(base.dgp2, base.n2, rng)
        keys = philox_key(cfg.seed, montecarlo._MC_BOOT, *key, r)
        statistic, stats, _ = inference._test_cells(
            [SortedSample(x1.values[None]), SortedSample(x2.values[None])], None, cfg.m,
            cfg.xi, fgrid, vgrid, plan, keys[None, None, None], (0, 0))
        observed.append(statistic[:, 0])
        boot.append(stats[:, 0, 0])
    chats = [inference._critical(row, s.config) for row, s in zip(np.transpose(boot), specs)]
    return [(int(np.count_nonzero(row > chat)), chat)
            for row, chat in zip(np.transpose(observed), chats)]


class TestChunkedWarpSpeed:
    """Warp speed evaluates a chunk of replications' datasets in one core
    call; every rejection count and critical value equals, bit for bit, the
    one-replication-at-a-time route's."""

    @staticmethod
    def _specs(m):
        cells = [(d, k, tau) for d in ("up", "down") for k in ("sup", "int")
                 for tau in (1.0, 3.0, INF)]
        return [SimSpec(DGP, DoubleParetoParams(3.5, 2.5), 60, 80,
                        TestConfig(m=m, direction=d, kind=k, tau=tau, grid=201, vgrid=41,
                                   seed=606), 11)
                for d, k, tau in cells]

    @pytest.mark.parametrize("rows", [None, 4, 2], ids=lambda r: f"rows={r}")
    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_one_replication_at_a_time(self, m, rows, monkeypatch):
        specs = self._specs(m)
        if rows is not None:  # None: the default chunk, all 11 at n = 80, 201 points
            monkeypatch.setattr(montecarlo, "_chunk_rows", lambda n, grid: rows)
        got = [(res.rejections, res.critical_value) for res in run_table(specs)]
        assert got == _one_replication_at_a_time(specs)
        assert len({rejections for rejections, _ in got}) > 1  # the cells differ

    def test_default_chunk_is_one_call(self, monkeypatch):
        calls = []

        def counted(samples, *args):
            calls.append(len(samples[0].values))
            return inference._test_cells(samples, *args)

        monkeypatch.setattr(montecarlo, "_test_cells", counted)
        run_table(self._specs(3))
        assert calls == [11]

    @pytest.mark.parametrize("n, rows", [(80, 24), (200, 21), (500, 17), (2000, 8)])
    def test_default_rows(self, n, rows):
        # README quotes these rows per core call at G = 1001.
        assert montecarlo._chunk_rows(n, 1001) == rows

    def test_memory_of_a_group(self):
        # One group at the benchmark's warp-speed shape: n = 500, G = 1001,
        # 50 replications, 10 cells, so three core calls of up to 17 rows.
        # Measured traced peak: 4.0 MB, with one workspace for the group's
        # chunks and up to three integral bandwidths per reduction; 2.9 MB
        # before either, against 1.4 MB in 8-row chunks and 7.8 MB in one
        # 50-row call.
        specs = [SimSpec(DoubleParetoParams(2.1, 1.5), DoubleParetoParams(100.0, 3.0), 500, 500,
                         TestConfig(kind=kind, tau=tau, seed=3), 50)
                 for kind in ("sup", "int") for tau in (1.0, 2.0, 3.0, 4.0, INF)]
        run_table(specs)  # first-call costs outside the measurement
        tracemalloc.start()
        try:
            run_table(specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.25 * 2 ** 20

    def test_memory_of_a_full_integral_group(self, monkeypatch):
        # One full-mode group with five integral bandwidths: n = 500,
        # G = 1001, B = 99 and 20 replications, so chunks of 17 and 3 rows
        # whose bootstrap blocks hold 34 and 60 rows, the widest lanes of
        # the integral's reduction.  A call's lanes stay within the block
        # budget, unless one bandwidth alone exceeds it.  The traced peak
        # was 6.00 MB when each dataset's integral was summed on its own;
        # the bound is 1.1 times that.
        specs = [SimSpec(DoubleParetoParams(2.1, 1.5), DoubleParetoParams(100.0, 3.0), 500, 500,
                         TestConfig(kind="int", tau=tau, seed=3, bootstrap=99), 20, SimMode.FULL)
                 for tau in (1.0, 2.0, 3.0, 4.0, INF)]
        lanes = []

        def recorded(kind, h, contact, *args):
            lanes.append((len(contact), len(contact) * h.size))
            return derivative(kind, h, contact, *args)

        monkeypatch.setattr(inference, "derivative", recorded)
        run_table(specs)  # first-call costs outside the measurement
        monkeypatch.undo()
        assert max(bands for bands, _ in lanes) > 1
        assert all(cells <= inference._BLOCK_CELLS or bands == 1 for bands, cells in lanes)
        tracemalloc.start()
        try:
            run_table(specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 6.00 * 2 ** 20


def _full_one_replication_at_a_time(specs):
    """Full-mode core outputs of one group's cells, the core called once per
    replication with ``run_test``'s generators under that replication's
    derived seed: observed statistics (cells, reps), bootstrap statistics
    (cells, reps, B) and each cell's rejection count."""
    base, cfg = specs[0], specs[0].config
    key = montecarlo._dgp_key(base)
    fgrid, vgrid = Grid.uniform(cfg.grid), Grid.uniform(cfg.vgrid)
    plan = inference._plan([(0, 1, s.config.direction, s.config.kind, s.config.tau)
                            for s in specs])
    observed, boot = [], []
    for r in range(base.replications):
        rng = substream(cfg.seed, montecarlo._MC_DATA, *key, r)
        x1, x2 = dp_sample(base.dgp1, base.n1, rng), dp_sample(base.dgp2, base.n2, rng)
        statistic, stats, _ = inference._test_cells(
            [SortedSample(x1.values[None]), SortedSample(x2.values[None])], None, cfg.m,
            cfg.xi, fgrid, vgrid, plan,
            inference._test_keys(derive_seed(cfg.seed, montecarlo._MC_FULL, *key, r),
                                 cfg.bootstrap), (0, 0))
        observed.append(statistic[:, 0])
        boot.append(stats[:, 0])
    observed, boot = np.stack(observed, axis=1), np.stack(boot, axis=1)
    rejections = [sum(bool(o > inference._critical(draws, s.config)) for o, draws in zip(*row))
                  for *row, s in zip(observed, boot, specs)]
    return observed, boot, rejections


class TestChunkedFull:
    """Full mode stacks a chunk of replications too, each with its own B
    draws; the core's statistics and every rejection count equal, bit for
    bit, the one-replication-at-a-time route's."""

    @staticmethod
    def _specs(m):
        cells = [(d, k, tau) for d in ("up", "down") for k in ("sup", "int")
                 for tau in (1.0, 3.0, INF)]
        return [SimSpec(DGP, DoubleParetoParams(3.5, 2.5), 60, 80,
                        TestConfig(m=m, direction=d, kind=k, tau=tau, bootstrap=19, grid=201,
                                   vgrid=41, seed=707), 7, SimMode.FULL)
                for d, k, tau in cells]

    # (chunk rows, block cells): the default chunk (all 7 at n = 80, 201
    # points), an uneven split, one row, and an uneven split whose B = 19
    # draws run in blocks of 4 replications (a block's rows are 202 cells wide).
    @pytest.mark.parametrize("rows, cells", [(None, None), (3, None), (1, None), (3, 202 * 3 * 4)])
    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_one_replication_at_a_time(self, m, rows, cells, monkeypatch):
        specs = self._specs(m)
        if rows is not None:
            monkeypatch.setattr(montecarlo, "_chunk_rows", lambda n, grid: rows)
        if cells is not None:
            monkeypatch.setattr(inference, "_BLOCK_CELLS", cells)
        calls = []

        def recorded(*args):
            out = inference._test_cells(*args)
            calls.append(out[:2])
            return out

        monkeypatch.setattr(montecarlo, "_test_cells", recorded)
        got = [res.rejections for res in run_table(specs)]
        observed, boot, rejections = _full_one_replication_at_a_time(specs)
        assert len(calls) == -(-7 // (rows or 7))
        assert np.array_equal(np.concatenate([o for o, _ in calls], axis=1), observed)
        assert np.array_equal(np.concatenate([b for _, b in calls], axis=1), boot)
        assert got == rejections
        assert len(set(got)) > 1  # the cells differ


class TestChunkData:
    """A chunk's data come from stacked uniforms, transformed, checked and
    sorted at once; each row equals, bit for bit, ``dp_sample`` on that
    replication's own stream."""

    @pytest.mark.parametrize("n1, n2, reps", [(500, 200, 8), (2000, 80, 4), (7, 3, 12)])
    def test_rows_match_dp_sample(self, n1, n2, reps, monkeypatch):
        dgp2 = DoubleParetoParams(2.1, 1.5)
        cell = SimSpec(DGP, dgp2, n1, n2, TestConfig(grid=101, vgrid=11, seed=9), reps)
        stacks = []

        def recorded(samples, *args):
            stacks.append([s.values for s in samples])
            return inference._test_cells(samples, *args)

        monkeypatch.setattr(montecarlo, "_test_cells", recorded)
        run_table([cell])
        key = montecarlo._dgp_key(cell)
        got = [np.concatenate(column) for column in zip(*stacks)]
        for r in range(reps):
            rng = substream(9, montecarlo._MC_DATA, *key, r)
            assert np.array_equal(got[0][r], dp_sample(DGP, n1, rng).values)
            assert np.array_equal(got[1][r], dp_sample(dgp2, n2, rng).values)

    @pytest.mark.filterwarnings("ignore:upper-tail shape")
    def test_non_finite_draws_are_data_error(self):
        # alpha = 0.01 sends the top uniforms' quantiles past the double range.
        cell = SimSpec(DoubleParetoParams(0.01, 1.0), DGP, 2000, 50,
                       TestConfig(grid=101, vgrid=11, seed=9), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="non-finite"):
                run_table([cell])


class TestWarpSpeedAgainstFull:
    def test_smoke_cell_agreement(self):
        # Same data substreams feed both modes, so the comparison isolates
        # the critical-value convention.
        ws = run_table([spec(replications=500, n=200)])[0]
        full = run_table([spec(replications=500, n=200, mode=SimMode.FULL, bootstrap=199)])[0]
        assert abs(ws.rejection_rate - full.rejection_rate) < 0.04


@pytest.mark.filterwarnings("ignore:upper-tail shape")
class TestPresets:
    def test_size_table_shape(self):
        specs = preset_specs("size_up", seed=1)
        assert len(specs) == 2 * 4 * 5 * 8  # functionals x alpha x tau x beta
        alpha3 = [s for s in specs if s.dgp1.alpha == 3.0
                  and s.config.kind.value == "sup"]
        assert len(alpha3) == 5 * 8  # the published row block: 5 taus x 8 betas
        assert all(s.dgp1 == s.dgp2 for s in specs)
        assert all(s.n1 == s.n2 == 2000 for s in specs)

    def test_power_tables(self):
        up = preset_specs("power_up", seed=1)
        assert len(up) == 2 * 4 * 10
        assert all(s.dgp1 == DoubleParetoParams(2.1, 1.5) for s in up)
        assert all(s.dgp2.alpha == 100.0 for s in up)
        down = [s for s in preset_specs("power_down", seed=1) if s.n1 == 500]
        assert len(down) == 2 * 1 * 10
        assert all(s.config.direction.value == "down" for s in down)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_specs("nope")
