import numpy as np
import pytest

from isdtest import (
    ConfigError,
    DoubleParetoParams,
    Scheme,
    SimMode,
    SimSpec,
    TestConfig,
    preset_specs,
    run_table,
)

DGP = DoubleParetoParams(3.0, 2.0)
INF = float("inf")


def spec(replications=50, n=100, mode=SimMode.WARPSPEED, **cfg_kw):
    base = dict(grid=201, vgrid=51, seed=3)
    base.update(cfg_kw)
    return SimSpec(DGP, DGP, n, n, TestConfig(**base), replications, mode)


class TestSimSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimSpec(DGP, DGP, 100, 100, TestConfig(), 0)
        with pytest.raises(ConfigError):
            SimSpec(DGP, DGP, 1, 100, TestConfig(), 10)
        with pytest.raises(ConfigError):
            SimSpec(DGP, DGP, 100, 100, TestConfig(scheme=Scheme.MATCHED), 10)


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


class TestRunTable:
    def test_grouping_matches_individual_cells(self):
        # Batched execution must reproduce the stand-alone cells bit-exactly.
        specs = [spec(tau=t, kind=k, direction=d)
                 for t in (2.0, 3.0)
                 for k in ("sup", "int")
                 for d in ("up", "down")]
        table = run_table(specs)
        for s, joint in zip(specs, table):
            alone = run_table([s])[0]
            assert joint.rejection_rate == alone.rejection_rate
            assert joint.critical_value == alone.critical_value

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
        down = preset_specs("power_down", seed=1, sizes=(500,))
        assert len(down) == 2 * 1 * 10
        assert all(s.config.direction.value == "down" for s in down)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_specs("nope")
