import numpy as np
import pytest

from isdtest import (
    ConfigError,
    ContactSet,
    FunctionalKind,
    Grid,
    derivative,
    derivative_int,
    derivative_sup,
    estimate_contact_set,
    functional,
    int_functional,
    sup_functional,
)


@pytest.fixture
def grid():
    return Grid.uniform(1001)


class TestSupFunctional:
    def test_attained_at_one(self, grid):
        h = grid.points - 0.5
        assert sup_functional(h) == pytest.approx(0.5)

    def test_nonpositive_touching_zero(self, grid):
        h = -np.ones(len(grid))
        h[0] = 0.0
        assert sup_functional(h) == 0.0

    def test_zero(self, grid):
        assert sup_functional(np.zeros(len(grid))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sup_functional([])


class TestIntFunctional:
    def test_triangle(self, grid):
        h = grid.points - 0.5
        assert int_functional(h, grid) == pytest.approx(0.125, rel=1e-9)

    def test_nonpositive_is_zero(self, grid):
        assert int_functional(-np.ones(len(grid)), grid) == 0.0

    def test_constant_one(self, grid):
        assert int_functional(np.ones(len(grid)), grid) == pytest.approx(1.0, rel=1e-12)

    def test_misaligned(self, grid):
        with pytest.raises(ConfigError):
            int_functional(np.ones(7), grid)


class TestHomogeneityAndMonotonicity:
    def test_positive_homogeneity(self, grid):
        rng = np.random.default_rng(4)
        h = rng.normal(size=len(grid))
        for c in (2.0, 117.5):
            assert sup_functional(c * h) == pytest.approx(c * sup_functional(h), rel=1e-15)
            assert int_functional(c * h, grid) == pytest.approx(
                c * int_functional(h, grid), rel=1e-13)

    def test_monotone(self, grid):
        rng = np.random.default_rng(6)
        h = rng.normal(size=len(grid))
        h2 = h + np.abs(rng.normal(size=len(grid)))
        assert sup_functional(h2) >= sup_functional(h)
        assert int_functional(h2, grid) >= int_functional(h, grid)
        cs = estimate_contact_set(np.zeros(len(grid)), np.full(len(grid), 0.1), 100.0, 3.0, grid)
        assert derivative_sup(h2, cs) >= derivative_sup(h, cs)
        assert derivative_int(h2, cs, grid) >= derivative_int(h, cs, grid)

    def test_assumption_positive_interior(self, grid):
        h = np.zeros(len(grid))
        h[500] = 0.3
        assert sup_functional(h) > 0
        assert int_functional(h, grid) > 0


class TestContactSet:
    def test_zero_difference_full_membership(self, grid):
        cs = estimate_contact_set(np.zeros(len(grid)), np.full(len(grid), 0.05), 50.0, 3.0, grid)
        assert cs.membership.all()
        assert cs.fraction == 1.0

    def test_infinite_tau_full_membership(self, grid):
        phi = np.linspace(0, 5.0, len(grid))
        cs = estimate_contact_set(phi, np.full(len(grid), 0.0316), 1e4, float("inf"), grid)
        assert cs.membership.all()

    def test_large_deviation_excluded(self, grid):
        # |sqrt(T_n) phi| = 100 at one point against tau * vhat ~ 0.095.
        phi = np.zeros(len(grid))
        phi[300] = 1.0
        vhat = np.full(len(grid), np.sqrt(0.001))
        cs = estimate_contact_set(phi, vhat, 1e4, 3.0, grid)
        assert not cs.membership[300]
        assert cs.membership[0] and cs.membership[-1]

    def test_tau_monotone_membership(self, grid):
        rng = np.random.default_rng(12)
        phi = rng.normal(scale=0.02, size=len(grid))
        vhat = np.full(len(grid), np.sqrt(0.001))
        prev = None
        for tau in (1.0, 2.0, 3.0, 4.0, float("inf")):
            cs = estimate_contact_set(phi, vhat, 400.0, tau, grid)
            if prev is not None:
                assert np.all(prev.membership <= cs.membership)
            prev = cs

    def test_validation(self, grid):
        v = np.full(len(grid), 0.1)
        with pytest.raises(ConfigError):
            estimate_contact_set(np.zeros(5), v, 10.0, 3.0, grid)
        with pytest.raises(ConfigError):
            estimate_contact_set(np.zeros(len(grid)), v, -1.0, 3.0, grid)
        with pytest.raises(ConfigError):
            estimate_contact_set(np.zeros(len(grid)), v, 10.0, 0.0, grid)


class TestDerivatives:
    def test_single_member(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        cs = ContactSet(g, [False, True, False])
        assert derivative_sup([1.0, 7.0, -2.0], cs) == 7.0

    def test_full_grid_equals_functionals_exactly(self, grid):
        rng = np.random.default_rng(3)
        h = rng.normal(size=len(grid))
        cs = ContactSet(grid, np.ones(len(grid), dtype=bool))
        assert derivative_sup(h, cs) == sup_functional(h)
        assert derivative_int(h, cs, grid) == int_functional(h, grid)

    def test_kind_switch(self, grid):
        h = np.random.default_rng(4).normal(size=len(grid))
        cs = ContactSet(grid, grid.points <= 0.5)
        assert functional(FunctionalKind.SUP, h, grid) == sup_functional(h)
        assert functional(FunctionalKind.INT, h, grid) == int_functional(h, grid)
        assert derivative(FunctionalKind.SUP, h, cs, grid) == derivative_sup(h, cs)
        assert derivative(FunctionalKind.INT, h, cs, grid) == derivative_int(h, cs, grid)

    def test_nonpositive_with_zero(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        cs = ContactSet(g, [True, True, True])
        assert derivative_sup([0.0, -1.0, -3.0], cs) == 0.0

    def test_isolated_endpoint_zero_measure(self, grid):
        # Only p = 0 in the set: the integral derivative sees no interval.
        membership = np.zeros(len(grid), dtype=bool)
        membership[0] = True
        cs = ContactSet(grid, membership)
        h = np.ones(len(grid))
        assert derivative_int(h, cs, grid) == 0.0
        assert derivative_sup(h, cs) == 1.0

    def test_interval_measure(self, grid):
        membership = grid.points <= 0.5
        cs = ContactSet(grid, membership)
        assert derivative_int(np.ones(len(grid)), cs, grid) == pytest.approx(0.5, rel=1e-12)

    def test_empty_contact_set_rejected(self, grid):
        cs = ContactSet(grid, np.zeros(len(grid), dtype=bool))
        with pytest.raises(ConfigError, match="empty"):
            derivative_sup(np.ones(len(grid)), cs)

    def test_membership_alignment(self, grid):
        with pytest.raises(ConfigError):
            ContactSet(grid, [True, False])
