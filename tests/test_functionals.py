import numpy as np
import pytest

from isdtest import (
    ConfigError,
    ContactSet,
    FunctionalKind,
    Grid,
    derivative,
    estimate_contact_set,
    functional,
)

SUP, INT = FunctionalKind.SUP, FunctionalKind.INT


def trapezoid(g, points):
    """Plain trapezoid rule on the grid."""
    return np.sum(np.diff(points) * (g[:-1] + g[1:]) / 2.0)


@pytest.fixture
def grid():
    return Grid.uniform(1001)


class TestSupFunctional:
    def test_attained_at_one(self, grid):
        h = grid.points - 0.5
        assert functional(SUP, h, grid) == pytest.approx(0.5)

    def test_nonpositive_touching_zero(self, grid):
        h = -np.ones(len(grid))
        h[0] = 0.0
        assert functional(SUP, h, grid) == 0.0

    def test_zero(self, grid):
        assert functional(SUP, np.zeros(len(grid)), grid) == 0.0

    def test_empty_rejected(self, grid):
        with pytest.raises(ConfigError):
            functional(SUP, [], grid)


class TestIntFunctional:
    def test_triangle(self, grid):
        h = grid.points - 0.5
        assert functional(INT, h, grid) == pytest.approx(0.125, rel=1e-9)

    def test_nonpositive_is_zero(self, grid):
        assert functional(INT, -np.ones(len(grid)), grid) == 0.0

    def test_constant_one(self, grid):
        assert functional(INT, np.ones(len(grid)), grid) == pytest.approx(1.0, rel=1e-12)

    def test_misaligned(self, grid):
        with pytest.raises(ConfigError):
            functional(INT, np.ones(7), grid)


class TestHomogeneityAndMonotonicity:
    def test_positive_homogeneity(self, grid):
        rng = np.random.default_rng(4)
        h = rng.normal(size=len(grid))
        for c in (2.0, 117.5):
            assert functional(SUP, c * h, grid) == pytest.approx(
                c * functional(SUP, h, grid), rel=1e-15)
            assert functional(INT, c * h, grid) == pytest.approx(
                c * functional(INT, h, grid), rel=1e-13)

    def test_monotone(self, grid):
        rng = np.random.default_rng(6)
        h = rng.normal(size=len(grid))
        h2 = h + np.abs(rng.normal(size=len(grid)))
        assert functional(SUP, h2, grid) >= functional(SUP, h, grid)
        assert functional(INT, h2, grid) >= functional(INT, h, grid)
        cs = estimate_contact_set(np.zeros(len(grid)), np.full(len(grid), 0.1), 100.0, 3.0, grid)
        assert derivative(SUP, h2, cs, grid) >= derivative(SUP, h, cs, grid)
        assert derivative(INT, h2, cs, grid) >= derivative(INT, h, cs, grid)

    def test_assumption_positive_interior(self, grid):
        h = np.zeros(len(grid))
        h[500] = 0.3
        assert functional(SUP, h, grid) > 0
        assert functional(INT, h, grid) > 0


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
        assert derivative(SUP, [1.0, 7.0, -2.0], cs, g) == 7.0

    def test_full_grid_equals_functionals_exactly(self, grid):
        rng = np.random.default_rng(3)
        h = rng.normal(size=len(grid))
        cs = ContactSet(grid, np.ones(len(grid), dtype=bool))
        assert derivative(SUP, h, cs, grid) == np.max(h)
        assert derivative(INT, h, cs, grid) == trapezoid(np.maximum(h, 0.0), grid.points)

    def test_kind_switch(self, grid):
        h = np.random.default_rng(4).normal(size=len(grid))
        cs = ContactSet(grid, grid.points <= 0.5)
        inside = grid.points <= 0.5
        assert functional(SUP, h, grid) == np.max(h)
        assert functional(INT, h, grid) == trapezoid(np.maximum(h, 0.0), grid.points)
        assert derivative(SUP, h, cs, grid) == np.max(h[inside])
        assert derivative(INT, h, cs, grid) == trapezoid(np.maximum(h[inside], 0.0),
                                                          grid.points[inside])

    def test_nonpositive_with_zero(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        cs = ContactSet(g, [True, True, True])
        assert derivative(SUP, [0.0, -1.0, -3.0], cs, g) == 0.0

    def test_isolated_endpoint_zero_measure(self, grid):
        # Only p = 0 in the set: the integral derivative sees no interval.
        membership = np.zeros(len(grid), dtype=bool)
        membership[0] = True
        cs = ContactSet(grid, membership)
        h = np.ones(len(grid))
        assert derivative(INT, h, cs, grid) == 0.0
        assert derivative(SUP, h, cs, grid) == 1.0

    def test_interval_measure(self, grid):
        membership = grid.points <= 0.5
        cs = ContactSet(grid, membership)
        assert derivative(INT, np.ones(len(grid)), cs, grid) == pytest.approx(0.5, rel=1e-12)

    def test_empty_contact_set_rejected(self, grid):
        cs = ContactSet(grid, np.zeros(len(grid), dtype=bool))
        with pytest.raises(ConfigError, match="empty"):
            derivative(SUP, np.ones(len(grid)), cs, grid)

    def test_membership_alignment(self, grid):
        with pytest.raises(ConfigError):
            ContactSet(grid, [True, False])


class TestPerRowContactSets:
    """D membership rows: curve row i is measured on row i mod D, exactly
    as that curve alone on its own set."""

    @pytest.mark.parametrize("kind", [SUP, INT], ids=lambda k: k.value)
    @pytest.mark.parametrize("groups", [1, 3])
    def test_rows_match_each_own_set(self, kind, groups):
        rng = np.random.default_rng(51)
        g = Grid.uniform(101)
        depth = 4
        mask = rng.random((depth, 101)) < 0.6
        mask[:, 0] = True
        h = rng.normal(size=(groups * depth, 101))
        got = derivative(kind, h, ContactSet(g, mask), g)
        assert got.shape == (groups * depth,)
        for i, row in enumerate(h):
            assert got[i] == derivative(kind, row, ContactSet(g, mask[i % depth]), g), i

    def test_contact_sets_of_a_stack(self):
        rng = np.random.default_rng(52)
        g = Grid.uniform(51)
        phi, vhat = rng.normal(size=(3, 51)), rng.random((3, 51)) + 0.1
        cs = estimate_contact_set(phi, vhat, 40.0, 3.0, g)
        for d in range(3):
            one = estimate_contact_set(phi[d], vhat[d], 40.0, 3.0, g)
            assert np.array_equal(cs.membership[d], one.membership)
            assert cs.fraction[d] == one.fraction

    def test_misaligned_stack_rejected(self):
        g = Grid.uniform(11)
        cs = ContactSet(g, np.ones((3, 11), dtype=bool))
        with pytest.raises(ConfigError):
            derivative(SUP, np.zeros((4, 11)), cs, g)
        with pytest.raises(ConfigError):
            derivative(INT, np.zeros(11), cs, g)
