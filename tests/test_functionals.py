import numpy as np
import pytest

from isdtest import ConfigError, FunctionalKind, TestConfig
from isdtest.curves import Grid
from isdtest.functionals import derivative, estimate_contact_set, functional

from conftest import core_calls, grid_columns

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

    def test_empty_rejected(self):
        # functional does not check that h is nonempty: the core passes
        # phi-hat on the test's grid, which TestConfig gives two points at
        # least.
        calls = [args for args, _ in core_calls()["inference.functional"] if args["kind"] is SUP]
        assert calls
        for args in calls:
            assert np.shape(args["h"])[-1] == len(args["grid"]) >= 2
        with pytest.raises(ConfigError):
            TestConfig(grid=1)


class TestIntFunctional:
    def test_triangle(self, grid):
        h = grid.points - 0.5
        assert functional(INT, h, grid) == pytest.approx(0.125, rel=1e-9)

    def test_nonpositive_is_zero(self, grid):
        assert functional(INT, -np.ones(len(grid)), grid) == 0.0

    def test_constant_one(self, grid):
        assert functional(INT, np.ones(len(grid)), grid) == pytest.approx(1.0, rel=1e-12)

    def test_misaligned(self):
        # functional does not check h against the grid: the core evaluates
        # phi-hat on the grid it measures it on.
        calls = [args for args, _ in core_calls()["inference.functional"] if args["kind"] is INT]
        assert calls
        for args in calls:
            assert np.shape(args["h"])[-1] == len(args["grid"])


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
        assert cs.dtype == bool and cs.shape == (len(grid),)
        assert cs.all()

    def test_infinite_tau_full_membership(self, grid):
        phi = np.linspace(0, 5.0, len(grid))
        cs = estimate_contact_set(phi, np.full(len(grid), 0.0316), 1e4, float("inf"), grid)
        assert cs.all()

    def test_large_deviation_excluded(self, grid):
        # |sqrt(T_n) phi| = 100 at one point against tau * vhat ~ 0.095.
        phi = np.zeros(len(grid))
        phi[300] = 1.0
        vhat = np.full(len(grid), np.sqrt(0.001))
        cs = estimate_contact_set(phi, vhat, 1e4, 3.0, grid)
        assert not cs[300]
        assert cs[0] and cs[-1]

    def test_tau_monotone_membership(self, grid):
        rng = np.random.default_rng(12)
        phi = rng.normal(scale=0.02, size=len(grid))
        vhat = np.full(len(grid), np.sqrt(0.001))
        prev = None
        for tau in (1.0, 2.0, 3.0, 4.0, float("inf")):
            cs = estimate_contact_set(phi, vhat, 400.0, tau, grid)
            if prev is not None:
                assert np.all(prev <= cs)
            prev = cs

    def test_validation(self):
        # estimate_contact_set does not check its arguments: the core passes
        # phi-hat and sigma-hat on one grid, the effective size of two
        # nonempty samples and the config's tau, which TestConfig holds
        # positive.
        for args, cs in core_calls()["inference.estimate_contact_set"]:
            size = len(args["grid"])
            assert np.shape(args["phi"])[-1] == np.shape(args["vhat"])[-1] == size
            assert 0.0 < args["t_n"] < np.inf and args["tau_n"] > 0.0
            assert cs.shape[-1] == size
        with pytest.raises(ConfigError):
            TestConfig(tau=0.0)


class TestDerivatives:
    def test_single_member(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        assert derivative(SUP, [1.0, 7.0, -2.0], [False, True, False], g) == 7.0

    def test_full_grid_equals_functionals_exactly(self, grid):
        rng = np.random.default_rng(3)
        h = rng.normal(size=len(grid))
        cs = np.ones(len(grid), dtype=bool)
        assert derivative(SUP, h, cs, grid) == np.max(h)
        assert derivative(INT, h, cs, grid) == trapezoid(np.maximum(h, 0.0), grid.points)

    def test_kind_switch(self, grid):
        h = np.random.default_rng(4).normal(size=len(grid))
        cs = inside = grid.points <= 0.5
        assert functional(SUP, h, grid) == np.max(h)
        assert functional(INT, h, grid) == trapezoid(np.maximum(h, 0.0), grid.points)
        assert derivative(SUP, h, cs, grid) == np.max(h[inside])
        assert derivative(INT, h, cs, grid) == trapezoid(np.maximum(h[inside], 0.0),
                                                          grid.points[inside])

    def test_nonpositive_with_zero(self):
        g = Grid(np.array([0.0, 0.5, 1.0]))
        assert derivative(SUP, [0.0, -1.0, -3.0], [True, True, True], g) == 0.0

    def test_isolated_endpoint_zero_measure(self, grid):
        # Only p = 0 in the set: the integral derivative sees no interval.
        cs = np.zeros(len(grid), dtype=bool)
        cs[0] = True
        h = np.ones(len(grid))
        assert derivative(INT, h, cs, grid) == 0.0
        assert derivative(SUP, h, cs, grid) == 1.0

    def test_interval_measure(self, grid):
        cs = grid.points <= 0.5
        assert derivative(INT, np.ones(len(grid)), cs, grid) == pytest.approx(0.5, rel=1e-12)

    def test_empty_contact_set_rejected(self):
        # derivative does not check that the set is nonempty: the endpoint
        # where phi-hat vanishes is always a member, because sigma-hat is at
        # least sqrt(xi) and TestConfig holds xi positive.
        for args, cs in core_calls()["inference.estimate_contact_set"]:
            zero = np.broadcast_to(args["phi"] == 0.0, cs.shape)
            assert np.all(zero.any(axis=-1)) and np.all(cs[zero])
        for args, _ in core_calls()["inference.derivative"]:
            assert np.all(np.atleast_2d(args["contact"]).any(axis=-1))
        with pytest.raises(ConfigError):
            TestConfig(xi=0.0)

    def test_membership_alignment(self):
        # derivative does not check the mask against h: the core builds both
        # at the same columns of one grid.
        for args, _ in core_calls()["inference.derivative"]:
            contact, h = args["contact"], args["h"]
            assert contact.dtype == bool and contact.ndim in (1, 2)
            assert contact.shape[-1] == h.shape[-1]


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
        got = derivative(kind, h, mask, g)
        assert got.shape == (groups * depth,)
        for i, row in enumerate(h):
            assert got[i] == derivative(kind, row, mask[i % depth], g), i

    def test_contact_sets_of_a_stack(self):
        rng = np.random.default_rng(52)
        g = Grid.uniform(51)
        phi, vhat = rng.normal(size=(3, 51)), rng.random((3, 51)) + 0.1
        cs = estimate_contact_set(phi, vhat, 40.0, 3.0, g)
        assert cs.shape == (3, 51)
        for d in range(3):
            assert np.array_equal(cs[d], estimate_contact_set(phi[d], vhat[d], 40.0, 3.0, g))

    def test_misaligned_stack_rejected(self):
        # derivative does not check that h holds whole groups of D rows: the
        # core's block holds D rows, one per dataset, for each replication.
        stacks = [args for args, _ in core_calls()["inference.derivative"]
                  if args["contact"].ndim == 2]
        assert any(len(args["contact"]) > 1 for args in stacks)
        for args in stacks:
            assert len(args["h"]) % len(args["contact"]) == 0


class TestColumns:
    """Curves and sets held at some grid columns measure as on the whole
    grid whenever every member is among the columns: two columns bound a
    subinterval only if they are neighbours on the grid."""

    @pytest.mark.parametrize("kind", [SUP, INT], ids=lambda k: k.value)
    @pytest.mark.parametrize("depth", [1, 3])
    def test_members_among_columns(self, kind, depth):
        rng = np.random.default_rng(53)
        g = Grid(np.concatenate(([0.0], np.sort(rng.random(99)), [1.0])))
        mask = np.zeros((depth, 101), dtype=bool)
        mask[:, 0] = True
        mask[:, 10:30] = rng.random((depth, 20)) < 0.7
        mask[:, 60:64] = True
        h = rng.normal(size=(2 * depth, 101))
        union = mask.any(axis=0)
        for extra in ([], [31, 32, 59, 100], list(range(101))):
            union[extra] = True
            columns = np.flatnonzero(union)
            got = derivative(kind, h[:, columns], mask[:, columns], g, columns)
            assert got.tobytes() == derivative(kind, h, mask, g).tobytes(), extra

    def test_gap_is_not_a_subinterval(self):
        # Columns 2 and 5 are neighbours among the columns, not on the grid.
        g = Grid.uniform(11)
        h = np.ones(3)
        assert derivative(INT, h, np.ones(3, dtype=bool), g, [1, 2, 5]) == pytest.approx(0.1)
        assert derivative(INT, h, np.ones(3, dtype=bool), g, [1, 2, 3]) == pytest.approx(0.2)

    def test_misaligned_columns(self):
        # derivative does not check its columns: the core passes grid
        # indices, one per point of h, or none for the whole grid.
        for args, _ in core_calls()["inference.derivative"]:
            columns, size = args["columns"], len(args["grid"])
            if columns is None:
                assert args["h"].shape[-1] == size
            else:
                assert grid_columns(columns, size) and len(columns) == args["h"].shape[-1]
