"""Positive-part functionals, the estimated contact set, and their derivatives.

Two functionals measure the positive part of a curve difference h on [0, 1]:
the supremum and the integral of max(h, 0).  Their estimated directional
derivatives restrict the same measurements to the contact region where the
two curves are statistically indistinguishable from touching.  The
derivatives reduce along the last axis, so a stack of R curves, shape
(R, G), yields R values at once.  :func:`functional` and :func:`derivative`
pick the sup or the integral variant by :class:`FunctionalKind`; the test
and the simulation harness both go through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Grid
from .errors import ConfigError

__all__ = [
    "FunctionalKind",
    "ContactSet",
    "sup_functional",
    "int_functional",
    "estimate_contact_set",
    "derivative_sup",
    "derivative_int",
    "functional",
    "derivative",
]


class FunctionalKind(Enum):
    SUP = "sup"
    INT = "int"


@dataclass(frozen=True)
class ContactSet:
    """Grid membership of the estimated contact region.

    A point belongs to the set when the studentized curve difference is
    within ``tau`` estimated standard deviations of zero.  The endpoint
    where the difference vanishes by construction (p = 0 upward, p = 1
    downward) is always a member because the trimmed deviation is positive.
    """

    grid: Grid
    membership: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.membership, dtype=bool)
        if len(mask) != len(self.grid):
            raise ConfigError("membership length does not match the grid")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "membership", mask)

    @property
    def fraction(self) -> float:
        """Share of grid points inside the set."""
        return float(np.count_nonzero(self.membership)) / len(self.grid)


def _aligned(values, grid: Grid) -> np.ndarray:
    h = np.asarray(values, dtype=float)
    if h.ndim != 1 or len(h) != len(grid):
        raise ConfigError("values are not aligned with the grid")
    return h


def _stacked(values, grid: Grid) -> np.ndarray:
    h = np.asarray(values, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != len(grid):
        raise ConfigError("values are not aligned with the grid")
    return h


def _reduced(values: np.ndarray):
    """A float for one curve, an array of R values for a stack."""
    return float(values) if values.ndim == 0 else values


def _members(values: np.ndarray, mask) -> np.ndarray:
    # np.compress keeps each row contiguous (boolean indexing on the last
    # axis does not), so a row reduces exactly as a single curve would.
    return np.compress(mask, values, axis=-1)


def _trapezoid_masked(g: np.ndarray, points: np.ndarray, interval_mask):
    # Sum over subintervals whose both endpoints qualify; isolated member
    # points carry zero measure.
    dp = np.diff(points)
    seg = dp * (g[..., :-1] + g[..., 1:]) / 2.0
    return _reduced(np.sum(_members(seg, interval_mask), axis=-1))


def sup_functional(h) -> float:
    """Maximum of the values (grid proxy for the supremum over [0, 1])."""
    h = np.asarray(h, dtype=float)
    if h.size == 0:
        raise ConfigError("sup functional of an empty value list")
    return float(np.max(h))


def int_functional(h, grid: Grid) -> float:
    """Trapezoidal integral of max(h, 0) over [0, 1]."""
    h = _aligned(h, grid)
    g = np.maximum(h, 0.0)
    full = np.ones(len(grid) - 1, dtype=bool)
    return _trapezoid_masked(g, grid.points, full)


def estimate_contact_set(phi, vhat, t_n: float, tau_n: float, grid: Grid) -> ContactSet:
    """Points where |sqrt(T_n) * phi| <= tau_n * vhat.

    ``tau_n = inf`` yields full membership (the conservative variant that
    uses the whole interval).
    """
    phi = _aligned(phi, grid)
    v = _aligned(vhat, grid)
    if t_n <= 0:
        raise ConfigError("effective sample size must be positive")
    if not tau_n > 0:
        raise ConfigError("contact-set bandwidth tau must be positive (or inf)")
    membership = np.abs(np.sqrt(t_n) * phi) <= tau_n * v
    return ContactSet(grid, membership)


def derivative_sup(h, cs: ContactSet):
    """Maximum of h over the contact set (per row for a stack of curves)."""
    h = _stacked(h, cs.grid)
    if not np.any(cs.membership):
        raise ConfigError("contact set is empty; the grid is malformed")
    return _reduced(np.max(_members(h, cs.membership), axis=-1))


def derivative_int(h, cs: ContactSet, grid: Grid):
    """Trapezoidal integral of max(h, 0) restricted to the contact set
    (per row for a stack of curves).

    Only subintervals with both endpoints in the set contribute, so the
    set is measured as a union of grid intervals.
    """
    h = _stacked(h, grid)
    if len(cs.membership) != len(grid):
        raise ConfigError("contact set is not aligned with the grid")
    g = np.maximum(h, 0.0)
    both = cs.membership[:-1] & cs.membership[1:]
    return _trapezoid_masked(g, grid.points, both)


def functional(kind: FunctionalKind, h, grid: Grid) -> float:
    """The ``kind`` functional of h over the whole grid."""
    if kind is FunctionalKind.SUP:
        return sup_functional(h)
    return int_functional(h, grid)


def derivative(kind: FunctionalKind, h, cs: ContactSet, grid: Grid):
    """The ``kind`` derivative of h on the contact set (per row for a stack)."""
    if kind is FunctionalKind.SUP:
        return derivative_sup(h, cs)
    return derivative_int(h, cs, grid)
