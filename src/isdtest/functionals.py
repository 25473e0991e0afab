"""Positive-part functionals, the estimated contact set, and their derivatives.

Two functionals measure the positive part of a curve difference h on [0, 1]:
the supremum and the integral of max(h, 0).  Their estimated directional
derivatives restrict the same measurements to the contact region where the
two curves are statistically indistinguishable from touching.
:func:`derivative` picks the sup or the integral variant by
:class:`FunctionalKind` and reduces along the last axis, so a stack of R
curves, shape (R, G), yields R values at once; :func:`functional` is the
derivative over the whole grid.  A contact set may hold one membership row
per dataset of a stack (shape (D, G)), and then curve row i is measured on
membership row i mod D.  The test and the simulation harness both go
through these two functions.
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
    "estimate_contact_set",
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
    ``membership`` has shape (G,), or (D, G) for the sets of D datasets.
    """

    grid: Grid
    membership: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.membership, dtype=bool)
        if mask.ndim not in (1, 2) or mask.shape[-1] != len(self.grid):
            raise ConfigError("membership length does not match the grid")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "membership", mask)

    @property
    def fraction(self):
        """Share of grid points inside the set (per row for D sets)."""
        return _reduced(np.count_nonzero(self.membership, axis=-1) / len(self.grid))


def _stacked(values, grid: Grid) -> np.ndarray:
    h = np.asarray(values, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != len(grid):
        raise ConfigError("values are not aligned with the grid")
    return h


def _reduced(values: np.ndarray):
    """A float for one curve, an array of R values for a stack."""
    return float(values) if values.ndim == 0 else values


def estimate_contact_set(phi, vhat, t_n: float, tau_n: float, grid: Grid) -> ContactSet:
    """Points where |sqrt(T_n) * phi| <= tau_n * vhat (per row for D curves).

    ``tau_n = inf`` yields full membership (the conservative variant that
    uses the whole interval).
    """
    phi = _stacked(phi, grid)
    v = _stacked(vhat, grid)
    if phi.shape != v.shape:
        raise ConfigError("curve and deviation shapes differ")
    if t_n <= 0:
        raise ConfigError("effective sample size must be positive")
    if not tau_n > 0:
        raise ConfigError("contact-set bandwidth tau must be positive (or inf)")
    membership = np.abs(np.sqrt(t_n) * phi) <= tau_n * v
    return ContactSet(grid, membership)


def derivative(kind: FunctionalKind, h, cs: ContactSet, grid: Grid):
    """The ``kind`` functional of h restricted to the contact set (per row
    for a stack of curves).

    The sup takes the maximum over the member points.  The integral is the
    trapezoidal integral of max(h, 0) over the subintervals with both
    endpoints in the set, so the set is measured as a union of grid
    intervals and isolated member points carry zero measure.  With D
    membership rows, curve row i is measured on row i mod D, so h holds a
    whole number of D-row groups.
    """
    h = _stacked(h, grid)
    mask = np.atleast_2d(cs.membership)
    depth = len(mask)
    if mask.shape[-1] != len(grid) or h.size % (depth * len(grid)):
        raise ConfigError("contact set is not aligned with the grid")
    if kind is FunctionalKind.SUP:
        if not mask.any(axis=-1).all():
            raise ConfigError("contact set is empty; the grid is malformed")
        # A maximum does not depend on the order of the members.
        out = np.max(np.where(mask, h.reshape(-1, depth, h.shape[-1]), -np.inf), axis=-1)
    else:
        g = np.maximum(h, 0.0)
        values = np.diff(grid.points) * (g[..., :-1] + g[..., 1:]) / 2.0
        rows = values.reshape(-1, depth, values.shape[-1])
        # np.compress keeps each row's members contiguous (boolean indexing
        # does not), so a row sums in the same order as a single curve would.
        out = np.empty(rows.shape[:-1])
        for d, keep in enumerate(mask[:, :-1] & mask[:, 1:]):
            np.sum(np.compress(keep, rows[:, d], axis=-1), axis=-1, out=out[:, d])
    return _reduced(out.reshape(h.shape[:-1]))


def functional(kind: FunctionalKind, h, grid: Grid) -> float:
    """The ``kind`` functional of h over the whole grid: the sup of h, or
    the trapezoidal integral of max(h, 0) over [0, 1]."""
    return derivative(kind, h, ContactSet(grid, np.ones(len(grid), dtype=bool)), grid)
