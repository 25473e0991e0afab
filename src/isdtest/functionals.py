"""Positive-part functionals, the estimated contact set, and their derivatives.

Two functionals measure the positive part of a curve difference h on [0, 1]:
the supremum and the integral of max(h, 0).  Their estimated directional
derivatives restrict the same measurements to the contact region where the
two curves are statistically indistinguishable from touching.  The
contact set is a boolean mask over the grid points, shape (G,), or (D, G)
with one row per dataset of a stack; :func:`estimate_contact_set` returns
it.  :func:`derivative` picks the sup or the integral variant by
:class:`FunctionalKind` and reduces along the last axis, so a stack of R
curves, shape (R, G), yields R values at once; with D mask rows, curve row
i is measured on mask row i mod D.  :func:`functional` is the derivative
over the whole grid.  The test and the simulation harness both go through
these two functions.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .curves import BlockWorkspace, Grid

__all__ = [
    "FunctionalKind",
    "estimate_contact_set",
    "functional",
    "derivative",
]


class FunctionalKind(Enum):
    SUP = "sup"
    INT = "int"


def _reduced(values: np.ndarray):
    """A float for one curve, an array of R values for a stack."""
    return float(values) if values.ndim == 0 else values


def estimate_contact_set(phi, vhat, t_n: float, tau_n: float, grid: Grid) -> np.ndarray:
    """The mask of grid points where |sqrt(T_n) * phi| <= tau_n * vhat,
    shape (G,), or (D, G) for D curves.

    ``tau_n = inf`` yields full membership (the conservative variant that
    uses the whole interval).  The endpoint where the difference vanishes
    by construction (p = 0 upward, p = 1 downward) is always a member
    because the trimmed deviation is positive.
    """
    return np.abs(np.sqrt(t_n) * phi) <= tau_n * vhat


def derivative(kind: FunctionalKind, h, contact, grid: Grid, columns=None,
               work: BlockWorkspace | None = None):
    """The ``kind`` functional of h restricted to the contact set (per row
    for a stack of curves).

    The sup takes the maximum over the member points.  The integral is the
    trapezoidal integral of max(h, 0) over the subintervals with both
    endpoints in the set, so the set is measured as a union of grid
    intervals and isolated member points carry zero measure.  ``contact``
    is the set's boolean mask, shape (G,) or (D, G); with D rows, curve row
    i is measured on mask row i mod D, so h holds a whole number of D-row
    groups.  With ``columns``, strictly increasing indices of grid points,
    h and the mask hold those points only, shape (..., C): two neighbouring
    columns bound a subinterval only if they are neighbours on the grid.
    When every member of the set is among the columns, the value is bit for
    bit that of the whole grid, since the members, and the subintervals
    kept, are the same and in the same order.  The sup's masked copy of h
    comes from ``work`` (see :class:`~isdtest.curves.BlockWorkspace`), or
    from a fresh workspace when none is given.  The integral's temporaries
    stay fresh arrays: held in a workspace for the whole bootstrap call,
    they made the allocator hand memory back and fault it in again.
    """
    cols = None if columns is None else np.asarray(columns)
    h = np.asarray(h, dtype=float)
    mask = np.atleast_2d(np.asarray(contact, dtype=bool))
    depth, size = mask.shape
    if kind is FunctionalKind.SUP:
        # A maximum does not depend on the order of the members.
        stack = h.reshape(-1, depth, size)
        work = work if work is not None else BlockWorkspace()
        members = work.array("members", stack.shape)
        members.fill(-np.inf)
        np.copyto(members, stack, where=mask)
        out = np.max(members, axis=-1)
    else:
        g = np.maximum(h, 0.0)
        widths = np.diff(grid.points) if cols is None else np.diff(grid.points)[cols[:-1]]
        values = widths * (g[..., :-1] + g[..., 1:]) / 2.0
        rows = values.reshape(h.size // mask.size, depth, -1)
        # np.compress keeps each row's members contiguous (boolean indexing
        # does not), so a row sums in the same order as a single curve would.
        out = np.empty(rows.shape[:-1])
        keep = mask[:, :-1] & mask[:, 1:]
        if cols is not None:  # two columns bound a subinterval only as grid neighbours
            keep &= cols[1:] == cols[:-1] + 1
        for d, row_keep in enumerate(keep):
            np.sum(np.compress(row_keep, rows[:, d], axis=-1), axis=-1, out=out[:, d])
    return _reduced(out.reshape(h.shape[:-1]))


def functional(kind: FunctionalKind, h, grid: Grid) -> float:
    """The ``kind`` functional of h over the whole grid: the sup of h, or
    the trapezoidal integral of max(h, 0) over [0, 1]."""
    return derivative(kind, h, np.ones(len(grid), dtype=bool), grid)
