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
i is measured on mask row i mod D, and a stack of T such masks, one per
bandwidth, yields T rows of values.  :func:`functional` is the derivative
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


def estimate_contact_set(phi, vhat, t_n: float, tau_n: float) -> np.ndarray:
    """The mask of grid points where |sqrt(T_n) * phi| <= tau_n * vhat,
    shape (G,), or (D, G) for D curves on a grid of G points.

    ``tau_n = inf`` yields full membership (the conservative variant that
    uses the whole interval).  The endpoint where the difference vanishes
    by construction (p = 0 upward, p = 1 downward) is always a member
    because the trimmed deviation is positive.
    """
    return np.abs(np.sqrt(t_n) * phi) <= tau_n * vhat


def _left_to_right(terms: np.ndarray) -> np.ndarray:
    """Each column of a C-contiguous (L, lanes) array summed from its top row
    down.  numpy reduces along the leading axis row after row, adding across
    the lanes, but sums a lone lane pairwise; a cumulative sum is sequential."""
    if terms.shape[1] > 1 or len(terms) == 0:
        return np.add.reduce(terms, axis=0)
    return np.cumsum(terms, axis=0)[-1]


def derivative(kind: FunctionalKind, h: np.ndarray, contact: np.ndarray, grid: Grid,
               columns=None, work: BlockWorkspace | None = None) -> np.ndarray:
    """The ``kind`` functional of the float array h restricted to the
    contact set (per row for a stack of curves), an array, 0-d for one
    curve.

    The sup takes the maximum over the member points.  The integral is the
    trapezoidal integral of max(h, 0) over the subintervals with both
    endpoints in the set, so the set is measured as a union of grid
    intervals and isolated member points carry zero measure.  It is the
    sum, from left to right, of all C - 1 grid-ordered trapezoids
    w_j (g_j + g_j+1) / 2, where a subinterval outside the set contributes
    +0.0.  Adding +0.0 leaves a running sum of nonnegative terms unchanged,
    so a value's bits depend on neither the set's size, nor the columns,
    nor the other curves and sets of the call.  (Summing each row's
    members pairwise, as this function once did, gives other last bits.)
    ``contact`` is the set's boolean mask, shape (G,) or (D, G); with D
    rows, curve row i is measured on mask row i mod D, so h holds a whole
    number of D-row groups.  A stack of T such masks, shape
    (T, D, G), one per bandwidth, measures every curve on each and returns
    T leading rows of values: the integrals of all T R curves are one
    reduction down a (C - 1, T R) array, which numpy runs row after row.
    With ``columns``, an array of strictly increasing indices of grid
    points, h and the masks hold those points only, shape (..., C): two
    neighbouring columns bound a subinterval only if they are neighbours
    on the grid.  When every member of the set is among the columns, the value is bit
    for bit that of the whole grid.  Scratch arrays come from ``work`` (see
    :class:`~isdtest.curves.BlockWorkspace`), or from a fresh workspace
    when none is given: the sup's masked copy of h, and the integral's
    trapezoids in the buffers that :func:`~isdtest.curves.eval_block` uses
    for its sums, which are free between its calls.
    """
    mask = contact.reshape(-1, *contact.shape[-2:]) if contact.ndim > 1 else contact[None, None]
    bands, depth, size = mask.shape
    stack = h.reshape(-1, depth, size)
    work = work if work is not None else BlockWorkspace()
    if kind is FunctionalKind.SUP:
        # A maximum does not depend on the order of the members.
        members = work.array("members", stack.shape)
        out = np.empty((bands, *stack.shape[:-1]))
        for t in range(bands):
            members.fill(-np.inf)
            np.copyto(members, stack, where=mask[t])
            np.max(members, axis=-1, out=out[t])
    else:
        keep = mask[..., :-1] & mask[..., 1:]
        widths = np.diff(grid.points)
        if columns is not None:  # two columns bound a subinterval only as grid neighbours
            keep &= columns[1:] == columns[:-1] + 1
            widths = widths[columns[:-1]]
        # Two buffers in turn: "part" holds the positive part and then the
        # masked trapezoids, one row per (band, curve); "acc" the trapezoids
        # and then the masked ones transposed, one lane per (band, curve).
        g = np.maximum(stack, 0.0, out=work.array("part", stack.shape))
        values = np.add(g[..., :-1], g[..., 1:],
                        out=work.array("acc", (len(stack), depth, size - 1)))
        values *= widths
        values *= 0.5  # bit for bit a division by 2
        # A member's trapezoid keeps its bits and any other becomes +0.0: an
        # AND with all ones (-1) or all zeros.
        lanes = work.array("part", (bands * len(stack) * depth, size - 1))
        np.bitwise_and(values.view(np.int64), -keep.view(np.int8)[:, None],
                       out=lanes.view(np.int64).reshape(bands, *values.shape))
        terms = work.array("acc", lanes.shape[::-1])
        np.copyto(terms, lanes.T)
        out = _left_to_right(terms)
    return out.reshape(contact.shape[:-2] + h.shape[:-1])


def functional(kind: FunctionalKind, h: np.ndarray, grid: Grid) -> np.ndarray:
    """The ``kind`` functional of h over the whole grid (per row for a
    stack of curves): the sup of h, or the trapezoidal integral of
    max(h, 0) over [0, 1]."""
    return derivative(kind, h, np.ones(len(grid), dtype=bool), grid)
