"""Plug-in covariance kernel and pointwise variances of the curve difference.

The limiting covariance kernel is estimated from sample covariances of
clipped series min(Q(t), X_i) (one per grid abscissa).  The pointwise
variance of the degree-m curve difference is the (2m-4)-fold repeated
integral of the kernel, which collapses to a weighted double integral

    sigma^2(p) = II w(p,t) w(p,t') K(t,t') dt dt',
    w(p,t) = (p-t)^(m-3)/(m-3)!   (upward; mirrored for downward).

The empirical kernel is piecewise constant on the rectangles of the
order-statistic partition, whose breakpoints lie on the lattice j/n, so
the double integral is exact: it is the (n-1)-denominator variance over k
of f_p(X_(k)) = sum_i W_i(p) min(X_(i), X_(k)), where W_i(p) integrates
the weight over the i-th interval.  With q = m - 2 and j = floor(p n) full
intervals below p, f_p is a degree-q polynomial in p for k <= j, whose
coefficients are prefix sums over the sample, and a constant for k > j.

Independent samples: prefix sums of the coefficients and of their pairwise
products give sum f and sum f^2 at every level, O((n + G) m^2) time and
O(n m) memory for G levels.  Kernels that share a memo compute each
sample's own term once, so the kernels of a ranking's pairs compute it once
per sample, not once per pair.  A stack of D samples of one size, shape
(D, n), is computed at once along a leading axis, each row exactly as that
sample alone.  The downward direction is the upward one applied to the
reflected sample -X reversed at 1 - p; the reflection adds a term linear
in X_(k) beyond j.  Each sample is shifted by its mean first (the variance
is shift-invariant).  The worst error relative to max_p sigma^2(p), against
exact rational arithmetic, is 1e-14 at m = 3, 3e-14 at m = 4, 3e-12 at
m = 6 and 2e-7 at m = 12 for light-tailed samples of n <= 40.  The loss
grows with the degree and with the upper tail, upward only.  For two
samples of n = 120 on 41 levels it is 1.1e-9, 6.9e-7 and 3.8e-5 at
m = 6, 9 and 12 for lognormal(0, 2), and 4.3e-12, 1.3e-9 and 9.5e-7 for
Pareto(1.5); downward it stays within 3.1e-14 on the same samples.  It
comes from sum f^2 - (sum f)^2 / n when f is nearly constant over k.  The
variance enters the test only through the contact set.

Matched pairs pair rows across two rank orders, so there is no prefix
structure: the row values f_p are evaluated from the same coefficients,
O(G n m), gathered into row order and differenced.  Identical columns give
exactly 0.
"""

from __future__ import annotations

from enum import Enum
from math import comb, factorial

import numpy as np

from .curves import Direction, Grid
from .empirical import PairedSample, SortedSample
from .errors import DataError

__all__ = [
    "Scheme",
    "CovKernel",
    "effective_size",
    "sigma_curve",
]


class Scheme(Enum):
    """Sampling scheme: two independent samples, or i.i.d. matched pairs."""

    INDEPENDENT = "independent"
    MATCHED = "matched"


def effective_size(n1: int, n2: int) -> float:
    """Effective two-sample size n1*n2/(n1+n2) scaling the curve difference."""
    return n1 * n2 / (n1 + n2)


def _frame(values: np.ndarray, m: int, direction: Direction, ps: np.ndarray):
    """Per-sample coefficients of the collapsed clip functions, in the upward frame.

    Downward, the centered sample x is replaced by z = -x reversed and each
    level p by p' = 1 - p, which turns the downward weights into upward
    ones.  With q = m - 2, j = floor(p' n) full lattice intervals below p'
    and c_r = C(q, r) p'^(q-r) / q!, the frame value of observation k is

        f_k = sum_r c_r e[r, k]      for k < j,
        f_k = tail + beta * z_k      for k >= j.

    Returns ``(z, e, j, c, tail, beta)``; ``z`` (..., n + 1) and ``e``
    (..., q + 1, n + 1) carry a trailing zero so that prefix sums over
    segments may start at j = n.  ``values`` is one sorted sample, shape
    (n,), or a stack of them, shape (D, n); ``z``, ``e`` and ``tail`` then
    carry the same leading axis.
    """
    q = m - 2
    n = values.shape[-1]
    stack = values.shape[:-1]
    up = direction is Direction.UP
    x = values - values.mean(axis=-1, keepdims=True)
    z = np.zeros(stack + (n + 1,))
    z[..., :n] = x if up else -x[..., ::-1]
    zn = z[..., :n]
    pf = ps if up else 1.0 - ps
    # prefix[r, j]: sum over i < j of z_i ((-a_i)^r - (-b_i)^r), interval i = [a_i, b_i].
    prefix = np.zeros(stack + (q + 1, n + 1))
    e = np.zeros(stack + (q + 1, n + 1))
    neg_a = -np.arange(n) / n
    neg_b = -np.arange(1, n + 1) / n
    pow_a = np.ones(n)
    pow_b = np.ones(n)
    for r in range(q + 1):
        np.cumsum(zn * (pow_a - pow_b), axis=-1, out=prefix[..., r, 1:])
        np.add(prefix[..., r, 1:], zn * pow_b, out=e[..., r, :n])
        pow_a *= neg_a
        pow_b *= neg_b
    if not up:
        e[..., 0, :n] -= zn
    j = np.searchsorted(np.arange(n + 1) / n, pf, side="right") - 1
    c = np.array([comb(q, r) * pf ** (q - r) for r in range(q + 1)]) / factorial(q)
    # Integrated weight of the partial interval j times its value, plus the full ones.
    tail = (np.einsum("rg,...rg->...g", c, prefix[..., j])
            + (pf - j / n) ** q / factorial(q) * z[..., j])
    beta = np.zeros_like(pf) if up else -pf ** q / factorial(q)
    return z, e, j, c, tail, beta


def _variance_independent(values: np.ndarray, m: int, direction: Direction,
                          ps: np.ndarray) -> np.ndarray:
    """Variance over k of f_p(X_(k)) from prefix moments, O((n + G) m^2),
    shape (G,), or (D, G) for a stack of D samples.

    Each product e_r e_s is reduced onto the segments between consecutive
    distinct j and summed over segments, so only n-vectors are held.
    """
    z, e, j, c, tail, beta = _frame(values, m, direction, ps)
    n = values.shape[-1]
    starts, inverse = np.unique(np.concatenate(([0], j)), return_inverse=True)
    at = inverse.ravel()[1:]

    def below_j(rows: np.ndarray) -> np.ndarray:
        # sum over k < j of rows[..., k], at every level.
        seg = np.add.reduceat(rows, starts, axis=-1)
        out = np.zeros(seg.shape)
        np.cumsum(seg[..., :-1], axis=-1, out=out[..., 1:])
        return out[..., at]

    head = np.einsum("rg,...rg->...g", c, below_j(e))
    head_sq = np.zeros(tail.shape)
    prod = np.zeros(z.shape)
    for r in range(len(c)):
        for s in range(r, len(c)):
            np.multiply(e[..., r, :], e[..., s, :], out=prod)
            head_sq += (1.0 if r == s else 2.0) * c[r] * c[s] * below_j(prod)
    rest = n - j
    zz = z * z
    z_tail = z.sum(axis=-1, keepdims=True) - below_j(z)
    zz_tail = zz.sum(axis=-1, keepdims=True) - below_j(zz)
    sum_f = head + rest * tail + beta * z_tail
    sum_f2 = head_sq + rest * tail ** 2 + 2.0 * beta * tail * z_tail + beta ** 2 * zz_tail
    return (sum_f2 - sum_f ** 2 / n) / (n - 1)


def _row_values(values: np.ndarray, m: int, direction: Direction, ps: np.ndarray,
                pos: np.ndarray) -> np.ndarray:
    """f_p up to a constant per level, shape (G, n), at the rows whose sorted
    positions are ``pos``."""
    z, e, j, c, tail, beta = _frame(values, m, direction, ps)
    n = len(values)
    rows = c.T @ e[:, :n]
    tails = np.stack((tail, beta), axis=1) @ np.stack((np.ones(n), z[:n]))
    np.copyto(rows, tails, where=np.arange(n) >= j[:, None])
    del tails  # the gather below is the call's peak: hold two (G, n) arrays, not three
    # pos is a permutation of range(n), so "clip" never clips.
    return np.take(rows, pos if direction is Direction.UP else n - 1 - pos, axis=1, mode="clip")


def _inverse(order: np.ndarray) -> np.ndarray:
    """Inverse permutation of a sort order: the sorted position of each row."""
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    return pos


def _sample_variance(sample: SortedSample, m: int, direction: Direction, ps: np.ndarray,
                     memo: dict) -> np.ndarray:
    """The sample's own variance term, computed once per (sample, m,
    direction, levels) while the ``memo`` that kernels over common samples
    share lives."""
    key = (id(sample), m, direction, ps.tobytes())
    if key not in memo:  # the memo holds the sample, so its id stays its own
        memo[key] = sample, _variance_independent(sample.values, m, direction, ps)
    return memo[key][1]


class CovKernel:
    """Covariance-kernel estimate for a two-sample layout.

    Construct matched pairs with :meth:`matched`.  Independent samples may
    also be stacks of D samples of one size each, values of shape (D, n1)
    and (D, n2), whose variances are computed row by row.  An independent
    kernel reads each sample's own variance term through its ``memo`` dict:
    kernels that share one compute each common sample's term once while
    the dict lives.  The test's core lends one dict to the kernels of one
    call.  The kernel is immutable after construction; evaluation is pure.
    """

    def __init__(self, scheme: Scheme, sorted1: SortedSample, sorted2: SortedSample,
                 order1: np.ndarray | None = None, order2: np.ndarray | None = None,
                 memo: dict | None = None):
        self.scheme = scheme
        self._memo = memo
        self._s1 = sorted1
        self._s2 = sorted2
        self.n1 = sorted1.n
        self.n2 = sorted2.n
        if min(self.n1, self.n2) < 2:
            raise DataError("kernel estimation requires at least two observations per sample")
        self.lam = self.n1 / (self.n1 + self.n2)
        if scheme is Scheme.MATCHED:
            # Positions of each row in the per-column sort, for cross terms.
            self._pos1 = _inverse(order1)
            self._pos2 = _inverse(order2)

    @classmethod
    def matched(cls, pairs: PairedSample) -> "CovKernel":
        return cls(Scheme.MATCHED, pairs.left_sample(), pairs.right_sample(),
                   order1=pairs.left_order(), order2=pairs.right_order())

    def sigma_sq_many(self, m: int, direction: Direction, ps: np.ndarray) -> np.ndarray:
        """Exact collapsed double integral of the kernel at each level in
        ``ps``, a float array of levels.

        Independent samples cost O((n + G) m^2) for G levels; matched pairs
        cost O(G n m).  The value is clamped at 0 and is exactly 0 at
        p = 0 upward and p = 1 downward.  Shape (G,), or (D, G) for stacks.
        A value that overflows (data near the top of the double range) is a
        DataError, not a clamped 0.
        """
        # An overflow shows as a non-finite value, checked here.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.scheme is Scheme.INDEPENDENT:
                out = ((1.0 - self.lam) * _sample_variance(self._s1, m, direction, ps, self._memo)
                       + self.lam * _sample_variance(self._s2, m, direction, ps, self._memo))
            else:
                diff = _row_values(self._s1.values, m, direction, ps, self._pos1)
                diff -= _row_values(self._s2.values, m, direction, ps, self._pos2)
                diff -= diff.mean(axis=1, keepdims=True)
                out = np.einsum("gk,gk->g", diff, diff) / (2.0 * (self.n1 - 1))
        # Clamped, an overflowed -inf would read as 0 and shrink the contact set.
        if not np.isfinite(out).all():
            raise DataError("the variance overflows double precision: "
                            "the data are too large in magnitude")
        out = np.maximum(out, 0.0)
        out[..., ps == (0.0 if direction is Direction.UP else 1.0)] = 0.0
        return out


def sigma_curve(kernel: CovKernel, m: int, direction: Direction,
                vgrid: Grid, fgrid: Grid, xi: float) -> np.ndarray:
    """Trimmed standard deviation of the curve difference on the functional grid.

    The variance is evaluated exactly at the (coarser) variance-grid
    abscissae, interpolated linearly onto the functional grid and floored
    at the trimming level ``xi`` before the square root.  It enters the
    test only through the contact set, so coarse resolution suffices.
    Shape (F,), or (D, F) for a kernel over stacks of D samples.
    """
    sig_v = kernel.sigma_sq_many(m, direction, vgrid.points)
    sig_f = [np.interp(fgrid.points, vgrid.points, row) for row in np.atleast_2d(sig_v)]
    return np.sqrt(np.maximum(sig_f, xi)).reshape(sig_v.shape[:-1] + (len(fgrid),))
