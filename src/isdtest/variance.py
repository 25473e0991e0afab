"""Plug-in covariance kernel and pointwise variances of the curve difference.

The limiting covariance kernel is estimated from sample covariances of
clipped series min(Q(t), X_i) (one per grid abscissa).  The pointwise
variance of the degree-m curve difference is the (2m-4)-fold repeated
integral of the kernel, which collapses to a weighted double integral

    sigma^2(p) = II w(p,t) w(p,t') K(t,t') dt dt',
    w(p,t) = (p-t)^(m-3)/(m-3)!   (upward; mirrored for downward).

Because the empirical kernel is piecewise constant on the rectangles of
the order-statistic partition, the double integral is computed exactly:
the time integrals have closed forms per interval and the kernel's Gram
structure reduces everything to prefix sums, O(n) per evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import factorial

import numpy as np

from .curves import Direction, Grid
from .empirical import PairedSample, SortedSample
from .errors import ConfigError

__all__ = [
    "Scheme",
    "CovKernel",
    "SigmaCurve",
    "effective_size",
    "vv_cov",
    "kernel_eval",
    "sigma_sq",
    "trim",
    "sigma_curve",
]


class Scheme(Enum):
    """Sampling scheme: two independent samples, or i.i.d. matched pairs."""

    INDEPENDENT = "independent"
    MATCHED = "matched"


def effective_size(n1: int, n2: int) -> float:
    """Effective two-sample size n1*n2/(n1+n2) scaling the curve difference."""
    return n1 * n2 / (n1 + n2)


def _quantiles_at(values: np.ndarray, ps) -> np.ndarray:
    """Step quantile of a sorted array at levels ps (ceil(n*p) convention)."""
    n = len(values)
    idx = np.ceil(np.asarray(ps, dtype=float) * n).astype(int)
    return values[np.clip(idx, 1, n) - 1]


def vv_cov(x, y, p_x: float, p_y: float) -> float:
    """Sample covariance of the clipped series min(Q_x(p_x), x_i), min(Q_y(p_y), y_i).

    ``x`` and ``y`` are row-aligned observation arrays (or SortedSample);
    pass the same array twice for a single-sample term.  Cross terms
    between different samples require matched rows of equal length.
    Uses the n-1 denominator.
    """
    xa = x.values if isinstance(x, SortedSample) else np.asarray(x, dtype=float)
    ya = y.values if isinstance(y, SortedSample) else np.asarray(y, dtype=float)
    if len(xa) != len(ya):
        raise ConfigError("clipped-covariance cross terms require row-aligned samples of equal length")
    if len(xa) < 2:
        raise ConfigError("covariance requires at least two observations")
    if not (0.0 <= p_x <= 1.0 and 0.0 <= p_y <= 1.0):
        raise ValueError("clipping levels must lie in [0, 1]")
    qx = _quantiles_at(np.sort(xa), [p_x])[0]
    qy = _quantiles_at(np.sort(ya), [p_y])[0]
    a = np.minimum(xa, qx)
    b = np.minimum(ya, qy)
    a = a - a.mean()
    b = b - b.mean()
    return float(np.dot(a, b)) / (len(xa) - 1)


def _interval_weights(breaks: np.ndarray, ps: np.ndarray, m: int, direction: Direction) -> np.ndarray:
    """Exact integrals of the collapse weight over each order-statistic interval.

    Returns a (len(ps), n) array whose row p sums to p^(m-2)/(m-2)! upward
    (mirrored downward).
    """
    q = m - 2
    a = breaks[:-1]
    b = breaks[1:]
    p = ps[:, None]
    if direction is Direction.UP:
        w = np.clip(p - a, 0.0, None) ** q - np.clip(p - b, 0.0, None) ** q
    else:
        w = np.clip(b - p, 0.0, None) ** q - np.clip(a - p, 0.0, None) ** q
    return w / factorial(q)


def _clip_prefix_stats(values: np.ndarray) -> np.ndarray:
    # Column means of the implicit clip matrix min(X_(i), X_(k)) over k.
    n = len(values)
    px = np.cumsum(values)
    return (px + values * (n - 1 - np.arange(n))) / n


def _v_vectors(values: np.ndarray, col_means: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Weighted row sums of the centered clip matrix, via prefix sums.

    V[p, k] = sum_i W[p, i] * (min(X_(i), X_(k)) - colmean_i); the min
    structure makes each row an O(n) prefix computation.
    """
    cum_wx = np.cumsum(W * values, axis=1)
    cum_w = np.cumsum(W, axis=1)
    v = cum_wx + values * (cum_w[:, -1:] - cum_w)
    v -= (W @ col_means)[:, None]
    return v


def _inverse(order: np.ndarray) -> np.ndarray:
    """Inverse permutation of a sort order: the sorted position of each row."""
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    return pos


class CovKernel:
    """Covariance-kernel estimate for a two-sample layout.

    Construct with :meth:`independent` or :meth:`matched`.  The kernel is
    immutable after construction; evaluation is pure and thread-safe.
    """

    def __init__(self, scheme: Scheme, sorted1: np.ndarray, sorted2: np.ndarray,
                 rows1: np.ndarray | None = None, rows2: np.ndarray | None = None,
                 order1: np.ndarray | None = None, order2: np.ndarray | None = None):
        self.scheme = scheme
        self._x1 = sorted1
        self._x2 = sorted2
        self._rows1 = rows1
        self._rows2 = rows2
        self.n1 = len(sorted1)
        self.n2 = len(sorted2)
        if min(self.n1, self.n2) < 2:
            raise ConfigError("kernel estimation requires at least two observations per sample")
        self.lam = self.n1 / (self.n1 + self.n2)
        self.t_n = effective_size(self.n1, self.n2)
        self._means1 = _clip_prefix_stats(sorted1)
        self._means2 = _clip_prefix_stats(sorted2)
        self._breaks1 = np.concatenate(([0.0], np.arange(1, self.n1 + 1) / self.n1))
        self._breaks2 = np.concatenate(([0.0], np.arange(1, self.n2 + 1) / self.n2))
        if scheme is Scheme.MATCHED:
            # Positions of each row in the per-column sort, for cross terms.
            self._pos1 = _inverse(order1)
            self._pos2 = _inverse(order2)

    @classmethod
    def independent(cls, sample1: SortedSample, sample2: SortedSample) -> "CovKernel":
        return cls(Scheme.INDEPENDENT, sample1.values, sample2.values)

    @classmethod
    def matched(cls, pairs: PairedSample) -> "CovKernel":
        return cls(Scheme.MATCHED, pairs.left_sample().values, pairs.right_sample().values,
                   rows1=pairs.left, rows2=pairs.right,
                   order1=pairs.left_order(), order2=pairs.right_order())

    def _clip_centered(self, which: int, pts: np.ndarray) -> np.ndarray:
        values = self._x1 if which == 1 else self._x2
        rows = values if self.scheme is Scheme.INDEPENDENT else (
            self._rows1 if which == 1 else self._rows2)
        q = _quantiles_at(values, pts)
        a = np.minimum(rows[:, None], q[None, :])
        return a - a.mean(axis=0)

    def matrix(self, grid: Grid | np.ndarray) -> np.ndarray:
        """Kernel matrix over grid x grid (symmetric, diagonal >= 0)."""
        pts = grid.points if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
        a1 = self._clip_centered(1, pts)
        a2 = self._clip_centered(2, pts)
        c11 = a1.T @ a1 / (self.n1 - 1)
        c22 = a2.T @ a2 / (self.n2 - 1)
        if self.scheme is Scheme.INDEPENDENT:
            return (1.0 - self.lam) * c11 + self.lam * c22
        c12 = a1.T @ a2 / (self.n1 - 1)
        root = np.sqrt(self.lam * (1.0 - self.lam))
        return (1.0 - self.lam) * c11 - root * (c12 + c12.T) + self.lam * c22

    def eval(self, t: float, t2: float) -> float:
        """Kernel value at a single pair of points."""
        if not (0.0 <= t <= 1.0 and 0.0 <= t2 <= 1.0):
            raise ValueError("kernel arguments must lie in [0, 1]")
        return float(self.matrix(np.array([t, t2]))[0, 1])

    def sigma_sq_many(self, m: int, direction: Direction, ps) -> np.ndarray:
        """Exact collapsed double integral of the kernel at each p."""
        if m < 3:
            raise ConfigError(f"variance of the curve difference requires degree >= 3, got {m}")
        ps = np.atleast_1d(np.asarray(ps, dtype=float))
        w1 = _interval_weights(self._breaks1, ps, m, direction)
        w2 = _interval_weights(self._breaks2, ps, m, direction)
        v1 = _v_vectors(self._x1, self._means1, w1)
        v2 = _v_vectors(self._x2, self._means2, w2)
        if self.scheme is Scheme.INDEPENDENT:
            s1 = np.sum(v1 * v1, axis=1) / (self.n1 - 1)
            s2 = np.sum(v2 * v2, axis=1) / (self.n2 - 1)
            return (1.0 - self.lam) * s1 + self.lam * s2
        diff = v1[:, self._pos1] - v2[:, self._pos2]
        return np.sum(diff * diff, axis=1) / (2.0 * (self.n1 - 1))

    def sigma_sq(self, m: int, direction: Direction, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"evaluation point must lie in [0, 1], got {p!r}")
        return float(self.sigma_sq_many(m, direction, [p])[0])


def kernel_eval(kernel: CovKernel, t: float, t2: float) -> float:
    """Module-level alias of :meth:`CovKernel.eval`."""
    return kernel.eval(t, t2)


def sigma_sq(kernel: CovKernel, m: int, direction: Direction, p: float) -> float:
    """Module-level alias of :meth:`CovKernel.sigma_sq`."""
    return kernel.sigma_sq(m, direction, p)


def trim(sigma_sq_values, xi: float) -> np.ndarray:
    """Pointwise max with the trimming floor xi, then square root."""
    if not xi > 0:
        raise ConfigError(f"trimming floor xi must be positive, got {xi!r}")
    return np.sqrt(np.maximum(np.asarray(sigma_sq_values, dtype=float), xi))


@dataclass(frozen=True)
class SigmaCurve:
    """Pointwise variance estimates and their trimmed standard deviations."""

    grid: Grid
    sigma_sq: np.ndarray
    vhat: np.ndarray
    xi: float


def sigma_curve(kernel: CovKernel, m: int, direction: Direction,
                vgrid: Grid, fgrid: Grid, xi: float) -> SigmaCurve:
    """Variance curve on the functional grid.

    The variance is evaluated exactly at the (coarser) variance-grid
    abscissae and interpolated linearly onto the functional grid; it
    enters the test only through the contact set, so coarse resolution
    suffices.
    """
    sig_v = kernel.sigma_sq_many(m, direction, vgrid.points)
    sig_f = np.interp(fgrid.points, vgrid.points, sig_v)
    sig_f = np.maximum(sig_f, 0.0)
    return SigmaCurve(grid=fgrid, sigma_sq=sig_f, vhat=trim(sig_f, xi), xi=xi)
