"""Exact evaluation of the upward and downward dominance curves.

The mth-degree upward curve is the (m-1)-fold repeated integral of the
quantile function from below,

    L_m(p) = (1/(m-2)!) * integral_0^p (p-t)^(m-2) Q(t) dt,

and the downward curve aggregates from above,

    Ld_m(p) = (1/(m-2)!) * [ (1-p)^(m-2) * mu - integral_p^1 (t-p)^(m-2) Q(t) dt ].

For an empirical (possibly reweighted) sample, Q is a step function over
the order-statistic intervals, so both integrals have exact closed forms:
no quadrature is involved and the results are exact up to floating point.

A sample of size n reweighted by integer multiplicities summing to n has
its step breakpoints on the lattice j/n, j = 0..n.  :func:`eval_block`
uses this to evaluate R reweighted copies of one sample at once, or R
reweighted samples of one size, one per row: the jump sizes are binned
onto lattice levels, prefix sums over the lattice carry the binomial
expansion in powers of p, and a lattice-to-grid index shared by every row
reads the sums off at the grid points.  :func:`eval_on_grid` evaluates an
unweighted sample, or a stack of them, as one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import comb, factorial, prod

import numpy as np

from .empirical import SortedSample
from .errors import ConfigError, DataError

__all__ = [
    "MAX_DEGREE",
    "Direction",
    "Grid",
    "LambdaCurve",
    "eval_on_grid",
    "eval_block",
    "BlockWorkspace",
]

# Factorials and binomial expansions stay well-conditioned up to here.
MAX_DEGREE = 12


class Direction(Enum):
    """Aggregation direction: UP integrates the quantile from 0, DOWN from 1."""

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation points spanning [0, 1] inclusive."""

    points: np.ndarray
    # Lattice-to-grid plans of eval_block, keyed by (n, m, direction).
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise ConfigError("grid needs at least the two endpoints 0 and 1")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ConfigError("grid must start at 0 and end at 1")
        if np.any(np.diff(pts) <= 0):
            raise ConfigError("grid points must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, size: int) -> "Grid":
        if size < 2:
            raise ConfigError("grid size must be at least 2")
        return cls(np.linspace(0.0, 1.0, size))

    def __len__(self) -> int:
        return len(self.points)

    def _plan(self, n: int, m: int, direction: "Direction") -> "_LatticePlan":
        key = (n, m, direction)
        if key not in self._plans:
            self._plans[key] = _LatticePlan.build(self.points, n, m, direction)
        return self._plans[key]


def _check_degree(m: int, direction: Direction) -> None:
    if m < 2 or m != int(m):
        raise ConfigError(f"curve degree must be an integer >= 2, got {m!r}")
    if m > MAX_DEGREE:
        raise ConfigError(f"curve degree capped at {MAX_DEGREE}, got {m}")
    if direction is Direction.DOWN and m < 3:
        raise ConfigError("downward curves require degree >= 3 (m = 2 is degenerate)")


@dataclass(frozen=True)
class LambdaCurve:
    """One sample's dominance curve of degree ``m``, evaluated by :func:`eval_on_grid`."""

    sample: SortedSample
    m: int
    direction: Direction

    def __post_init__(self):
        _check_degree(self.m, self.direction)


def _jumps(values: np.ndarray) -> np.ndarray:
    """Jump sizes (X_(1), diff(X), -X_(n)) at the n + 1 breakpoints, per
    sample of a stack.

    The step quantile equals X_(i) on (c_{i-1}, c_i]; writing the curve
    integrals by parts collapses them to sums of d_k * ((p - c_k)_+)^(m-1)
    over the breakpoints c_k with these jump sizes d_k.
    """
    n = values.shape[-1]
    d = np.empty(values.shape[:-1] + (n + 1,))
    d[..., 0] = values[..., 0]
    d[..., 1:n] = np.diff(values, axis=-1)
    d[..., n] = -values[..., -1]
    return d


def eval_on_grid(curve: LambdaCurve, grid: Grid) -> np.ndarray:
    """Pointwise evaluation over a grid with a single O((n + G) m) sweep per
    sample: shape (G,), or (D, G) for a stack of D samples."""
    values = curve.sample.values
    curves = eval_block(curve.sample, np.ones(np.atleast_2d(values).shape, dtype=np.int64),
                        curve.m, curve.direction, grid)
    return curves.reshape(values.shape[:-1] + (len(grid),))


@dataclass(frozen=True)
class _LatticePlan:
    """Everything of a block evaluation that depends only on (n, m, direction, grid).

    ``cut[g]`` counts the lattice levels j/n that enter grid point g: those
    at or below it upward, those below it downward (whose complement
    enters).  ``lattice[r]`` and ``powers[r]`` are the level and grid
    factors of the r-th term of the binomial expansion.
    """

    cut: np.ndarray
    lattice: np.ndarray
    powers: np.ndarray
    mean_factor: np.ndarray | None

    @classmethod
    def build(cls, points: np.ndarray, n: int, m: int, direction: Direction) -> "_LatticePlan":
        k = m - 1
        levels = np.arange(n + 1) / n
        up = direction is Direction.UP
        cut = np.searchsorted(levels, points, side="right" if up else "left")
        base = -levels if up else levels
        lattice = np.array([comb(k, r) * base ** (k - r) for r in range(k + 1)])
        step = points if up else -points
        powers = np.cumprod(np.vstack([np.ones_like(points)] + [step] * k), axis=0)
        mean_factor = None if up else (1.0 - points) ** (m - 2) / factorial(m - 2)
        return cls(cut, lattice, powers, mean_factor)


class BlockWorkspace:
    """Scratch arrays that :func:`eval_block` reuses from one call to the next.

    The bootstrap evaluates many blocks of the same shape.  Block-sized
    temporaries freed after every block are handed back to the operating
    system by the allocator and page-faulted in again by the next block,
    which costs more than the arithmetic; a workspace keeps them.  Arrays
    are views of one flat buffer per name and dtype, which grows to the
    largest size asked for, so samples of different sizes share it; the
    views are kept by shape.  The bootstrap builds one per call and runs its
    blocks through it in turn.
    """

    def __init__(self):
        self._buffers: dict = {}
        self._views: dict = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is None:
            size, flat = prod(shape), (name, np.dtype(dtype))
            buf = self._buffers.get(flat)
            if buf is None or buf.size < size:
                buf = self._buffers[flat] = np.empty(size, dtype)
                self._views.clear()  # drop views of the smaller buffer
            view = self._views[key] = buf[:size].reshape(shape)
        return view


def eval_block(sample: SortedSample, weights, m: int, direction: Direction,
               grid: Grid, work: BlockWorkspace | None = None) -> np.ndarray:
    """Curves of R reweighted samples over a grid, shape (R, G).

    ``sample`` is one :class:`SortedSample` that every row reweights, or a
    stack of R samples of size n, values of shape (R, n), one per row.  Row
    b of ``weights`` holds that row's nonnegative integer multiplicities,
    aligned with the sorted values and summing to n (a multinomial
    bootstrap draw; all ones for the sample itself).  The cost is
    O(R (n + G) m) with no search per row.  Each row's values do not depend
    on the other rows of the block, bit for bit.  The boundary value (p = 0
    upward, p = 1 downward) is exactly 0.  Temporaries come from ``work``,
    or from a fresh workspace when none is given; the returned array is
    always new.
    """
    _check_degree(m, direction)
    values = sample.values
    n = values.shape[-1]
    w = np.ascontiguousarray(weights, dtype=np.int64)
    if w.ndim != 2 or w.shape[1] != n:
        raise DataError("weights length does not match the sample size")
    if values.ndim != 1 and values.shape != w.shape:
        raise DataError("per-row samples do not match the weights' shape")
    if np.any(w < 0):
        raise DataError("weights must be nonnegative")
    rows, width = w.shape[0], n + 1
    plan = grid._plan(n, m, direction)
    work = work if work is not None else BlockWorkspace()

    # Knot i sits at lattice level S_i = w_1 + ... + w_i (S_0 = 0); offset
    # each row so that one bincount sums the jump sizes per level and row.
    levels = work.array("levels", (rows, width), np.intp)
    levels[:, 0] = 0
    np.cumsum(w, axis=1, out=levels[:, 1:])
    if np.any(levels[:, -1] != n):
        raise DataError("weights must sum to the sample size")
    levels += np.arange(0, rows * width, width)[:, None]
    tiled = work.array("tiled", (rows, width))
    tiled[:] = _jumps(values)
    jumps = np.bincount(levels.ravel(), weights=tiled.ravel(),
                        minlength=rows * width).reshape(rows, width)

    prefix = work.array("prefix", (rows, width + 1))
    prefix[:, 0] = 0.0
    term = work.array("term", (rows, width))
    part = work.array("part", (rows, len(grid)))
    out = np.zeros((rows, len(grid)))
    for r in range(m):
        # lattice[m - 1] and powers[0] are exact ones: skip those products.
        scaled = jumps if r == m - 1 else np.multiply(jumps, plan.lattice[r], out=term)
        np.cumsum(scaled, axis=1, out=prefix[:, 1:])
        np.take(prefix, plan.cut, axis=1, out=part)
        if direction is Direction.DOWN:
            np.subtract(prefix[:, -1:], part, out=part)
        if r:
            part *= plan.powers[r]
        out += part
    out /= factorial(m - 1)
    if direction is Direction.DOWN:
        weighted = np.multiply(w, values, out=work.array("weighted", (rows, n)))
        out += (np.sum(weighted, axis=1) / n)[:, None] * plan.mean_factor
        out[:, -1] = 0.0
    else:
        out[:, 0] = 0.0
    return out
