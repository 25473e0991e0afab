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
uses this to evaluate R reweighted rows of a stack of D samples of one
size at once, row r reweighting dataset r mod D: the jump sizes are binned
onto lattice levels, prefix sums over the lattice carry the binomial
expansion, and a lattice-to-grid index shared by every row reads the sums
off at the grid points.  Upward the sums run from p = 0 and expand in
powers of p; downward they are suffix sums from p = 1 that expand in
powers of 1 - p, whose terms stay small near p = 1, where the downward
curves are small.  A prefix sum is a chain of dependent additions, so
rows 2q and 2q + 1 run as the real and imaginary lanes of one complex128
array: one complex addition adds both rows, each lane exactly as a float
row alone.  A block may be read off at a sorted subset of the grid's
columns only, bit for bit the full evaluation's values there, and in both
directions its binning and its sums then stop at the last lattice level
that subset reads, so the cost follows how far the subset reaches from the
direction's own end of p.  :func:`eval_on_grid` evaluates a stack of
unweighted samples as one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import comb, factorial, prod

import numpy as np

from .empirical import SortedSample
from .errors import ConfigError

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
        if not np.all(np.diff(pts) > 0):  # NaN compares false both ways
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


@dataclass(frozen=True)
class LambdaCurve:
    """The dominance curves of degree ``m`` of a stack of samples, values of
    shape (D, n), evaluated by :func:`eval_on_grid`."""

    sample: SortedSample
    m: int
    direction: Direction


def _jumps(values: np.ndarray, first: int, out: np.ndarray) -> None:
    """Jump sizes (X_(1), diff(X), -X_(n)) at the breakpoints ``first``,
    ``first`` + 1, ... of the n + 1, as many as a row of ``out`` holds, of
    a stack of D samples, shape (D, n): row r of ``out`` gets dataset r
    mod D's.  The D datasets' jumps go into the first D rows, which a plain
    copy repeats into the others.

    The step quantile equals X_(i) on (c_{i-1}, c_i]; writing the curve
    integrals by parts collapses them to sums of d_k * ((p - c_k)_+)^(m-1)
    over the breakpoints c_k with these jump sizes d_k.
    """
    depth, n = values.shape
    target = out[:depth]
    end = first + out.shape[-1]
    lo, hi = max(first, 1), min(end, n)  # the breakpoints between two values
    if first == 0:
        target[:, 0] = values[:, 0]
    np.subtract(values[:, lo:hi], values[:, lo - 1:hi - 1],
                out=target[:, lo - first:hi - first])
    if end == n + 1:
        target[:, -1] = -values[:, -1]
    out.reshape(-1, *target.shape)[1:] = target


def eval_on_grid(curve: LambdaCurve, grid: Grid) -> np.ndarray:
    """Pointwise evaluation of a stack of D samples over a grid with a
    single O((n + G) m) sweep per sample, shape (D, G)."""
    return eval_block(curve.sample, np.ones(curve.sample.values.shape, dtype=np.int64),
                      curve.m, curve.direction, grid)


@dataclass(frozen=True)
class _LatticePlan:
    """Everything of a block evaluation that depends only on (n, m, direction, grid).

    The lattice levels c = j/n are summed from p = 0 upward and from p = 1
    downward, and ``cut[g]`` counts the levels, in that order, that enter
    grid point g: those at or below it upward, those at or above it
    downward.  Up to the factorial (and downward the mean term), the curve
    at p sums the binned jumps at those levels times (p - c)^k upward and
    (c - p)^k downward, k = m - 1, and the binomial expansion splits it
    into m prefix sums over the levels, read at ``cut``.  Upward it runs in
    powers of p, (p - c)^k = sum_r C(k, r) (-c)^(k-r) p^r.  Downward it
    runs in powers of 1 - p, (c - p)^k = sum_r C(k, r) (c - 1)^(k-r)
    (1 - p)^r: near p = 1, where downward curves are small, so are the
    terms, which do not cancel.  ``lattice[r]`` holds the r-th term's level
    factors in summation order (top-down downward, built once here), and
    ``powers[r]`` its grid factors, each repeated for the two lanes of a
    pair (see :func:`eval_block`), so that one product scales both lanes.
    The level factor of the last term is all ones and not stored.  Every
    array is read-only.
    """

    cut: np.ndarray
    lattice: np.ndarray
    powers: np.ndarray
    mean_factor: np.ndarray | None

    @classmethod
    def build(cls, points: np.ndarray, n: int, m: int, direction: Direction) -> "_LatticePlan":
        k = m - 1
        levels = np.arange(n + 1) / n
        if direction is Direction.UP:
            cut = np.searchsorted(levels, points, side="right")
            base, step, mean_factor = -levels, points, None
        else:
            cut = n + 1 - np.searchsorted(levels, points, side="left")
            base, step = (levels - 1.0)[::-1], 1.0 - points
            mean_factor = (1.0 - points) ** (m - 2) / factorial(m - 2)
        lattice = np.repeat([comb(k, r) * base ** (k - r) for r in range(k)], 2, axis=1)
        powers = np.repeat(np.cumprod(np.vstack([np.ones_like(points)] + [step] * k), axis=0),
                           2, axis=1)
        for array in (cut, lattice, powers, mean_factor):
            if array is not None:
                array.flags.writeable = False
        return cls(cut, lattice, powers, mean_factor)

    def at(self, columns):
        """``cut``, ``powers`` and ``mean_factor`` at the grid columns
        ``columns`` (an index array), or over the whole grid when None."""
        if columns is None:
            return self.cut, self.powers, self.mean_factor
        m = len(self.powers)
        powers = np.take(self.powers.reshape(m, -1, 2), columns, axis=1).reshape(m, -1)
        return (self.cut[columns], powers,
                None if self.mean_factor is None else self.mean_factor[columns])


class BlockWorkspace:
    """Scratch arrays that :func:`eval_block` reuses from one call to the next.

    The bootstrap evaluates many blocks of the same shape.  Block-sized
    temporaries freed after every block are handed back to the operating
    system by the allocator and page-faulted in again by the next block,
    which costs more than the arithmetic; a workspace keeps them.  Arrays
    are views of one flat buffer per name and dtype, which grows to the
    largest size asked for, so samples of different sizes share it; the
    views are kept by shape.  The bootstrap builds one per call and runs its
    blocks through it in turn.  :func:`~isdtest.functionals.derivative`
    borrows the float buffers "part" and "acc", whose contents no call of
    :func:`eval_block` reads once it has returned.
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


def _margin(n: int) -> int:
    """Knots that :func:`eval_block` bins beyond the last level it reads.

    A multinomial draw's knot i sits at level S_i ~ Binomial(n, i/n), mean
    i.  With a margin of d knots past ``stop`` levels, the far knot is knot
    stop + d - 1, and a row falls back to all knots only when that knot
    lies below level ``stop``, d levels or more below its mean: by
    Hoeffding's inequality, with probability at most exp(-2 d^2 / n).
    d >= 3 sqrt(n) puts that below exp(-18), about 1.5e-8 per row.  The
    margin moves work, never a bit."""
    return int(3 * n ** 0.5) + 16


def eval_block(sample: SortedSample, weights, m: int, direction: Direction,
               grid: Grid, work: BlockWorkspace | None = None, columns=None) -> np.ndarray:
    """Curves of R reweighted samples at the grid columns ``columns``,
    shape (R, C), or over the whole grid, shape (R, G).

    ``sample`` is a stack of D samples of size n, values of shape (D, n),
    and row r of ``weights``, a C-contiguous int64 array of shape (R, n)
    with R a multiple of D, reweights dataset r mod D: it holds that row's
    nonnegative integer multiplicities, aligned with the sorted values and
    summing to n (a multinomial bootstrap draw; all ones for the sample
    itself).  ``columns`` holds an array of strictly increasing indices of
    grid points (default: all of them), and each row's values there are
    bit for bit those of the whole grid.  The core builds all three so, and
    none is checked here.  The cost is O(R (n + C) m) with no search per
    row.  The lattice levels are summed from p = 0 upward and from p = 1
    downward (suffix sums, expanded about p = 1; see
    :class:`_LatticePlan`), and a prefix sum's first k terms do not depend
    on the terms that follow, so in both directions the m level products
    and the prefix sums stop at the last level the columns read, and the
    knots binned stop :func:`_margin` knots past it (all of them for a row
    whose draw falls short): the cost follows how far along p the columns
    reach from the direction's own end.  The lattice-to-grid gather writes
    straight into the workspace in ``mode="clip"``, since numpy buffers
    ``out`` in its default mode; every cut is at most the last level
    summed, by construction.  Rows 2q and 2q + 1 are
    summed as the two lanes of one complex row, so the m prefix sums cost
    about half as much as R float rows; an odd R leaves the last pair's
    second lane empty.  Each row's values do not depend on the other rows
    of the block, bit for bit: every step adds or scales each lane on its
    own, so a row that overflows leaves its partner alone.  The boundary
    value (p = 0 upward, p = 1 downward) is exactly 0.  Temporaries come
    from ``work``, or from a fresh workspace when none is given; the
    returned array is always new.
    """
    values = sample.values
    n = values.shape[-1]
    plan = grid._plan(n, m, direction)
    cut, powers, mean_factor = plan.at(columns)
    rows, width = len(weights), n + 1
    pairs, size, up = (rows + 1) // 2, len(cut), direction is Direction.UP
    # The columns read the first `stop` levels in summation order (cut
    # rises with p upward and falls downward).
    stop = int(cut[-1] if up else cut[0])
    work = work if work is not None else BlockWorkspace()

    # Knot i sits at level S_i = w_1 + ... + w_i (S_0 = 0), which is level
    # S_i upward and n - S_i downward in summation order.  Only the knots
    # below `stop` in that order are read: a leading range of knots upward
    # and a trailing one downward, each binned in knot order.  The range
    # runs `_margin` knots past `stop`; where a row's knot at the range's
    # far end still lies below `stop`, the range is every knot.
    span = min(width, stop + _margin(n))
    first = 0 if up else width - span
    far = n  # the level of the range's far knot, in summation order
    if span < width:
        far = (weights[:, :span - 1] if up else weights[:, first:]).sum(axis=1)
        if np.any(far < stop):
            span, first, far = width, 0, n
    # Rows 2q and 2q + 1 are the real and imaginary lanes of pair q: one
    # bincount sums the jump sizes of row 2q + lane at index
    # q * 2 * (stop + 1) + lane + 2 * level, the interleaved layout of
    # complex128, which one prefix sum per row builds from the row's
    # offset (plus 2 n downward) and +-2 w.  A knot at or past `stop` goes
    # to its row's slot `stop`, which is never read.
    row = np.arange(rows)
    offset = row // 2 * (2 * (stop + 1)) + row % 2
    levels = work.array("levels", (rows, span), np.intp)
    if up:
        levels[:, 0] = offset
        np.multiply(weights[:, :span - 1], 2, out=levels[:, 1:])
    else:
        levels[:, 0] = offset + 2 * far
        np.multiply(weights[:, first:], -2, out=levels[:, 1:])
    np.cumsum(levels, axis=1, out=levels)
    if stop < width:
        np.minimum(levels, (offset + 2 * stop)[:, None], out=levels)
    tiled = work.array("tiled", (rows, span))
    _jumps(values, first, tiled)
    jumps = np.bincount(levels.ravel(), weights=tiled.ravel(),
                        minlength=pairs * 2 * (stop + 1))
    jumps = jumps.view(np.complex128).reshape(pairs, stop + 1)[:, :stop]

    # Complex addition adds each lane on its own, in the same order, so
    # every prefix sum carries two rows at once and each row's bits are
    # those of a float row alone.  Products take the float view against
    # the lane-repeated factors: a complex product would mix the lanes.
    prefix = work.array("prefix", (pairs, stop + 1), np.complex128)
    prefix[:, 0] = 0.0
    term = work.array("term", (pairs, stop), np.complex128)
    # Float buffers, which the integral's derivative borrows between calls.
    part = work.array("part", (pairs, 2 * size)).view(np.complex128)
    acc = work.array("acc", (pairs, 2 * size)).view(np.complex128)
    acc.fill(0.0)
    for r in range(m):
        # The last term's level factor and powers[0] are exact ones: skip
        # those products.
        scaled = jumps
        if r != m - 1:
            np.multiply(jumps.view(np.float64), plan.lattice[r, :2 * stop],
                        out=term.view(np.float64))
            scaled = term
        np.cumsum(scaled, axis=1, out=prefix[:, 1:])
        np.take(prefix, cut, axis=1, out=part, mode="clip")
        if r:
            np.multiply(part.view(np.float64), powers[r], out=part.view(np.float64))
        acc += part
    lanes = acc.view(np.float64).reshape(pairs, size, 2)
    out = np.empty((rows, size))
    out[0::2] = lanes[:, :, 0]
    out[1::2] = lanes[:rows // 2, :, 1]
    out /= factorial(m - 1)
    if up:
        if columns is None or columns[0] == 0:
            out[:, 0] = 0.0
    else:
        weighted = work.array("weighted", (rows // len(values), *values.shape))
        np.multiply(weights.reshape(weighted.shape), values, out=weighted)
        mean = np.sum(weighted, axis=-1).reshape(-1) / n
        out += np.multiply(mean[:, None], mean_factor, out=work.array("mean", (rows, size)))
        if columns is None or columns[-1] == len(grid) - 1:
            out[:, -1] = 0.0
    return out
