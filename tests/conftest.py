"""Shared oracles for the test suite.

These helpers recompute the package's quantities through independent
routes (point-by-point closed form, adaptive quadrature, nested cumulative
integration, the curves interval by interval in rational arithmetic, the
block expansion one float row at a time, numpy's own
SeedSequence for the streams, the double Pareto density, distribution
function and mean in closed form) and must not import the evaluation paths
they check.  ``reference_test`` and ``reference_rank`` are a whole test
and a whole ranking built that way: exact curves and variance, the
contact set and the functionals as loops over grid points, and the
documented streams.  ``full_grid_bootstrap_stats``
is the exception: it checks where the bootstrap evaluates its curves, not
how, so it evaluates them with the package's kernel, on the whole grid,
one replication at a time.
``core_calls`` is not an oracle: it records what the public calls pass to
the kernels, which no longer re-check the arguments that the boundary
(``TestConfig``, ``SimSpec``, ``make_sample``, ``make_paired``) and the
core already hold in range.
"""

import inspect
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial

import numpy as np
import scipy.integrate

from isdtest import (
    Direction,
    DoubleParetoParams,
    FunctionalKind,
    PairedSample,
    Scheme,
    SimMode,
    SimSpec,
    SortedSample,
    TestConfig,
    dgp,
    inference,
    make_paired,
    make_sample,
    montecarlo,
    pairwise_rank,
    run_table,
    run_test,
)
from isdtest.bootstrap import draw_weights
from isdtest.curves import eval_block
from isdtest.dgp import dp_quantile
from isdtest.functionals import derivative
from isdtest.variance import CovKernel


def save_csv(sample, path):
    """Write a sample as the command line reads it, with full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(sample, PairedSample):
            for a, b in zip(sample.left, sample.right):
                fh.write(f"{float(a)!r},{float(b)!r}\n")
        else:
            for v in sample.values:
                fh.write(f"{float(v)!r}\n")


def _copied(value):
    return value.copy() if isinstance(value, np.ndarray) else value


@lru_cache(maxsize=None)
def core_calls():
    """Every call the public entry points make to the kernels whose argument
    checks were dropped, by kernel name: the arguments bound by name (arrays
    copied, since the core reuses its workspace) and the result.

    The runs: run_test, independent and matched, in both directions, with
    both functionals and with tau = 1 and inf, at sizes where the contact
    sets' columns stop short of the far end of p; a three-dataset
    pairwise_rank; a warp-speed and a full-mode run_table cell per
    direction, whose bootstraps reweight stacks of datasets: a warp-speed
    block has one row per dataset, and a full-mode block whole
    replications of the stack.
    """
    targets = [(inference, name) for name in (
        "LambdaCurve", "eval_block", "derivative", "functional", "estimate_contact_set",
        "sigma_curve", "critical_value", "p_value")]
    targets += [(CovKernel, "sigma_sq_many"), (montecarlo, "dp_quantile"),
                (dgp, "dp_quantile")]
    calls = {}

    def spy(owner, name, original):
        signature = inspect.signature(original)
        key = f"{owner.__name__.rpartition('.')[2]}.{name}"

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.setdefault(key, []).append(
                ({k: _copied(v) for k, v in bound.arguments.items()}, _copied(result)))
            return result
        return recorded

    originals = [(owner, name, getattr(owner, name)) for owner, name in targets]
    for owner, name, original in originals:
        setattr(owner, name, spy(owner, name, original))
    try:
        rng = np.random.default_rng(20)
        x, y = random_dp_values(rng, 300), 1.3 * random_dp_values(rng, 340)
        small = dict(bootstrap=19, grid=41, vgrid=11, seed=5)
        for direction in Direction:
            for m, kind in ((3, FunctionalKind.SUP), (5, FunctionalKind.INT)):
                for tau in (1.0, float("inf")):
                    cfg = dict(small, m=m, direction=direction, kind=kind, tau=tau)
                    run_test(make_sample(x), make_sample(y), TestConfig(**cfg))
                    run_test(make_paired(x, y[:300]), None,
                             TestConfig(**cfg, scheme=Scheme.MATCHED))
            pairwise_rank([(label, dgp.dp_sample(DoubleParetoParams(a, 2.0), 120, rng))
                           for label, a in (("a", 2.5), ("b", 3.0), ("c", 4.0))],
                          TestConfig(**small, direction=direction))
            run_table([SimSpec(DoubleParetoParams(3.0, 2.0), DoubleParetoParams(2.5, 2.0),
                               30, 40, TestConfig(**small, direction=direction), 3, mode)
                       for mode in SimMode])
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return calls


def stacked(sample) -> SortedSample:
    """A sample as the core passes it to ``eval_block`` and ``eval_on_grid``:
    a stack of datasets, values of shape (D, n), one sample a stack of one."""
    return SortedSample(np.atleast_2d(sample.values))


def independent_kernel(sample1, sample2) -> CovKernel:
    """The covariance kernel of two independent samples (or stacks of them)
    as the core builds it, from stacks, with a memo of its own."""
    return CovKernel(stacked(sample1), stacked(sample2), {})


def matched_kernel(pairs) -> CovKernel:
    """The covariance kernel of matched pairs as the core builds it: each
    column a stack of one sample, with the columns' sort orders."""
    return CovKernel(stacked(pairs.left_sample()), stacked(pairs.right_sample()), {},
                     (pairs.left_order(), pairs.right_order()))


def grid_columns(columns, size) -> bool:
    """Whether ``columns`` are what the core passes as columns: a nonempty,
    strictly increasing run of integer indices of a grid of ``size`` points."""
    columns = np.asarray(columns)
    return (columns.ndim == 1 and len(columns) > 0 and columns.dtype.kind in "iu"
            and bool(np.all(np.diff(columns) > 0)) and columns[0] >= 0
            and columns[-1] < size)


def seed_sequence(seed, *key) -> np.random.SeedSequence:
    """numpy's own SeedSequence behind the stream keyed by (seed, *key): the
    seed mod 2**64, each key part as two 32-bit words (high first), a float
    by its bits and an int mod 2**64."""
    words = []
    for part in key:
        bits = (int(np.float64(part).view(np.uint64)) if isinstance(part, float)
                else int(part) % 2**64)
        words += [bits >> 32, bits % 2**32]
    return np.random.SeedSequence(entropy=int(seed) % 2**64, spawn_key=words)


def philox_key(seed, *key) -> np.ndarray:
    """The Philox key of the stream keyed by (seed, *key), derived by numpy."""
    return seed_sequence(seed, *key).generate_state(2, np.uint64)


def substream(seed, *key) -> np.random.Generator:
    """The counter-based stream keyed by (seed, *key), built by numpy."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *key)))


def dp_pdf(params, x):
    """Double Pareto density; zero for x < 0."""
    x = np.asarray(x, dtype=float)
    a, b, m = params.alpha, params.beta, params.scale
    norm = a * b / (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = norm * m ** (-b) * x ** (b - 1.0)
        upper = norm * m ** a * x ** (-a - 1.0)
    out = np.where(x >= m, upper, lower)
    out = np.where(x < 0, 0.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def dp_cdf(params, x):
    """Double Pareto distribution function on [0, inf)."""
    x = np.asarray(x, dtype=float)
    a, b, m = params.alpha, params.beta, params.scale
    split = params.lower_mass
    lower = split * (x / m) ** b
    with np.errstate(divide="ignore"):
        upper = split + (1.0 - split) * (1.0 - (m / np.maximum(x, m)) ** a)
    out = np.where(x < m, lower, upper)
    if np.ndim(x) == 0:
        return float(out)
    return out


def dp_mean(params) -> float:
    """Closed-form mean alpha*beta*scale/((alpha-1)(beta+1)); infinite for alpha <= 1."""
    a, b, m = params.alpha, params.beta, params.scale
    if a <= 1:
        return float("inf")
    return a * b * m / ((a - 1.0) * (b + 1.0))


def rel_err(got, want, floor=1e-300):
    return abs(got - want) / max(abs(want), floor)


def random_dp_values(rng, n, alpha=3.0, beta=2.0):
    return dp_quantile(DoubleParetoParams(alpha, beta), rng.random(n))


def step_quantile(values, cumprobs):
    """Left-inf step quantile lookup: smallest value with cumulative mass >= t.

    The quadrature routines call it once per node with a scalar ``t``, so
    the lookup bisects plain lists rather than paying numpy's per-call cost.
    """
    values = np.asarray(values, dtype=float).tolist()
    cum = np.asarray(cumprobs, dtype=float).tolist()
    last = len(values) - 1

    def q(t):
        return values[min(bisect_left(cum, t), last)]

    return q


def point_lambda(values, cumprobs, m, direction, p):
    """Closed-form curve value at p, a point or an array of points in [0, 1].

    The step quantile takes ``values[i]`` (ascending) up to ``cumprobs[i]``.
    By parts the curve is a sum over the breakpoints c_k of jump sizes
    d = (X_(1), diff(X), -X_(n)) times ((p - c_k)_+)^(m-1) / (m-1)! upward;
    downward the sum is mirrored and the mean term added.  The sum is taken
    at each point directly, O(n) per point, with no lattice or prefix sums.
    Pass ``np.cumsum(w) / n`` as ``cumprobs`` for a sample reweighted by w.
    """
    x = np.asarray(values, dtype=float)
    c = np.concatenate(([0.0], np.asarray(cumprobs, dtype=float)))
    d = np.concatenate(([x[0]], np.diff(x), [-x[-1]]))
    p = np.asarray(p, dtype=float)
    t = p[..., None] - c if direction is Direction.UP else c - p[..., None]
    out = np.sum(d * np.clip(t, 0.0, None) ** (m - 1), axis=-1) / factorial(m - 1)
    if direction is Direction.DOWN:
        out = float(np.sum(np.diff(c) * x)) * (1.0 - p) ** (m - 2) / factorial(m - 2) + out
    return float(out) if out.ndim == 0 else out


def expansion_rows(values, weights, m, direction, points):
    """Block curves row by row in float64: each row's own bincount onto the
    lattice, then the binomial expansion with one float prefix sum per term.

    Upward the levels are summed from p = 0 and the expansion is in powers
    of p; downward they are summed from p = 1 (level n first) and the
    expansion is in powers of 1 - p, with level factors (c - 1)^(k - r).
    ``values`` holds one sorted sample that every row of ``weights``
    reweights, or a stack of D of them, shape (D, n), whose dataset b mod D
    row b reweights.  Every operation is the one ``eval_block`` applies to
    that row, in the same order, so the rows agree bit for bit.
    """
    w = np.asarray(weights, dtype=np.int64)
    rows, n = w.shape
    datasets = np.atleast_2d(np.asarray(values, dtype=float))
    stack = np.tile(datasets, (rows // len(datasets), 1))
    points = np.asarray(points, dtype=float)
    k, up = m - 1, direction is Direction.UP
    levels = np.arange(n + 1) / n
    if up:
        cut = np.searchsorted(levels, points, side="right")
        base, step = -levels, points
    else:
        cut = n + 1 - np.searchsorted(levels, points, side="left")
        base, step = (levels - 1.0)[::-1], 1.0 - points
    lattice = np.array([comb(k, r) * base ** (k - r) for r in range(k + 1)])
    powers = np.cumprod(np.vstack([np.ones_like(points)] + [step] * k), axis=0)
    out = np.empty((rows, len(points)))
    for b, (x, wb) in enumerate(zip(stack, w)):
        d = np.concatenate(([x[0]], np.diff(x), [-x[-1]]))
        knots = np.concatenate(([0], np.cumsum(wb)))
        jumps = np.bincount(knots if up else n - knots, weights=d, minlength=n + 1)
        curve = np.zeros(len(points))
        for r in range(m):
            scaled = jumps if r == m - 1 else jumps * lattice[r]
            part = np.concatenate(([0.0], np.cumsum(scaled)))[cut]
            curve += part * powers[r] if r else part
        curve /= factorial(m - 1)
        if up:
            curve[0] = 0.0
        else:
            curve += np.sum(wb * x) / n * ((1.0 - points) ** (m - 2) / factorial(m - 2))
            curve[-1] = 0.0
        out[b] = curve
    return out


def fraction_curves(values, weights, m, direction, points):
    """Exact curves of reweighted step quantiles, one row per row of
    ``weights``, as lists of ``Fraction``.

    Row b's quantile equals its value X_(i) on the interval (S_i, S_i+1]/n,
    S_i the sum of the row's first i weights, so each curve is the
    definition integrated interval by interval in rational arithmetic:

        L_m(p)  = sum_i X_(i) [(p - a_i)_+^(m-1) - (p - b_i)_+^(m-1)] / (m-1)!,
        Ld_m(p) = (1 - p)^(m-2) mu / (m-2)!
                  - sum_i X_(i) [(b_i - p)_+^(m-1) - (a_i - p)_+^(m-1)] / (m-1)!,

    with mu = sum_i X_(i) (b_i - a_i).  Every float input is taken exactly.
    ``values`` is one sorted sample for all rows, or one per row.
    """
    w = np.asarray(weights, dtype=np.int64)
    rows, n = w.shape
    stack = np.broadcast_to(np.asarray(values, dtype=float), (rows, n))
    ps = [Fraction(float(p)) for p in points]
    k, up = m - 1, direction is Direction.UP
    out = []
    for x, wb in zip(stack, w):
        edges = np.concatenate(([0], np.cumsum(wb))).tolist()
        steps = [(Fraction(float(v)), Fraction(a, n), Fraction(b, n))
                 for v, a, b in zip(x, edges, edges[1:]) if b > a]
        mu = sum(v * (b - a) for v, a, b in steps)
        row = []
        for p in ps:
            if up:
                total = sum(v * (max(p - a, 0) ** k - max(p - b, 0) ** k) for v, a, b in steps)
                row.append(total / factorial(k))
            else:
                total = sum(v * (max(b - p, 0) ** k - max(a - p, 0) ** k) for v, a, b in steps)
                row.append((1 - p) ** (m - 2) * mu / factorial(m - 2) - total / factorial(k))
        out.append(row)
    return out


def full_grid_bootstrap_stats(samples, orders, m, grid, plan, keys, work=None):
    """``inference._bootstrap_stats`` with every bootstrap curve evaluated on
    the whole grid: one replication of one dataset at a time, each stream
    drawn by a new generator (one stream per replication: every sample in
    slot order; else sample k from stream k), and each statistic the
    derivative of the whole-grid difference on its contact set.  Same
    arguments and result, one array (tests, kinds, T, D, replications) per
    direction, every place of the grid filled.  Each test's phi-hat and
    contact sets come on its direction's columns; they are scattered back
    onto the whole grid, the masks False off the columns, so no statistic
    reads a point off them.  It keeps no workspace, so ``work`` goes
    unread."""
    replications, depth, streams = keys.shape[:3]
    sizes = [s.n for s in samples] if orders is None else [samples[0].n]
    stats, whole = [], []  # per direction: its array, and its tests on the whole grid
    for direction, columns, kinds, tests in plan:
        at = slice(None) if columns is None else columns
        scattered = []
        for a, c, phi, root_t, contact in tests:
            full_phi = np.zeros(phi.shape[:-1] + (len(grid),))
            full_phi[..., at] = phi
            full_contact = np.zeros(contact.shape[:-1] + (len(grid),), dtype=bool)
            full_contact[..., at] = contact
            scattered.append((a, c, full_phi, root_t, full_contact))
        stats.append(np.empty((len(tests), len(kinds), len(tests[0][-1]), depth, replications)))
        whole.append((direction, kinds, scattered))
    for b in range(replications):
        for d in range(depth):
            gens = [np.random.Generator(np.random.Philox(key=key)) for key in keys[b, d]]
            weights = [draw_weights(n, gens[k if streams > 1 else 0])
                       for k, n in enumerate(sizes)]
            if orders is not None:
                weights = [weights[0][order] for order in orders]
            for (direction, kinds, tests), values in zip(whole, stats):
                curves = [eval_block(SortedSample(s.values[d:d + 1]), w[None], m, direction,
                                     grid)[0]
                          for s, w in zip(samples, weights)]
                for t, (a, c, phi, root_t, contact) in enumerate(tests):
                    h = (curves[c] - curves[a] - phi[d]) * root_t
                    for i, kind in enumerate(kinds):
                        for u, mask in enumerate(contact):
                            values[t, i, u, d, b] = derivative(kind, h, mask[d], grid)
    return stats


def _interior_points(breaks, lo, hi):
    pts = [b for b in np.asarray(breaks, dtype=float) if lo < b < hi]
    return pts or None


def quad_lambda(values, cumprobs, m, direction, p):
    """Adaptive-quadrature oracle for one curve value at one point."""
    q = step_quantile(values, cumprobs)
    breaks = np.concatenate(([0.0], np.asarray(cumprobs, dtype=float)))
    fac = 1.0
    for i in range(1, m - 1):
        fac *= i
    if direction is Direction.UP:
        if p == 0.0:
            return 0.0
        val, _ = scipy.integrate.quad(
            lambda t: (p - t) ** (m - 2) * q(t), 0.0, p,
            points=_interior_points(breaks, 0.0, p), limit=200,
            epsabs=1e-14, epsrel=1e-12)
        return val / fac
    mu, _ = scipy.integrate.quad(q, 0.0, 1.0, points=_interior_points(breaks, 0.0, 1.0),
                                 limit=200, epsabs=1e-14, epsrel=1e-12)
    if p == 1.0:
        tail = 0.0
    else:
        tail, _ = scipy.integrate.quad(
            lambda t: (t - p) ** (m - 2) * q(t), p, 1.0,
            points=_interior_points(breaks, p, 1.0), limit=200,
            epsabs=1e-14, epsrel=1e-12)
    return ((1.0 - p) ** (m - 2) * mu - tail) / fac


def quad_lambda_grids(values, cumprobs, combos, grid_points):
    """Vectorized adaptive-quadrature oracle over a whole grid.

    Returns a (len(combos), len(grid_points)) array, one row per
    ``(m, direction)`` in ``combos``.  All rows share one ``quad_vec`` call
    whose integrand stacks their kernels, so the quantile is looked up once
    per node.  Every grid point and step breakpoint is a subdivision point,
    so the integrand is polynomial on each panel and the rule is exact there.
    """
    q = step_quantile(values, cumprobs)
    grid_points = np.asarray(grid_points, dtype=float)
    breaks = np.concatenate(([0.0], np.asarray(cumprobs, dtype=float), grid_points))
    pts = _interior_points(np.unique(breaks), 0.0, 1.0)
    degrees = np.array([m for m, _ in combos])
    fac = np.array([float(factorial(m - 2)) for m in degrees])[:, None]
    # Upward rows weigh (p - t)^(m-2) on t <= p, downward rows (t - p)^(m-2) on t >= p.
    up = np.array([direction is Direction.UP for _, direction in combos])
    signs = np.where(up, 1.0, -1.0)[:, None]
    powers = (degrees - 2)[:, None]
    # Raise to the power by repeated products: row r takes factor k if powers[r] >= k.
    factor_masks = [powers >= k for k in range(1, int(powers.max()) + 1)]

    def f(t):
        d = signs * (grid_points - t)
        w = np.where(d >= 0.0, 1.0, 0.0)
        for mask in factor_masks:
            np.multiply(w, d, out=w, where=mask)
        w *= q(t)
        return w.ravel()

    val, _ = scipy.integrate.quad_vec(f, 0.0, 1.0, points=pts, limit=400,
                                      epsabs=1e-13, epsrel=1e-12)
    val = val.reshape(len(combos), len(grid_points))
    if up.all():
        return val / fac
    mu, _ = scipy.integrate.quad(q, 0.0, 1.0, points=_interior_points(breaks, 0.0, 1.0),
                                 limit=400, epsabs=1e-14, epsrel=1e-12)
    down = (1.0 - grid_points) ** powers * mu - val
    return np.where(up[:, None], val, down) / fac


def centered_clips(column, ts):
    """Centered clipped series min(Q(t), x_i) for every t, rows in input order."""
    x = np.asarray(column, dtype=float)
    xs = np.sort(x)
    idx = np.clip(np.ceil(np.asarray(ts) * len(xs)).astype(int), 1, len(xs)) - 1
    a = np.minimum(x[:, None], xs[idx][None, :])
    return a - a.mean(axis=0)


def fine_kernel(x1, x2, ts, matched=False):
    """Kernel oracle at abscissae ts from clip-matrix covariances."""
    n1, n2 = len(x1), len(x2)
    lam = n1 / (n1 + n2)
    a1 = centered_clips(x1, ts)
    a2 = centered_clips(x2, ts)
    c11 = a1.T @ a1 / (n1 - 1)
    c22 = a2.T @ a2 / (n2 - 1)
    if not matched:
        return (1 - lam) * c11 + lam * c22
    c12 = a1.T @ a2 / (n1 - 1)
    root = np.sqrt(lam * (1 - lam))
    return (1 - lam) * c11 - root * (c12 + c12.T) + lam * c22


def nested_sigma_oracle(kernel_mid, cells, m, direction, p):
    """Direct numerical integration of the raw nested variance definition.

    ``kernel_mid`` holds kernel values at the midpoints of ``cells`` equal
    fine cells on [0, 1]; cumulative midpoint sums integrate the piecewise
    constant kernel exactly when the sample breakpoints align with cell
    boundaries, and the outer integrals of the resulting piecewise linear
    functions use the trapezoid rule on the node values.
    """
    step = 1.0 / cells
    k_cells = int(round(p * cells))
    if direction is Direction.DOWN:
        kernel_mid = kernel_mid[::-1, ::-1]
        k_cells = cells - k_cells
    if k_cells == 0:
        return 0.0
    block = kernel_mid[:k_cells, :k_cells]
    if m == 3:
        return float(np.sum(block)) * step * step
    if m != 4:
        raise ValueError("nested oracle implemented for m in {3, 4}")
    # C[k, j] = integral_0^{node k} K(t, mid_j) dt, exact for aligned steps
    c = np.vstack([np.zeros((1, k_cells)), np.cumsum(block, axis=0)]) * step
    # A[j] = integral_0^p C(t3, mid_j) dt3 (trapezoid over nodes, C piecewise linear)
    a = step * (c[0] / 2 + c[1:-1].sum(axis=0) + c[-1] / 2)
    b = np.concatenate(([0.0], np.cumsum(a))) * step
    return float(step * (b[0] / 2 + b[1:-1].sum() + b[-1] / 2))


def interval_weights(breaks, ps, m, direction):
    """Exact integrals of the collapse weight over each order-statistic interval.

    Returns a (len(ps), n) array whose row p sums to p^(m-2)/(m-2)! upward
    (mirrored downward).
    """
    q = m - 2
    a = breaks[:-1]
    b = breaks[1:]
    p = np.asarray(ps, dtype=float)[:, None]
    if direction is Direction.UP:
        w = np.clip(p - a, 0.0, None) ** q - np.clip(p - b, 0.0, None) ** q
    else:
        w = np.clip(b - p, 0.0, None) ** q - np.clip(a - p, 0.0, None) ** q
    return w / factorial(q)


def _dense_v(column, m, direction, ps):
    """Weighted row sums V[p, k] = sum_i W[p, i] (min(X_(i), X_(k)) - colmean_i).

    Rows follow the input order of ``column``; the min structure of the
    clip matrix makes each row an O(n) prefix computation over a dense
    (len(ps), n) weight matrix.
    """
    x = np.asarray(column, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = len(xs)
    w = interval_weights(np.arange(n + 1) / n, ps, m, direction)
    col_means = (np.cumsum(xs) + xs * (n - 1 - np.arange(n))) / n
    cum_wx = np.cumsum(w * xs, axis=1)
    cum_w = np.cumsum(w, axis=1)
    v = cum_wx + xs * (cum_w[:, -1:] - cum_w)
    v -= (w @ col_means)[:, None]
    out = np.empty_like(v)
    out[:, order] = v
    return out


def dense_sigma_sq(x1, x2, m, direction, ps, matched=False):
    """Reference variance curve through dense (len(ps), n) weight matrices.

    ``x1`` and ``x2`` are the raw columns; with ``matched`` their rows are
    paired.  O(len(ps) n) time and memory.
    """
    n1, n2 = len(x1), len(x2)
    lam = n1 / (n1 + n2)
    v1 = _dense_v(x1, m, direction, ps)
    v2 = _dense_v(x2, m, direction, ps)
    if not matched:
        return ((1 - lam) * np.sum(v1 * v1, axis=1) / (n1 - 1)
                + lam * np.sum(v2 * v2, axis=1) / (n2 - 1))
    diff = v1 - v2
    return np.sum(diff * diff, axis=1) / (2.0 * (n1 - 1))



def _fraction_f(column, m, direction, p):
    """Exact f_p(x_k) = sum_i W_i(p) min(X_(i), x_k) for every row k, in row order."""
    x = [Fraction(float(v)) for v in column]
    xs = sorted(x)
    n = len(xs)
    q = m - 2
    p = Fraction(float(p))
    w = []
    for i in range(n):
        a, b = Fraction(i, n), Fraction(i + 1, n)
        if direction is Direction.UP:
            wi = max(p - a, 0) ** q - max(p - b, 0) ** q
        else:
            wi = max(b - p, 0) ** q - max(a - p, 0) ** q
        w.append(wi / factorial(q))
    return [sum(wi * min(xi, xk) for wi, xi in zip(w, xs)) for xk in x]


def fraction_sigma_sq(x1, x2, m, direction, p, matched=False):
    """Exact rational variance of the curve difference at one level.

    The definition written out with ``fractions.Fraction``: the (n-1)
    variance of f_p over the rows of each sample (mixed by lambda), or
    half the (n-1) variance of the row differences for matched pairs.
    O(n^2) per level; meant for n <= 8.
    """
    def var(values):
        mu = sum(values) / len(values)
        return sum((v - mu) ** 2 for v in values) / (len(values) - 1)

    f1 = _fraction_f(x1, m, direction, p)
    f2 = _fraction_f(x2, m, direction, p)
    if matched:
        return float(var([a - b for a, b in zip(f1, f2)]) / 2)
    lam = Fraction(len(x1), len(x1) + len(x2))
    return float((1 - lam) * var(f1) + lam * var(f2))


def _exact_weights(n, rng):
    """One replication's weights of a sample of n: the counts of n uniform
    picks of its n sorted positions."""
    return np.bincount(rng.integers(0, n, n), minlength=n)


@lru_cache(maxsize=None)
def _reference_vhat(x1, x2, m, direction, grid, vgrid, xi):
    """sigma-hat on the grid: the exact variance at the variance grid's
    points, interpolated onto the grid and floored at xi before the square
    root.  Arguments are hashable: the samples as sorted tuples."""
    vpoints = np.linspace(0.0, 1.0, vgrid)
    variance = [fraction_sigma_sq(x1, x2, m, direction, p) for p in vpoints]
    return np.sqrt(np.maximum(np.interp(np.linspace(0.0, 1.0, grid), vpoints, variance), xi))


def _centred(curves1, curves2):
    """The exact difference phi-hat of two samples' own curves (the first
    rows), and each replication's bootstrap difference phi* - phi-hat,
    each a list over the grid points."""
    rows = [[c2 - c1 for c1, c2 in zip(row1, row2)] for row1, row2 in zip(curves1, curves2)]
    return rows[0], [[star - at for star, at in zip(row, rows[0])] for row in rows[1:]]


@lru_cache(maxsize=None)
def _reference_curves(x1, x2, m, direction, bootstrap, seed, grid):
    """What ``reference_test`` reads of a (data, m, direction) triple's
    curves, for every functional, bandwidth and floor: :func:`_centred`
    of the two samples' exact curves.  Arguments are hashable: the samples
    as sorted tuples."""
    points = np.linspace(0.0, 1.0, grid)
    n1, n2 = len(x1), len(x2)
    weights1, weights2 = [np.ones(n1, dtype=np.int64)], [np.ones(n2, dtype=np.int64)]
    for b in range(bootstrap):  # one stream per replication: sample 1's draw, then sample 2's
        rng = np.random.Generator(np.random.Philox(key=philox_key(seed, inference._BOOT_TAG, b)))
        weights1.append(_exact_weights(n1, rng))
        weights2.append(_exact_weights(n2, rng))
    return _centred(fraction_curves(x1, weights1, m, direction, points),
                    fraction_curves(x2, weights2, m, direction, points))


@lru_cache(maxsize=None)
def _reference_rank_curves(x, k, m, direction, bootstrap, seed, grid):
    """Dataset k's exact curves in a ranking, its own and then each
    replication b's, whose weights come from the stream
    ``Generator(Philox(philox_key(seed, _RANK_TAG, k, b)))``; ``x`` is the
    dataset as a sorted tuple."""
    weights = [np.ones(len(x), dtype=np.int64)]
    for b in range(bootstrap):
        key = philox_key(seed, inference._RANK_TAG, k, b)
        weights.append(_exact_weights(len(x), np.random.Generator(np.random.Philox(key=key))))
    return fraction_curves(x, weights, m, direction, np.linspace(0.0, 1.0, grid))


@lru_cache(maxsize=None)
def _reference_rank_pair(x1, x2, k1, k2, *key):
    """:func:`_centred` of datasets k1 and k2 of a ranking, for every
    functional and bandwidth."""
    return _centred(_reference_rank_curves(x1, k1, *key), _reference_rank_curves(x2, k2, *key))


def _reference_functional(kind, h, member, points):
    """The sup of h over the member points, or the trapezoidal integral of
    max(h, 0) over the subintervals with both ends members, as a loop over
    the grid points in exact arithmetic."""
    if kind is FunctionalKind.SUP:
        return max(v for v, inside in zip(h, member) if inside)
    total = Fraction(0)
    for g in range(len(h) - 1):
        if member[g] and member[g + 1]:
            width = Fraction(float(points[g + 1])) - Fraction(float(points[g]))
            total += width * (max(h[g], 0) + max(h[g + 1], 0)) / 2
    return total


def _reference_null(x1, x2, phi, centred, cfg):
    """The test of the null that the sample ``x1`` dominates ``x2`` (sorted
    tuples), from the exact difference phi-hat and the replications' exact
    bootstrap differences phi* - phi-hat: the fields ``run_test`` reports (the
    elapsed time aside) and the contact set's ``margin`` (see
    :func:`reference_test`)."""
    vhat = _reference_vhat(x1, x2, cfg.m, cfg.direction, cfg.grid, cfg.vgrid, cfg.xi)
    points = np.linspace(0.0, 1.0, cfg.grid)
    n1, n2 = len(x1), len(x2)
    root = np.sqrt(n1 * n2 / (n1 + n2))
    member, margin = [], float("inf")
    for v, s in zip(phi, vhat):
        scaled, bound = abs(root * float(v)), cfg.tau * s
        member.append(scaled <= bound)
        if bound < float("inf"):
            margin = min(margin, abs(scaled - bound) / bound)
    statistic = root * float(_reference_functional(cfg.kind, phi, [True] * len(phi), points))
    stats = sorted(root * float(_reference_functional(cfg.kind, h, member, points))
                   for h in centred)
    b = len(stats)
    chat = stats[min(max(ceil((1 - cfg.alpha) * b), 1), b) - 1]
    if cfg.eta > 0:
        chat = max(chat, cfg.eta)
    return dict(statistic=statistic, critical_value=chat,
                p_value=sum(s >= statistic for s in stats) / b, reject=statistic > chat,
                contact_fraction=sum(member) / cfg.grid, margin=margin)


def _sorted_tuple(sample):
    return tuple(np.sort(np.asarray(sample.values, dtype=float)).tolist())


def reference_test(sample1, sample2, cfg):
    """``run_test`` of two independent samples under the config ``cfg``,
    written from the paper's definitions, sharing no kernel with the package.

    The curves are exact (``fraction_curves``), and so is the variance at
    the variance grid's points (``fraction_sigma_sq``), interpolated onto
    the grid and floored at xi before the square root.  The contact set
    holds the points where |sqrt(T_n) phi-hat| <= tau sigma-hat.  The
    statistic is sqrt(T_n) times the functional of phi-hat on the whole
    grid, and replication b's is sqrt(T_n) times the functional of
    phi* - phi-hat on the contact set, with phi* drawn from the stream
    ``Generator(Philox(philox_key(seed, _BOOT_TAG, b)))``: the weights of
    sample 1, then those of sample 2, each the counts of n uniform picks of
    n sorted positions.  The critical value is the ceil((1 - alpha) B)-th
    smallest statistic, floored at eta when eta > 0; the p-value is the
    share of statistics at or above the observed one.  Returns the fields
    ``run_test`` reports (the elapsed time aside) and ``margin``, the least
    relative distance of a grid point from the contact set's boundary,
    |sqrt(T_n) |phi-hat| - tau sigma-hat| / (tau sigma-hat) (inf for
    tau = inf).
    """
    x1, x2 = _sorted_tuple(sample1), _sorted_tuple(sample2)
    return _reference_null(x1, x2, *_reference_curves(x1, x2, cfg.m, cfg.direction,
                                                      cfg.bootstrap, cfg.seed, cfg.grid), cfg)


def reference_rank(datasets, cfg):
    """``pairwise_rank`` of named independent samples under ``cfg``,
    written from the paper's definitions, sharing no kernel with the package.

    For every pair (i, j), i < j, in label order, both nulls are tested as
    :func:`reference_test` tests one, "dataset i dominates dataset j" and
    then the reverse, except for the streams: replication b of dataset k
    draws its weights, the counts of n_k uniform picks of its n_k sorted
    positions, from ``Generator(Philox(philox_key(seed, _RANK_TAG, k, b)))``,
    and that draw serves every pair that dataset k enters.  Returns, per
    pair, the fields of its ``PairDecision`` (labels, reject flags and
    p-values) and ``margin``, the smaller of both nulls' margins.
    """
    labels = [label for label, _ in datasets]
    xs = [_sorted_tuple(sample) for _, sample in datasets]
    key = (cfg.m, cfg.direction, cfg.bootstrap, cfg.seed, cfg.grid)

    def null(a, b):  # H0: dataset a dominates dataset b
        return _reference_null(xs[a], xs[b], *_reference_rank_pair(xs[a], xs[b], a, b, *key),
                               cfg)

    out = []
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            ij, ji = null(i, j), null(j, i)
            out.append(dict(a=labels[i], b=labels[j], reject_a_dominates=ij["reject"],
                            reject_b_dominates=ji["reject"], p_a_dominates=ij["p_value"],
                            p_b_dominates=ji["p_value"], margin=min(ij["margin"], ji["margin"])))
    return out
