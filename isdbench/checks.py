"""Output checks, computed by routes independent of the program's own.

Every function here raises :class:`CheckFailed` on a wrong result.  None
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

UP, DOWN = "up", "down"
SUP, INT = "sup", "int"

# The by-parts expansion the program uses and the interval-by-interval sum
# below agree to about 1e-14 of the curve scale; 1e-11 leaves room for the
# downward cancellation and still flags a statistic off by 1e-6 relative.
CURVE_TOL = 1e-11
# Tolerance on a rejection rate: a correct program falls outside it with
# probability RATE_TAIL on each side, per cell and run.
RATE_TAIL = 1e-7
RATE_Z = 5.2  # the normal quantile of RATE_TAIL


class CheckFailed(AssertionError):
    """A program output disagrees with its independent check."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def curve_by_intervals(sorted_values, m: int, direction: str, points) -> np.ndarray:
    """Degree-m dominance curve of a sample on ``points``.

    Integrates the step quantile, which equals X_(i) on ((i-1)/n, i/n],
    interval by interval against the kernel (p-t)^(m-2)/(m-2)! (upward) or
    the downward form (1-p)^(m-2) mu - integral_p^1 (t-p)^(m-2) Q(t) dt,
    all over (m-2)!.  This is not the program's by-parts expansion.
    """
    x = np.asarray(sorted_values, dtype=float)
    n = len(x)
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    k = m - 1
    out = np.empty(len(points))
    for start in range(0, len(points), 64):
        p = np.asarray(points[start:start + 64], dtype=float)[:, None]
        if direction == UP:
            w = np.clip(p - lo, 0.0, None) ** k - np.clip(p - hi, 0.0, None) ** k
            out[start:start + 64] = (w @ x) / math.factorial(k)
        else:
            w = np.clip(hi - p, 0.0, None) ** k - np.clip(lo - p, 0.0, None) ** k
            head = (1.0 - p[:, 0]) ** (m - 2) * (math.fsum(x) / n) / math.factorial(m - 2)
            out[start:start + 64] = head - (w @ x) / math.factorial(k)
    return out


def functional(kind: str, h: np.ndarray, points: np.ndarray) -> float:
    """Grid supremum of h, or the trapezoidal integral of max(h, 0)."""
    if kind == SUP:
        return float(np.max(h))
    g = np.maximum(h, 0.0)
    return float(np.sum(np.diff(points) * (g[:-1] + g[1:]) / 2.0))


def reference_statistic(x1, x2, m, direction, kind, grid_size) -> tuple[float, float]:
    """sqrt(T_n) times the functional of L2 - L1, and its tolerance."""
    points = np.linspace(0.0, 1.0, grid_size)
    l1 = curve_by_intervals(x1, m, direction, points)
    l2 = curve_by_intervals(x2, m, direction, points)
    root_t = math.sqrt(len(x1) * len(x2) / (len(x1) + len(x2)))
    ref = root_t * functional(kind, l2 - l1, points)
    scale = max(float(np.max(np.abs(l1))), float(np.max(np.abs(l2))))
    return ref, root_t * CURVE_TOL * scale


def check_decision(res, what: str) -> None:
    """The verdict follows from the statistic, and p lies in [0, 1]."""
    if res.reject != (res.statistic > res.critical_value):
        _fail(f"{what}: reject={res.reject} but statistic {res.statistic!r} "
              f"vs critical value {res.critical_value!r}")
    if not 0.0 <= res.p_value <= 1.0:
        _fail(f"{what}: p-value {res.p_value!r} outside [0, 1]")


def check_statistic(res, x1, x2, m, direction, kind, grid_size, what: str) -> None:
    ref, tol = reference_statistic(x1, x2, m, direction, kind, grid_size)
    if not abs(res.statistic - ref) <= tol:
        _fail(f"{what}: statistic {res.statistic!r}, independent route {ref!r} (tol {tol:.3g})")


def check_repeat(first, again, what: str) -> None:
    """A rerun of the same op returns the same verdict, bit for bit."""
    fields = ("statistic", "critical_value", "p_value", "reject", "contact_fraction", "t_n")
    for name in fields:
        if getattr(first, name) != getattr(again, name):
            _fail(f"{what}: rerun changed {name}: {getattr(first, name)!r} -> "
                  f"{getattr(again, name)!r}")


def check_dominating_side(res, what: str) -> None:
    """Sample 1 dominates by construction: statistic exactly 0, no rejection."""
    if res.statistic != 0.0 or res.reject:
        _fail(f"{what}: statistic {res.statistic!r}, reject={res.reject}; expected exactly 0 "
              "and no rejection")


def check_dominated_side(res, what: str) -> None:
    if not res.reject:
        _fail(f"{what}: the dominated side was not rejected (statistic {res.statistic!r}, "
              f"critical value {res.critical_value!r})")


def check_tau_order(cells, what: str) -> None:
    """Rejection rates never rise with the contact-set bandwidth tau.

    ``cells`` maps (design, direction, functional) to [(tau, rate), ...].
    Data and bootstrap draws do not depend on tau, so this holds exactly.
    """
    for key, series in cells.items():
        rates = [rate for _, rate in sorted(series)]
        if any(b > a for a, b in zip(rates, rates[1:])):
            _fail(f"{what}: rates {sorted(series)} for {key} rise with tau")


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(X <= k) >= q for X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(n + 1)
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.exp(head - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * log_p + (n - k) * log_q)
        if cdf >= q:
            return k
    return n


def warp_speed_level(alpha: float, reps: int) -> float:
    """Null rejection rate of a warp-speed cell at nominal level ``alpha``.

    Its critical value is the ceil((1-alpha)R)-th smallest of R bootstrap
    draws, and a statistic exchangeable with them exceeds that order
    statistic with probability (R - k + 1)/(R + 1): 0.0588 at R = 50.
    """
    k = min(max(math.ceil((1.0 - alpha) * reps), 1), reps)
    return (reps - k + 1) / (reps + 1)


def rate_bounds(published: float, reps: int, published_reps: int | None) -> tuple[float, float]:
    """Range a correct program's rejection rate stays in, but for a chance
    of RATE_TAIL on each side.

    ``reps`` is the effective replication count: in warp speed each cell's
    critical value is itself estimated from its replications, which doubles
    the variance of the rate (measured: 1.8 to 1.9 times the binomial), so
    callers pass half the replications.  A published rate estimated from
    ``published_reps`` replications is first widened by RATE_Z of its own
    standard errors; a nominal level (``published_reps`` None) is exact.
    The bounds are exact binomial quantiles, valid for rates near 0 or 1.
    """
    p_lo = p_hi = published
    if published_reps is not None:
        spread = RATE_Z * math.sqrt(published * (1.0 - published) / published_reps)
        p_lo, p_hi = max(0.0, published - spread), min(1.0, published + spread)
    return (binomial_quantile(RATE_TAIL, reps, p_lo) / reps,
            binomial_quantile(1.0 - RATE_TAIL, reps, p_hi) / reps)


def check_rate(rate: float, reps: int, published: float, published_reps: int | None,
               what: str) -> None:
    """Rate within the binomial tolerance of the published value."""
    low, high = rate_bounds(published, reps, published_reps)
    if not low <= rate <= high:
        _fail(f"{what}: rate {rate:.4f}, published {published:.4f}, allowed "
              f"[{low:.4f}, {high:.4f}] at {reps} effective replications")


def normalise_report(payload: bytes) -> bytes:
    """The report with its wall-time field zeroed."""
    return re.sub(rb'"elapsed_ms": [0-9.eE+-]+', b'"elapsed_ms": 0', payload)


def check_rank_report(payload: bytes, config: dict, labels: list, what: str) -> None:
    """The report parses, echoes its config, and orders the planted chain
    fully: every earlier label is strictly dominated by every later one."""
    try:
        report = json.loads(payload)
    except ValueError as exc:
        _fail(f"{what}: report is not JSON ({exc})")
    if report.get("command") != "rank":
        _fail(f"{what}: command {report.get('command')!r}")
    echoed = report.get("config", {})
    for key, want in config.items():
        if echoed.get(key) != want:
            _fail(f"{what}: config {key} echoed as {echoed.get(key)!r}, sent {want!r}")
    if report.get("seed") != config["seed"]:
        _fail(f"{what}: seed echoed as {report.get('seed')!r}")
    result = report.get("result", {})
    if result.get("labels") != labels:
        _fail(f"{what}: labels {result.get('labels')!r}, expected {labels!r}")
    table = result.get("relation", [])
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if table[i][j] != "<":
                _fail(f"{what}: {labels[i]} vs {labels[j]} is {table[i][j]!r}, expected '<'")
