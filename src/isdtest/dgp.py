"""Double Pareto distribution: parameters, quantile function and sampling.

The density is a power law x^(beta-1) below the scale point and a Pareto
tail x^(-alpha-1) above it; incomes are well approximated by this family.
Sampling is by inversion of the quantile function, so a draw is a pure
function of its generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf
from numbers import Real

import numpy as np

from .empirical import SortedSample, make_sample
from .errors import ConfigError

__all__ = ["DoubleParetoParams", "dp_quantile", "dp_sample"]


@dataclass(frozen=True)
class DoubleParetoParams:
    """Shape parameters (alpha: upper tail, beta: lower) and scale point,
    stored as Python floats: a simulation keys its streams by these values,
    so ``(3, 2)`` and ``(3.0, 2.0)``, which compare equal, draw alike."""

    alpha: float
    beta: float
    scale: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "scale"):
            value = getattr(self, name)
            try:
                number = float(value) if isinstance(value, Real) else None
            except OverflowError:
                raise ConfigError(f"double Pareto parameter {name} overflows double "
                                  "precision") from None
            if isinstance(value, bool) or number is None or not 0 < number < inf:
                raise ConfigError("double Pareto parameters must be positive finite numbers, "
                                  f"got {value!r}")
            object.__setattr__(self, name, number)
        a, b = self.alpha, self.beta  # Python floats overflow to inf silently
        if not (a + b < inf and a * b < inf):
            raise ConfigError("double Pareto shapes overflow: alpha + beta and alpha * beta "
                              f"must be finite, got alpha={self.alpha!r}, beta={self.beta!r}")
        if self.alpha <= 2:
            warnings.warn(
                f"upper-tail shape alpha={self.alpha} <= 2: the variance is infinite "
                "or borderline, so large-sample approximations may degrade",
                stacklevel=2,
            )

    @property
    def lower_mass(self) -> float:
        """Probability mass below the scale point: alpha/(alpha+beta)."""
        return self.alpha / (self.alpha + self.beta)


def dp_quantile(params: DoubleParetoParams, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of an array of levels; defined on [0, 1) since u = 1
    maps to infinity.

    A level whose quantile passes the double range maps to inf, without a
    warning: :func:`~isdtest.empirical.make_sample` turns it into a
    DataError.
    """
    a, b, m = params.alpha, params.beta, params.scale
    split = params.lower_mass
    with np.errstate(over="ignore"):
        lower = m * (u * (a + b) / a) ** (1.0 / b)
        upper = m * (np.maximum(1.0 - u, 1e-300) * (a + b) / b) ** (-1.0 / a)
    return np.where(u <= split, lower, upper)


def dp_sample(params: DoubleParetoParams, n: int, rng: np.random.Generator) -> SortedSample:
    """n inverse-CDF draws from independent uniforms, sorted."""
    if n < 1:
        raise ConfigError("sample size must be at least 1")
    return make_sample(dp_quantile(params, rng.random(n)))
