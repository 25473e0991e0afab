"""Multinomial bootstrap: weights, critical values and p-values.

Randomness is organized as counter-based substreams: every replication
derives its own generator from the master seed and an integer key, so the
full list of bootstrap statistics is a pure function of (data, config,
seed) regardless of execution order or block size.

A replication reweights each sample by :func:`draw_weights`, a
multinomial draw of n categories.  The test stacks the weights of R
replications into (R, n) rows and evaluates them at once with
:func:`~isdtest.curves.eval_block`; a replication's statistic is
:func:`~isdtest.functionals.derivative` of sqrt(T_n) * (phi_star - phi_hat)
on the contact set.  :func:`critical_value` and :func:`p_value` read the
decision off the B statistics.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from .errors import ConfigError

__all__ = [
    "substream",
    "derive_seed",
    "draw_weights",
    "critical_value",
    "p_value",
]

_MASK64 = (1 << 64) - 1
_WORD = 1 << 32


def _key_words(parts) -> tuple[int, ...]:
    """Flatten a key of ints/floats into 32-bit words for stream derivation."""
    words: list[int] = []
    for part in parts:
        if isinstance(part, float):
            bits = int(np.float64(part).view(np.uint64))
            words.extend((bits >> 32, bits & (_WORD - 1)))
        else:
            value = int(part) & _MASK64
            words.extend((value >> 32, value & (_WORD - 1)))
    return tuple(words)


def substream(seed: int, *key) -> np.random.Generator:
    """Counter-based generator for (seed, key); independent of call order."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=_key_words(key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key) -> int:
    """Deterministic 64-bit child seed for nested components."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=_key_words(key))
    hi, lo = ss.generate_state(2)
    return (int(hi) << 32) | int(lo)


def draw_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial(n; 1/n, ..., 1/n) sample via n uniform category draws."""
    if n < 1:
        raise ConfigError("weight vectors require at least one category")
    return np.bincount(rng.integers(0, n, size=n), minlength=n)


def critical_value(stats, alpha: float) -> float:
    """Left-continuous empirical (1 - alpha) quantile: the ceil((1-alpha)B)-th
    smallest of the B bootstrap statistics."""
    stats = np.asarray(stats, dtype=float)
    if stats.size == 0:
        raise ConfigError("critical value of an empty statistic list")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"significance level must lie in (0, 1), got {alpha!r}")
    b = stats.size
    k = min(max(ceil((1.0 - alpha) * b), 1), b)
    return float(np.partition(stats, k - 1)[k - 1])


def p_value(stats, observed: float) -> float:
    """Share of bootstrap statistics at or above the observed statistic."""
    stats = np.asarray(stats, dtype=float)
    if stats.size == 0:
        raise ConfigError("p-value of an empty statistic list")
    return float(np.count_nonzero(stats >= observed)) / stats.size
