"""Multinomial bootstrap: weights, resampled curves, statistics, critical values.

Randomness is organized as counter-based substreams: every replication
derives its own generator from the master seed and an integer key, so the
full list of bootstrap statistics is a pure function of (data, config,
seed) regardless of execution order, thread count or block size.

Replications are evaluated in blocks: :func:`bootstrap_block` stacks the
weights of R replications into (R, n) matrices, row b drawn from the b-th
generator, and :func:`bootstrap_diff_block` /
:func:`bootstrap_diff_block_paired` turn a block into R difference curves
with one :func:`~isdtest.curves.eval_block` per sample, whose scratch
arrays a caller may lend as one :class:`~isdtest.curves.BlockWorkspace`
per thread.  Matched rows are routed through the sort orders the
:class:`~isdtest.empirical.PairedSample` computed once.  One replication
is a block with one generator::

    draw = bootstrap_block(n1, n2, False, [rng])
    phi_star = bootstrap_diff_block(s1, s2, draw, m, direction, grid)[0]
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .curves import BlockWorkspace, Direction, Grid, eval_block
from .empirical import PairedSample, SortedSample
from .errors import ConfigError
from .functionals import ContactSet, FunctionalKind, derivative

__all__ = [
    "substream",
    "derive_seed",
    "BootstrapDraw",
    "draw_weights",
    "bootstrap_block",
    "bootstrap_diff_block",
    "bootstrap_diff_block_paired",
    "bootstrap_statistic",
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


@dataclass(frozen=True)
class BootstrapDraw:
    """Multinomial weights of a block of R replications as (R, n)
    matrices, one replication per row.

    For matched pairs both fields reference the same row-indexed weights;
    for independent samples they are drawn independently and are aligned
    with each sample's sorted order.
    """

    weights1: np.ndarray
    weights2: np.ndarray

    @property
    def shared(self) -> bool:
        return self.weights1 is self.weights2


def draw_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial(n; 1/n, ..., 1/n) sample via n uniform category draws."""
    if n < 1:
        raise ConfigError("weight vectors require at least one category")
    return np.bincount(rng.integers(0, n, size=n), minlength=n)


def bootstrap_block(n1: int, n2: int, shared: bool, rngs) -> BootstrapDraw:
    """Weights of one replication per generator, stacked into (R, n) rows.

    Row b is ``draw_weights(n1, rngs[b])`` followed, unless ``shared``
    (matched pairs, one weight per row for both columns), by
    ``draw_weights(n2, rngs[b])`` from the same generator.
    """
    rngs = list(rngs)
    if not rngs:
        raise ConfigError("a bootstrap block needs at least one replication")
    if shared and n1 != n2:
        raise ConfigError("shared weights require equal sample sizes")
    w1 = np.stack([draw_weights(n1, rng) for rng in rngs])
    if shared:
        return BootstrapDraw(w1, w1)
    return BootstrapDraw(w1, np.stack([draw_weights(n2, rng) for rng in rngs]))


def _check_block(draw: BootstrapDraw, n1: int, n2: int) -> None:
    w1, w2 = draw.weights1, draw.weights2
    if w1.ndim != 2 or w2.ndim != 2 or w1.shape != (len(w2), n1) or w2.shape[1] != n2:
        raise ConfigError("bootstrap weight block is not aligned with the samples")


def bootstrap_diff_block(s1: SortedSample, s2: SortedSample, draw: BootstrapDraw,
                         m: int, direction: Direction, grid: Grid,
                         work: BlockWorkspace | None = None) -> np.ndarray:
    """Difference curves of a block of reweighted sample pairs, shape (R, G).

    ``work`` lends :func:`~isdtest.curves.eval_block` its scratch arrays.
    """
    _check_block(draw, s1.n, s2.n)
    diff = eval_block(s2, draw.weights2, m, direction, grid, work)
    diff -= eval_block(s1, draw.weights1, m, direction, grid, work)
    return diff


def bootstrap_diff_block_paired(pairs: PairedSample, draw: BootstrapDraw,
                                m: int, direction: Direction, grid: Grid,
                                work: BlockWorkspace | None = None) -> np.ndarray:
    """Matched-pair difference curves of a block, shape (R, G): each row's
    weights are shared by both columns and routed through their sort orders."""
    if not draw.shared:
        raise ConfigError("matched pairs require a shared weight vector")
    _check_block(draw, pairs.n, pairs.n)
    w = draw.weights1
    work = BlockWorkspace() if work is None else work
    right = np.take(w, pairs.right_order(), axis=1, out=work.array("right", w.shape, w.dtype))
    left = np.take(w, pairs.left_order(), axis=1, out=work.array("left", w.shape, w.dtype))
    diff = eval_block(pairs.right_sample(), right, m, direction, grid, work)
    diff -= eval_block(pairs.left_sample(), left, m, direction, grid, work)
    return diff


def bootstrap_statistic(phi_star, phi_hat, cs: ContactSet, t_n: float,
                        kind: FunctionalKind, grid: Grid):
    """Derivative functional applied to sqrt(T_n) * (phi_star - phi_hat).

    ``phi_star`` is one bootstrap curve (a float is returned) or a block
    of R curves, shape (R, G) (an array of R statistics is returned).
    """
    phi_star = np.asarray(phi_star, dtype=float)
    phi_hat = np.asarray(phi_hat, dtype=float)
    if phi_hat.shape != (len(grid),) or phi_star.shape[-1:] != phi_hat.shape:
        raise ConfigError("bootstrap and sample curves are not aligned with the grid")
    return derivative(kind, np.sqrt(t_n) * (phi_star - phi_hat), cs, grid)


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
