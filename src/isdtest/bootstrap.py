"""Multinomial bootstrap: weights, critical values and p-values.

Randomness is organized as counter-based streams: every replication
draws from its own Philox stream, keyed by the master seed and an integer
key, so the full list of bootstrap statistics is a pure function of (data,
config, seed) regardless of execution order or block size.  The stream
keyed by (seed, key) is ``Generator(Philox(key=k))`` with k numpy's
``SeedSequence(seed mod 2**64, key words).generate_state(2, uint64)``:
each key part gives two 32-bit words, high first, an int taken mod 2**64
and a float by its bits.  :func:`_generate_state` computes that state for
a whole array of keys in one vectorised pass; the test derives all of a
call's keys at once, and one generator, re-keyed in place by
:func:`_restart` for every row, draws them all.  The streams, and every
result, are bit for bit those of one generator built per replication.

A replication reweights each sample by :func:`draw_weights`, a
multinomial draw of n categories.  The test stacks the weights of R
replications into (R, n) rows and evaluates them at once with
:func:`~isdtest.curves.eval_block`; a replication's statistic is
:func:`~isdtest.functionals.derivative` of sqrt(T_n) * (phi_star - phi_hat)
on the contact set.  :func:`critical_value` and :func:`p_value` read the
decision off the B statistics.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil

import numpy as np

__all__ = [
    "derive_seed",
    "draw_weights",
    "critical_value",
    "p_value",
]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# numpy's SeedSequence hash (pool of 4 words): multipliers and shifts.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
# The counter and the (spent) buffer of a Philox stream's start.
_ZEROS = np.zeros(4, dtype=np.uint64)


def _words(value) -> list:
    """The (high, low) 32-bit words of a key part: an int mod 2**64, a float
    by its bits, or an array of either (words as uint64 arrays)."""
    if isinstance(value, np.ndarray):
        bits = (value.astype(np.float64).view(np.uint64) if value.dtype.kind == "f"
                else value.astype(np.uint64))
    elif isinstance(value, float):
        bits = int(np.float64(value).view(np.uint64))
    else:
        bits = int(value) & _MASK64
    return [bits >> 32, bits & _MASK32]


@lru_cache(maxsize=64)
def _constants(init: int, mult: int, steps: int) -> tuple:
    """The (xor, multiplier) pairs of ``steps`` successive hash steps."""
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    return tuple(zip(chain, chain[1:]))


def _hash(value, xor: int, mult: int):
    """One step of SeedSequence's hash, on a Python int or a uint64 array
    of 32-bit words."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _SHIFT


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> _SHIFT


def _generate_state(seed, key: tuple, n_words: int, dtype=np.uint32) -> np.ndarray:
    """``SeedSequence(entropy=seed mod 2**64, spawn_key=<key's words>)
    .generate_state(n_words, dtype)``, bit for bit, for many keys at once.

    ``seed`` and any part of ``key`` may be arrays: a uint64 array of seeds,
    an integer array of key values (taken mod 2**64) or a float64 array
    (taken by its bits).  The result has their broadcast shape followed by
    ``n_words``.  Each word of the hash is a Python int for a scalar key
    and a uint64 array otherwise, so one pass hashes every key of the
    broadcast.
    """
    # The seed's words, low first, padded to the pool; each key part's, high first.
    entropy = _words(seed if isinstance(seed, np.ndarray) else int(seed))[::-1] + [0, 0]
    for part in key:
        entropy += _words(part)

    # Pool the entropy: hash the first words in, mix every pool word into
    # every other, then mix each further word into every pool word.
    steps = iter(_constants(_INIT_A, _MULT_A, _POOL * len(entropy)))
    pool = [_hash(word, *next(steps)) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, *next(steps)))

    wide = np.dtype(dtype) == np.uint64
    count = 2 * n_words if wide else n_words
    state = np.moveaxis(np.array([_hash(pool[i % _POOL], *step) for i, step in
                                  enumerate(_constants(_INIT_B, _MULT_B, count))],
                                 dtype=np.uint64), 0, -1)
    if wide:  # little-endian pairs of 32-bit words
        return state[..., 0::2] | state[..., 1::2] << 32
    return state.astype(np.uint32)


def _restart(gen: np.random.Generator, key) -> None:
    """Move ``gen``, a Philox generator, to the start of the stream with
    Philox ``key`` (two uint64 words): its draws are then those of a new
    ``Generator(Philox(key=key))``, bit for bit, without building one."""
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def derive_seed(seed: int, *key) -> int:
    """Deterministic 64-bit child seed for nested components.

    With an array among the key parts, the seeds of every key of the
    broadcast, as a uint64 array.
    """
    state = _generate_state(seed, key, 2).astype(np.uint64)
    seeds = state[..., 0] << 32 | state[..., 1]
    return int(seeds) if seeds.ndim == 0 else seeds


def draw_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial(n; 1/n, ..., 1/n) sample via n uniform category draws."""
    return np.bincount(rng.integers(0, n, size=n), minlength=n)


def critical_value(stats, alpha: float) -> float:
    """Left-continuous empirical (1 - alpha) quantile: the ceil((1-alpha)B)-th
    smallest of the B bootstrap statistics."""
    stats = np.asarray(stats, dtype=float)
    b = stats.size
    k = min(max(ceil((1.0 - alpha) * b), 1), b)
    return float(np.partition(stats, k - 1)[k - 1])


def p_value(stats, observed: float) -> float:
    """Share of bootstrap statistics at or above the observed statistic."""
    stats = np.asarray(stats, dtype=float)
    return float(np.count_nonzero(stats >= observed)) / stats.size
