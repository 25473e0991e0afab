"""End-to-end dominance test and the pairwise distribution-ranking protocol.

``run_test(sample1, sample2, config)`` tests the null hypothesis that the
first sample's distribution dominates the second's, at the configured
degree and direction.  Large positive values of the difference curve
(second minus first) are evidence against that null, so rejecting means
"sample 1 does not dominate sample 2" -- never that sample 2 dominates.
This orientation is the single most error-prone convention of the tool.

The test's recipe is written once, in a private core that takes one data
set, a list of cells (direction, functional, contact-set bandwidth) and
one generator per bootstrap replication.  It evaluates phi-hat and
sigma-hat once per direction and the contact set once per bandwidth, and
one set of bootstrap draws serves every cell.  ``run_test`` is its
one-cell call; both modes of the simulation harness
(:mod:`isdtest.montecarlo`) run their cells through it too.

The B bootstrap replications run in fixed blocks of R rows, R set by the
larger sample size n under a fixed cell budget (R * (n + 1) <= 2**16, one
row at least), so a block's arrays stay cache-sized.  With ``threads > 1``
the thread pool maps over blocks.  Each replication's statistic depends
only on its own weights, bit for bit, so the statistics are a pure function
of (data, config, seed), whatever the thread count or the block size.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from math import sqrt
from numbers import Real

import numpy as np

from .bootstrap import (
    bootstrap_block,
    bootstrap_diff_block,
    bootstrap_diff_block_paired,
    critical_value,
    derive_seed,
    p_value,
    substream,
)
from .curves import (
    MAX_DEGREE,
    BlockWorkspace,
    DifferenceCurve,
    Direction,
    Grid,
    LambdaCurve,
    eval_on_grid,
)
from .empirical import PairedSample, SortedSample
from .errors import ConfigError
from .functionals import FunctionalKind, derivative, estimate_contact_set, functional
from .variance import CovKernel, Scheme, effective_size, sigma_curve

__all__ = [
    "TestConfig",
    "TestResult",
    "Relation",
    "RankingMatrix",
    "run_test",
    "pairwise_rank",
]

_BOOT_TAG = 0xB0
_RANK_TAG = 0x7A
# Cells (rows x lattice levels) of one bootstrap block; a block of R rows
# for samples of up to n observations keeps R * (n + 1) within it.
_BLOCK_CELLS = 1 << 16


def _coerce(value, enum_cls, name: str):
    """``value`` as a member of ``enum_cls``; an unknown value is a ConfigError."""
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except (ValueError, TypeError):
        choices = ", ".join(member.value for member in enum_cls)
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}") from None


def _count(value, name: str) -> int:
    """``value`` as an int; a float (2.0 included), a bool or a string is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float; a bool, a string or None is rejected."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class TestConfig:
    """All tuning knobs of the test.

    Defaults follow the recommended practice for sample sizes up to a few
    thousand: tau = 3 for the contact-set band, trimming floor xi = 0.001,
    nominal level alpha = 0.05, no critical-value floor (eta = 0).
    """

    __test__ = False  # keep pytest from collecting the Test* name

    m: int = 3
    direction: Direction = Direction.UP
    kind: FunctionalKind = FunctionalKind.SUP
    alpha: float = 0.05
    tau: float = 3.0
    xi: float = 1e-3
    eta: float = 0.0
    bootstrap: int = 999
    seed: int = 0
    grid: int = 1001
    vgrid: int = 101
    scheme: Scheme = Scheme.INDEPENDENT
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "direction", _coerce(self.direction, Direction, "direction"))
        object.__setattr__(self, "kind", _coerce(self.kind, FunctionalKind, "kind"))
        object.__setattr__(self, "scheme", _coerce(self.scheme, Scheme, "scheme"))
        for name in ("m", "bootstrap", "seed", "grid", "vgrid", "threads"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        for name in ("alpha", "tau", "xi", "eta"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not 3 <= self.m <= MAX_DEGREE:
            raise ConfigError(f"test degree must be an integer in [3, {MAX_DEGREE}], got {self.m!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"significance level must lie in (0, 1), got {self.alpha!r}")
        if not self.tau > 0:
            raise ConfigError(f"contact-set bandwidth tau must be positive or inf, got {self.tau!r}")
        if not 0 < self.xi < float("inf"):
            raise ConfigError(f"trimming floor xi must be positive and finite, got {self.xi!r}")
        if not 0 <= self.eta < float("inf"):
            raise ConfigError(f"critical-value floor eta must be nonnegative and finite, "
                              f"got {self.eta!r}")
        if self.bootstrap < 1:
            raise ConfigError("bootstrap replication count must be at least 1")
        if self.grid < 2 or self.vgrid < 2:
            raise ConfigError("grids need at least the two endpoints")
        if self.threads < 1:
            raise ConfigError("thread count must be at least 1")


@dataclass(frozen=True)
class TestResult:
    """Full test verdict plus the diagnostics needed to re-derive it."""

    __test__ = False  # keep pytest from collecting the Test* name

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    contact_fraction: float
    t_n: float
    grid: int
    vgrid: int
    bootstrap: int
    elapsed_ms: float


def _resolve_layout(sample1, sample2, scheme: Scheme):
    if scheme is Scheme.MATCHED:
        if not isinstance(sample1, PairedSample) or sample2 is not None:
            raise ConfigError("matched scheme requires a PairedSample as sample1 (and sample2=None)")
        return sample1.left_sample(), sample1.right_sample(), sample1
    if not isinstance(sample1, SortedSample) or not isinstance(sample2, SortedSample):
        raise ConfigError("independent scheme requires two SortedSample inputs")
    return sample1, sample2, None


def _critical(stats, config: TestConfig) -> float:
    """The bootstrap critical value at ``config.alpha``, floored at ``config.eta``."""
    chat = critical_value(stats, config.alpha)
    return max(chat, config.eta) if config.eta > 0 else chat


def _bootstrap_stats(s1, s2, pairs, m, grid, t_n, plan, rng, bootstrap,
                     threads=1) -> np.ndarray:
    """Bootstrap statistics of every cell, shape (cells, bootstrap).

    ``plan`` lists each direction with its phi-hat and its cells as
    (row, kind, contact set); replication b draws its weights from
    ``rng(b)``.  A block's draw, and its curves in each direction, serve
    every cell.
    """
    shared = pairs is not None
    root_t = sqrt(t_n)
    rows = max(1, _BLOCK_CELLS // (max(s1.n, s2.n) + 1))
    stats = np.empty((sum(len(members) for _, _, members in plan), bootstrap))
    local = threading.local()  # one BlockWorkspace per worker thread

    def block(lo: int) -> None:
        if not hasattr(local, "work"):
            local.work = BlockWorkspace()
        hi = min(lo + rows, bootstrap)
        draw = bootstrap_block(s1.n, s2.n, shared, [rng(b) for b in range(lo, hi)])
        for direction, phi, members in plan:
            if shared:
                phi_star = bootstrap_diff_block_paired(pairs, draw, m, direction, grid, local.work)
            else:
                phi_star = bootstrap_diff_block(s1, s2, draw, m, direction, grid, local.work)
            h = root_t * (phi_star - phi)
            for i, kind, cs in members:
                stats[i, lo:hi] = derivative(kind, h, cs, grid)

    starts = range(0, bootstrap, rows)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(block, starts))
    else:
        for lo in starts:
            block(lo)
    return stats


def _test_cells(s1, s2, pairs, m, xi, fgrid, vgrid, cells, rng, bootstrap, threads=1):
    """The test's statistics for several cells (direction, kind, tau) of one data set.

    phi-hat and sigma-hat are evaluated once per direction, the observed
    statistic once per (direction, kind), the contact set once per
    (direction, tau), and one set of bootstrap draws, replication b from
    ``rng(b)``, serves every cell.  Returns each cell's observed statistic,
    its bootstrap statistics (a row of a (cells, bootstrap) array) and its
    contact set.
    """
    t_n = effective_size(s1.n, s2.n)
    kernel = CovKernel.matched(pairs) if pairs is not None else CovKernel.independent(s1, s2)
    directions = []
    for direction, _, _ in cells:
        if direction not in directions:
            directions.append(direction)
    statistics, contact_sets, plan = [0.0] * len(cells), [None] * len(cells), []
    for direction in directions:
        phi = eval_on_grid(DifferenceCurve(LambdaCurve(s1, m, direction),
                                           LambdaCurve(s2, m, direction)), fgrid)
        vhat = sigma_curve(kernel, m, direction, vgrid, fgrid, xi).vhat
        observed, contact, members = {}, {}, []
        for i, (d, kind, tau) in enumerate(cells):
            if d is not direction:
                continue
            statistic = observed.get(kind)
            if statistic is None:
                statistic = observed[kind] = sqrt(t_n) * functional(kind, phi, fgrid)
            if tau not in contact:
                contact[tau] = estimate_contact_set(phi, vhat, t_n, tau, fgrid)
            statistics[i], contact_sets[i] = statistic, contact[tau]
            members.append((i, kind, contact[tau]))
        plan.append((direction, phi, members))
    boot = _bootstrap_stats(s1, s2, pairs, m, fgrid, t_n, plan, rng, bootstrap, threads)
    return statistics, boot, contact_sets


def run_test(sample1, sample2, config: TestConfig) -> TestResult:
    """Run the full bootstrap dominance test.

    Null hypothesis: the distribution behind ``sample1`` dominates the one
    behind ``sample2`` at degree ``config.m`` in ``config.direction``.
    For matched pairs pass a :class:`PairedSample` as ``sample1`` and
    ``None`` as ``sample2``; the columns play the roles (left = sample 1).
    """
    start = time.perf_counter()
    s1, s2, pairs = _resolve_layout(sample1, sample2, config.scheme)
    [statistic], [stats], [cs] = _test_cells(
        s1, s2, pairs, config.m, config.xi, Grid.uniform(config.grid),
        Grid.uniform(config.vgrid), [(config.direction, config.kind, config.tau)],
        partial(substream, config.seed, _BOOT_TAG), config.bootstrap, config.threads)
    chat = _critical(stats, config)

    elapsed_ms = (time.perf_counter() - start) * 1e3
    return TestResult(
        statistic=statistic,
        critical_value=chat,
        p_value=p_value(stats, statistic),
        reject=bool(statistic > chat),
        contact_fraction=cs.fraction,
        t_n=effective_size(s1.n, s2.n),
        grid=config.grid,
        vgrid=config.vgrid,
        bootstrap=config.bootstrap,
        elapsed_ms=elapsed_ms,
    )


class Relation(Enum):
    """Strict-dominance conclusion for an ordered pair of datasets."""

    LESS = "<"
    GREATER = ">"
    NONE = ""


@dataclass(frozen=True)
class PairDecision:
    """Both test outcomes for one unordered pair {a, b}."""

    a: str
    b: str
    reject_a_dominates: bool
    reject_b_dominates: bool
    p_a_dominates: float
    p_b_dominates: float

    @property
    def relation(self) -> Relation:
        if self.reject_a_dominates and not self.reject_b_dominates:
            return Relation.LESS
        if self.reject_b_dominates and not self.reject_a_dominates:
            return Relation.GREATER
        return Relation.NONE


@dataclass(frozen=True)
class RankingMatrix:
    """Antisymmetric strict-dominance relations among named datasets.

    Non-rejection is only ever absence of evidence: a blank cell means "no
    strict ranking found", never "equivalence confirmed".
    """

    labels: tuple
    decisions: tuple

    def relation(self, a: str, b: str) -> Relation:
        ia, ib = self.labels.index(a), self.labels.index(b)
        if ia == ib:
            return Relation.NONE
        flip = ia > ib
        if flip:
            ia, ib = ib, ia
        for d in self.decisions:
            if d.a == self.labels[ia] and d.b == self.labels[ib]:
                rel = d.relation
                break
        else:  # pragma: no cover - construction guarantees presence
            raise KeyError((a, b))
        if not flip:
            return rel
        if rel is Relation.LESS:
            return Relation.GREATER
        if rel is Relation.GREATER:
            return Relation.LESS
        return Relation.NONE

    def to_table(self) -> list:
        """Upper-triangle glyph rows in label order."""
        rows = []
        for i, a in enumerate(self.labels):
            row = []
            for j, b in enumerate(self.labels):
                row.append("" if j <= i else self.relation(a, b).value)
            rows.append(row)
        return rows


def pairwise_rank(datasets, config: TestConfig) -> RankingMatrix:
    """Rank named datasets by testing both dominance nulls for every pair.

    ``datasets`` is a sequence of (label, SortedSample).  For each pair
    {A, B} the nulls "A dominates B" and "B dominates A" are tested;
    rejecting exactly one yields a strict ranking.  Pairs run in order; each
    test gets its own derived seed and runs its bootstrap on
    ``config.threads`` threads.
    """
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ConfigError("ranking requires at least two datasets")
    if config.scheme is not Scheme.INDEPENDENT:
        raise ConfigError("ranking runs on independent samples only")
    labels = tuple(name for name, _ in datasets)
    if len(set(labels)) != len(labels):
        raise ConfigError("dataset labels must be unique")

    def decide(i: int, j: int) -> PairDecision:
        name_a, sample_a = datasets[i]
        name_b, sample_b = datasets[j]
        cfg_ab = replace(config, seed=derive_seed(config.seed, _RANK_TAG, i, j, 0))
        cfg_ba = replace(config, seed=derive_seed(config.seed, _RANK_TAG, i, j, 1))
        res_ab = run_test(sample_a, sample_b, cfg_ab)
        res_ba = run_test(sample_b, sample_a, cfg_ba)
        return PairDecision(
            a=name_a,
            b=name_b,
            reject_a_dominates=res_ab.reject,
            reject_b_dominates=res_ba.reject,
            p_a_dominates=res_ab.p_value,
            p_b_dominates=res_ba.p_value,
        )

    decisions = tuple(decide(i, j) for i in range(len(datasets))
                      for j in range(i + 1, len(datasets)))
    return RankingMatrix(labels=labels, decisions=decisions)
