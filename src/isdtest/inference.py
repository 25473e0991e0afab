"""End-to-end dominance test and the pairwise distribution-ranking protocol.

``run_test(sample1, sample2, config)`` tests the null hypothesis that the
first sample's distribution dominates the second's, at the configured
degree and direction.  Large positive values of the difference curve
(second minus first) are evidence against that null, so rejecting means
"sample 1 does not dominate sample 2" -- never that sample 2 dominates.
This orientation is the single most error-prone convention of the tool.

The test's recipe is written once, in a private core that takes a list of
sample slots, a list of cells (ordered pair (a, b), direction, functional,
contact-set bandwidth) and the keys of the bootstrap streams: one stream
per replication, which every slot draws from in slot order, or one per
slot.  Each slot holds a stack of D datasets of one size, and dataset d
of every slot is one test problem, computed row by row exactly as if it
were alone.  A direction's cells are places in one grid, tests (ordered
pairs) x kinds x bandwidths.  Each test evaluates phi-hat and sigma-hat
once and the contact set once per bandwidth, exactly as a two-sample test
of that pair would; each sample's own variance is computed once per
direction and mixed per pair.  A block of replications draws every sample
once and evaluates it once per direction; each test's bootstrap curves
are row differences of those.  ``run_test`` is the one-cell call on two
samples (D = 1), whose weights both come from one stream keyed by (seed, b).
``pairwise_rank`` is one call over all its datasets (D = 1) with both
nulls of every pair; dataset k draws from a stream keyed by (seed, k, b),
so the tests of one ranking share each dataset's draws.  Both modes of the
simulation harness (:mod:`isdtest.montecarlo`) run their cells through the
core too, once per chunk of replications, their datasets stacked.  Every
key of a call is derived in one vectorised pass before the first block,
and one generator, re-keyed in place for every row, draws every stream;
the streams, and so the results, are bit for bit those of one generator
built per replication.

The B bootstrap replications run in fixed blocks of R rows, R set by the
larger of the largest sample size n and the grid size G under a fixed cell
budget (R * (max(n, G) + 1) <= 2**16), rounded down to an even count, two
at least, so a block's weights and curves stay cache-sized and
:func:`~isdtest.curves.eval_block` fills both lanes of each pair of rows.
The blocks run in the calling thread, one after another, reusing one set
of temporaries.  A block evaluates each direction's curves only at the
union of that direction's contact sets, where the statistics read them, so
the bootstrap's cost follows the contact sets' extent in both directions:
upward prefix sums and downward suffix sums (from p = 1) bin and sum only
up to the last level the union reads, and a test near its null (full
contact) costs a whole-grid evaluation.
Each replication's statistic depends only on its own weights, bit for bit,
so the statistics are a pure function of (data, config, seed), whatever
the block size or the number of stacked datasets.  A phi-hat, sigma-hat or
statistic that is not finite (data at the ends of the double range) raises
:class:`~isdtest.errors.DataError`, checked once per test, and for the
bootstrap statistics once per core call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import sqrt
from numbers import Real

import numpy as np

from . import bootstrap
from .bootstrap import _generate_state, critical_value, p_value
from .curves import (
    MAX_DEGREE,
    BlockWorkspace,
    Direction,
    Grid,
    LambdaCurve,
    eval_block,
    eval_on_grid,
)
from .empirical import PairedSample, SortedSample
from .errors import ConfigError, DataError
from .functionals import FunctionalKind, derivative, estimate_contact_set, functional
from .variance import CovKernel, effective_size, sigma_curve

__all__ = [
    "Scheme",
    "TestConfig",
    "TestResult",
    "Relation",
    "RankingMatrix",
    "run_test",
    "pairwise_rank",
]

_BOOT_TAG = 0xB0
_RANK_TAG = 0x7A
# Cells of one bootstrap block; a block of R rows for samples of up to n
# observations on a grid of G points keeps R * (max(n, G) + 1) within it
# (R even and two at least: see _block_replications).
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
    """``value`` as a float; a bool, a string, None or an overflowing int is rejected."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} overflows double precision") from None


class Scheme(Enum):
    """Sampling scheme: two independent samples, or i.i.d. matched pairs."""

    INDEPENDENT = "independent"
    MATCHED = "matched"


@dataclass(frozen=True)
class TestConfig:
    """All tuning knobs of the test.

    Defaults follow the recommended practice for sample sizes up to a few
    thousand: tau = 3 for the contact-set band, trimming floor xi = 0.001,
    nominal level alpha = 0.05, no critical-value floor (eta = 0).  The
    bootstrap runs on one thread; ``threads`` accepts only 1.
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
        if self.threads != 1:
            raise ConfigError(f"the bootstrap runs on one thread: threads must be 1, "
                              f"got {self.threads!r}")


@dataclass(frozen=True)
class TestResult:
    """The test's verdict, with its contact fraction, effective size and wall time."""

    __test__ = False  # keep pytest from collecting the Test* name

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    contact_fraction: float
    t_n: float
    elapsed_ms: float


def _resolve_layout(sample1, sample2, scheme: Scheme):
    if scheme is Scheme.MATCHED:
        if not isinstance(sample1, PairedSample) or sample2 is not None:
            raise ConfigError("matched scheme requires a PairedSample as sample1 (and sample2=None)")
        return (sample1.left_sample(), sample1.right_sample(),
                (sample1.left_order(), sample1.right_order()))
    if not isinstance(sample1, SortedSample) or not isinstance(sample2, SortedSample):
        raise ConfigError("independent scheme requires two SortedSample inputs")
    if np.ndim(sample1.values) != 1 or np.ndim(sample2.values) != 1:
        raise ConfigError("each argument must be one sample, with values of shape (n,)")
    return sample1, sample2, None


def _critical(stats, config: TestConfig) -> float:
    """The bootstrap critical value at ``config.alpha``, floored at ``config.eta``."""
    chat = critical_value(stats, config.alpha)
    return max(chat, config.eta) if config.eta > 0 else chat


def _finite(values, what: str) -> None:
    """A DataError unless every value is finite: data near the top of the
    double range overflow the variance, the curves or the statistics, and
    that must not reach a decision."""
    if not np.isfinite(values).all():
        raise DataError(f"the {what} overflows double precision: "
                        "the data are too large in magnitude")


def _plan(cells) -> tuple:
    """The grids of a list of cells (a, b, direction, kind, tau), one per
    direction, and each cell's place ``(d, t, i, u)`` in them.

    A cell tests the null that sample a dominates sample b.  Direction d
    is ``(direction, tests, kinds, taus)``, its ordered pairs (a, b), kinds
    and bandwidths, each once, in order of first appearance, and every test
    is measured at every kind and bandwidth of its direction.  Each
    bandwidth's statistic is independent of the others, bit for bit, so a
    place that no cell reads changes no result.  It depends on the cells
    only: a caller that tests many data sets with one list of cells builds
    it once.
    """
    directions: dict = {}
    places = []
    for a, b, direction, kind, tau in cells:
        d, *axes = directions.setdefault(direction, (len(directions), {}, {}, {}))
        places.append((d, *(axis.setdefault(value, len(axis))
                            for axis, value in zip(axes, ((a, b), kind, tau)))))
    return [(direction, *map(list, axes)) for direction, (_, *axes) in directions.items()], places


def _block_replications(width: int, depth: int) -> int:
    """Replications per bootstrap block for rows of ``width`` cells, ``depth``
    rows per replication.

    A block's rows, depth per replication, fill the cell budget rounded down
    to an even count, two at least, so that :func:`eval_block` runs them
    as whole pairs of lanes.
    """
    step = 2 if depth % 2 else 1
    return max(step, _BLOCK_CELLS // width // depth // step * step)


def _bootstrap_stats(samples, orders, m, grid, plan, keys, work=None) -> list:
    """Bootstrap statistics of every place of each direction's grid, one
    array (tests, kinds, T, D, replications) per direction.

    ``plan`` is, per direction, ``(direction, columns, kinds, tests)``: the
    grid indices where its curves are evaluated, strictly increasing (None:
    the whole grid), its kinds, and each test ``(a, b, phi, root_t,
    contact)`` on those columns: phi-hat (D, C), sqrt(T_n) and the contact
    sets, a boolean stack (T, D, C), a mask per bandwidth.  ``keys`` holds
    the Philox keys of the bootstrap streams, shape (replications, D, S, 2):
    replication b of dataset d draws every sample's weights, in slot order,
    from the start of the stream of ``keys[b, d, 0]`` when S = 1, and
    sample k's from that of ``keys[b, d, k]`` otherwise.  Matched pairs
    (``orders``, the columns' sort orders, else None) draw once and route
    the draw through each column's sort order.  One
    :func:`~isdtest.bootstrap.draw_block` call per block draws them all into
    ``work``, from one generator re-keyed for every row and stream.  A block
    holds whole replications, row (b, d) for every dataset d of the stack,
    and draws and evaluates every sample once per direction:
    :func:`eval_block` takes each slot's stack as it is, and its row (b, d)
    reweights dataset d.  Each test's curves are row differences of those.

    The columns are the union of the direction's contact sets, where its
    statistics read the curves, and the differences, their centring and
    scaling and the derivatives run on them: every statistic keeps its
    bits, and the cost follows how far the contact sets reach along p from
    the direction's own end, p = 0 upward and p = 1 downward, where the
    curves' sums start.  A test near its null, whose contact set spans the
    grid, costs what a whole-grid evaluation does.  Each kind of a test
    measures every bandwidth's contact set in one :func:`derivative` call
    per block, so the integrals of every bandwidth, dataset and row are one
    reduction; a call holds as many bandwidths as keep its lanes, rows
    times columns per bandwidth, within the block budget, and one at
    least, and fills its own slice.  The curves' temporaries, the
    differences and the derivatives' scratch arrays come from ``work``, or
    from a workspace of the call's own when none is given.
    """
    replications, depth = keys.shape[:2]
    per_block = _block_replications(max(max(s.n for s in samples), len(grid)) + 1, depth)
    stats = [np.empty((len(tests), len(kinds), len(tests[0][-1]), depth, replications))
             for _, _, kinds, tests in plan]
    work = work if work is not None else BlockWorkspace()
    sizes = [s.n for s in samples] if orders is None else [samples[0].n]
    gen = np.random.Generator(np.random.Philox(key=0))
    for lo in range(0, replications, per_block):
        hi = min(lo + per_block, replications)
        weights = bootstrap.draw_block(keys[lo:hi].reshape(-1, *keys.shape[2:]).tolist(), sizes,
                                       gen, work)
        if orders is not None:
            # Sort orders are permutations: "clip" gathers without numpy's
            # buffer of ``out``, which its default mode always takes.
            w = weights[0]
            weights = [np.take(w, order, axis=1, out=work.array(name, w.shape, w.dtype),
                               mode="clip")
                       for name, order in zip(("left", "right"), orders)]
        for (direction, columns, kinds, tests), direction_stats in zip(plan, stats):
            # Row (b, d) reweights dataset d of each slot's stack.
            curves = [eval_block(s, w, m, direction, grid, work, columns)
                      for s, w in zip(samples, weights)]
            for (a, b, phi, root_t, contact), test_stats in zip(tests, direction_stats):
                # In the workspace: a fresh difference per test and block
                # fragments the heap and raises peak memory.
                h = np.subtract(curves[b], curves[a],
                                out=work.array("difference", curves[a].shape))
                stacked = h.reshape(hi - lo, depth, -1)
                stacked -= phi
                stacked *= root_t
                step = max(1, _BLOCK_CELLS // h.size)  # bandwidths per call
                for kind, into in zip(kinds, test_stats):
                    for j in range(0, len(contact), step):
                        values = derivative(kind, h, contact[j:j + step], grid, columns, work)
                        # Rows (b, d) of each bandwidth, stored as (d, b).
                        into[j:j + step, :, lo:hi] = np.swapaxes(
                            values.reshape(-1, hi - lo, depth), 1, 2)
    return stats


def _test_cells(samples, orders, m, xi, fgrid, vgrid, plan, keys, work=None):
    """The test's statistics for every cell of a :func:`_plan` over ``samples``.

    Sample slot k is a :class:`SortedSample` holding a stack of D datasets
    of one size, values of shape (D, n_k); dataset d of every slot makes up
    one test problem, computed row by row exactly as if it were alone.
    Each test (ordered pair, direction) gets its phi-hat, sigma-hat (D,
    F), observed statistic per kind and contact set per bandwidth exactly
    as a two-sample test of its pair would; a direction keeps them as one
    array (tests, kinds, D) and one stack (tests, T, D, F).  Each test's
    kernel is built from its own slots, matched pairs with the columns'
    sort orders (``orders``, ``(left_order, right_order)`` when ``samples``
    are the two columns of matched pairs, then D = 1, else None).  Once a
    direction's contact sets exist, their union fixes the columns where
    the bootstrap evaluates that direction's curves, and each test's
    phi-hat and contact sets are cut to those columns: the whole-grid
    phi-hat is not held through the bootstrap.  One set of bootstrap
    draws (``keys``, see :func:`_bootstrap_stats`) serves every cell.
    Returns what each cell reads at its place: its observed statistics
    (cells, D), its bootstrap statistics (cells, D, replications) and its
    contact-set mask (one row per dataset).  ``work`` is the bootstrap's
    :class:`BlockWorkspace`; a caller that makes many calls of one shape
    lends them one, so that its buffers are not allocated and faulted in
    again in every call.  A non-finite phi-hat, sigma-hat or observed
    statistic raises DataError, checked once per test, and so does a
    non-finite bootstrap statistic, checked once per call.  The observed
    curves are freed once the differences exist, before the variance, and
    sigma-hat and the whole-grid phi-hat once phi-hat is cut, before the
    bootstrap.
    """
    directions, places = plan
    observed, contacts, read, variances = [], [], [], {}
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, checked here
        for direction, tests, kinds, taus in directions:
            curves = [eval_on_grid(LambdaCurve(s, m, direction), fgrid) for s in samples]
            # The curves are read once the differences exist: freed before
            # the variance.
            phis = [curves[b] - curves[a] for a, b in tests]
            del curves
            statistics = np.empty((len(tests), len(kinds), *phis[0].shape[:-1]))
            contact = np.empty((len(tests), len(taus), *phis[0].shape), dtype=bool)
            for t, ((a, b), phi) in enumerate(zip(tests, phis)):
                t_n = effective_size(samples[a].n, samples[b].n)
                kernel = CovKernel(samples[a], samples[b], variances, orders)
                vhat = sigma_curve(kernel, m, direction, vgrid, fgrid, xi)
                statistics[t] = [sqrt(t_n) * functional(kind, phi, fgrid) for kind in kinds]
                _finite(phi, "curve difference")
                _finite(vhat, "standard deviation")
                _finite(statistics[t], "test statistic")
                contact[t] = [estimate_contact_set(phi, vhat, t_n, tau) for tau in taus]
            union = contact.any(axis=(0, 1, 2))
            columns = None if union.all() else np.flatnonzero(union)  # None: the whole grid
            at = slice(None) if columns is None else columns
            read.append((direction, columns, kinds, [
                (a, b, phi[..., at], sqrt(effective_size(samples[a].n, samples[b].n)),
                 mask[..., at]) for (a, b), phi, mask in zip(tests, phis, contact)]))
            del vhat, phi, phis  # read, and the whole-grid phi-hat: not held through the bootstrap
            observed.append(statistics)
            contacts.append(contact)
        boot = _bootstrap_stats(samples, orders, m, fgrid, read, keys, work)
    stats = np.array([boot[d][t, i, u] for d, t, i, u in places])
    _finite(stats, "bootstrap statistic")
    return (np.array([observed[d][t, i] for d, t, i, _ in places]), stats,
            [contacts[d][t, u] for d, t, _, u in places])


def _test_keys(seed, replications: int) -> np.ndarray:
    """``run_test``'s stream keys, shape (replications, D, 1, 2): replication
    b draws both samples' weights, the first sample's then the second's,
    from one stream keyed by (seed, b).  ``seed`` is an int (D = 1) or a
    uint64 array of D seeds."""
    keys = _generate_state(seed, (_BOOT_TAG, np.arange(replications)[:, None]), 2)
    return keys[:, :, None]


def run_test(sample1, sample2, config: TestConfig) -> TestResult:
    """Run the full bootstrap dominance test.

    Null hypothesis: the distribution behind ``sample1`` dominates the one
    behind ``sample2`` at degree ``config.m`` in ``config.direction``.
    For matched pairs pass a :class:`PairedSample` as ``sample1`` and
    ``None`` as ``sample2``; the columns play the roles (left = sample 1).
    """
    start = time.perf_counter()
    s1, s2, orders = _resolve_layout(sample1, sample2, config.scheme)
    [[statistic]], [[stats]], [contact] = _test_cells(
        [SortedSample(s1.values[None]), SortedSample(s2.values[None])], orders, config.m,
        config.xi, Grid.uniform(config.grid), Grid.uniform(config.vgrid),
        _plan([(0, 1, config.direction, config.kind, config.tau)]),
        _test_keys(config.seed, config.bootstrap))
    statistic = float(statistic)
    chat = _critical(stats, config)

    elapsed_ms = (time.perf_counter() - start) * 1e3
    return TestResult(
        statistic=statistic,
        critical_value=chat,
        p_value=p_value(stats, statistic),
        reject=bool(statistic > chat),
        contact_fraction=int(np.count_nonzero(contact[0])) / config.grid,
        t_n=effective_size(s1.n, s2.n),
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


_REVERSED = {Relation.LESS: Relation.GREATER, Relation.GREATER: Relation.LESS,
             Relation.NONE: Relation.NONE}


@dataclass(frozen=True)
class RankingMatrix:
    """Antisymmetric strict-dominance relations among named datasets.

    Non-rejection is only ever absence of evidence: a blank cell means "no
    strict ranking found", never "equivalence confirmed".
    """

    labels: tuple
    decisions: tuple

    def __post_init__(self):
        """Exactly one decision per unordered pair of distinct known labels,
        else a ConfigError."""
        known = set(self.labels)
        if len(known) != len(self.labels):
            raise ConfigError("dataset labels must be unique")
        seen = set()
        for d in self.decisions:
            for label in (d.a, d.b):
                if label not in known:
                    raise ConfigError(f"a decision names the unknown dataset label {label!r}")
            if d.a == d.b:
                raise ConfigError(f"a decision pairs {d.a!r} with itself")
            pair = frozenset((d.a, d.b))
            if pair in seen:
                raise ConfigError(f"more than one decision for the pair {d.a!r}, {d.b!r}")
            seen.add(pair)
        for i, a in enumerate(self.labels):
            for b in self.labels[i + 1:]:
                if frozenset((a, b)) not in seen:
                    raise ConfigError(f"no decision for the pair {a!r}, {b!r}")

    @cached_property
    def _by_pair(self) -> dict:
        return {(d.a, d.b): d for d in self.decisions}

    def relation(self, a: str, b: str) -> Relation:
        """The relation of a to b; an unknown label is a ConfigError."""
        for label in (a, b):
            if label not in self.labels:
                raise ConfigError(f"unknown dataset label {label!r}")
        if a == b:
            return Relation.NONE
        if (a, b) in self._by_pair:
            return self._by_pair[a, b].relation
        return _REVERSED[self._by_pair[b, a].relation]

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
    rejecting exactly one yields a strict ranking.  Each test computes its
    observed statistic and contact set as :func:`run_test` would.  The
    bootstrap draws are keyed by (seed, dataset index, replication):
    replication b of the k-th dataset is drawn once and serves every test
    that dataset enters, so its curves are evaluated once per replication,
    not once per test.
    """
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ConfigError("ranking requires at least two datasets")
    if config.scheme is not Scheme.INDEPENDENT:
        raise ConfigError("ranking runs on independent samples only")
    labels = tuple(name for name, _ in datasets)
    if len(set(labels)) != len(labels):
        raise ConfigError("dataset labels must be unique")
    samples = [sample for _, sample in datasets]
    if not all(isinstance(s, SortedSample) for s in samples):
        raise ConfigError("ranking requires SortedSample datasets")
    if any(np.ndim(s.values) != 1 for s in samples):
        raise ConfigError("each dataset must be one sample, with values of shape (n,)")

    k = len(samples)
    tested = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cell = (config.direction, config.kind, config.tau)
    # Replication b of dataset d draws from stream d of keys[b, 0], keyed by (seed, d, b).
    replication = np.arange(config.bootstrap)[:, None]
    keys = _generate_state(config.seed, (_RANK_TAG, np.arange(k), replication), 2)
    statistics, stats, _ = _test_cells(
        [SortedSample(s.values[None]) for s in samples], None, config.m, config.xi,
        Grid.uniform(config.grid), Grid.uniform(config.vgrid),
        _plan([(a, b, *cell) for i, j in tested for a, b in ((i, j), (j, i))]),
        keys[:, None])
    statistics, stats = statistics[:, 0], stats[:, 0]
    reject = [bool(statistic > _critical(row, config))
              for statistic, row in zip(statistics, stats)]
    p = [p_value(row, statistic) for statistic, row in zip(statistics, stats)]
    decisions = tuple(
        PairDecision(a=labels[i], b=labels[j],
                     reject_a_dominates=reject[2 * t], reject_b_dominates=reject[2 * t + 1],
                     p_a_dominates=p[2 * t], p_b_dominates=p[2 * t + 1])
        for t, (i, j) in enumerate(tested))
    return RankingMatrix(labels=labels, decisions=decisions)
