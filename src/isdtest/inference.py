"""End-to-end dominance test and the pairwise distribution-ranking protocol.

``run_test(sample1, sample2, config)`` tests the null hypothesis that the
first sample's distribution dominates the second's, at the configured
degree and direction.  Large positive values of the difference curve
(second minus first) are evidence against that null, so rejecting means
"sample 1 does not dominate sample 2" -- never that sample 2 dominates.
This orientation is the single most error-prone convention of the tool.

The test's recipe is written once, in a private core that takes a list of
sample slots, a list of cells (ordered pair (a, b), direction, functional,
contact-set bandwidth) and the keys of the bootstrap streams, with a map
from each sample slot to its stream.  Each slot holds a stack of D
datasets of one size, and dataset d of every slot is one test problem,
computed row by row exactly as if it were alone.  Each test, an ordered
pair in one direction, evaluates phi-hat and sigma-hat once and the
contact set once per bandwidth, exactly as a two-sample test of that pair
would; each sample's own variance is computed once per direction and
mixed per pair.  A block of replications draws every sample once and
evaluates it once per direction; each test's bootstrap curves are row
differences of those.  ``run_test`` is the one-cell call on two samples
(D = 1), whose weights both come from one stream keyed by (seed, b).
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
:class:`~isdtest.errors.DataError`; the check runs once per core call.
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
    """``value`` as a float; a bool, a string or None is rejected."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


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
        return sample1.left_sample(), sample1.right_sample(), sample1
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
    """The index structure of a list of cells (a, b, direction, kind, tau).

    A cell tests the null that sample a dominates sample b.  Returns the
    cell count and, per direction, each ordered pair (a, b) with its cells
    grouped by kind, then by bandwidth: ``{kind: {tau: [cell, ...]}}``.  It
    depends on the cells only, so a caller that tests many data sets with
    one list of cells builds it once.
    """
    directions: dict = {}
    for i, (a, b, direction, kind, tau) in enumerate(cells):
        tests = directions.setdefault(direction, {})
        tests.setdefault((a, b), {}).setdefault(kind, {}).setdefault(tau, []).append(i)
    return len(cells), [(direction, [(a, b, kinds) for (a, b), kinds in tests.items()])
                        for direction, tests in directions.items()]


def _block_replications(width: int, depth: int) -> int:
    """Replications per bootstrap block for rows of ``width`` cells, ``depth``
    rows per replication.

    A block's rows, depth per replication, fill the cell budget rounded down
    to an even count, two at least, so that :func:`eval_block` runs them
    as whole pairs of lanes.
    """
    step = 2 if depth % 2 else 1
    return max(step, _BLOCK_CELLS // width // depth // step * step)


def _bootstrap_stats(samples, pairs, m, grid, plan, keys, streams, work=None) -> np.ndarray:
    """Bootstrap statistics of every cell, shape (cells, D, replications).

    ``plan`` lists each direction with its tests (a, b, phi-hat,
    sqrt(T_n), cells by kind and bandwidth as :func:`_plan` groups them,
    contact set by bandwidth).  ``keys`` holds the Philox keys of
    the bootstrap streams, shape (replications, D, streams, 2): replication
    b of dataset d draws sample k's weights from the stream of
    ``keys[b, d, streams[k]]``, from its start, the samples of one stream
    in slot order (matched pairs: one draw from the first slot's stream,
    routed through each column's sort order).  One generator, re-keyed
    for every row and stream, draws them all.  A block holds whole
    replications, row (b, d) for every dataset d of the stack, and draws
    and evaluates every sample once per direction: :func:`eval_block`
    takes each slot's stack as it is, and its row (b, d) reweights
    dataset d.  Each test's curves are row differences of those.

    Each statistic reads its curves only on its contact set, so every
    sample is evaluated, per direction, only at the union of the contact
    sets of that direction's tests (all datasets, all bandwidths), and the
    differences, their centring and scaling and the derivatives run on
    those columns: every statistic keeps its bits, and the cost follows
    how far the contact sets reach along p from the direction's own end,
    p = 0 upward and p = 1 downward, where the curves' sums start.  A test
    near its null, whose contact set spans the grid, costs what a
    whole-grid evaluation does.  Each test passes all the contact sets that
    one kind reads, every bandwidth's, to one :func:`derivative` call per
    block, so the integrals of every bandwidth, dataset and row are one
    reduction; a call holds as many bandwidths as keep its lanes, rows
    times columns per bandwidth, within the block budget, and one at
    least.  The curves' temporaries, the differences and the derivatives'
    scratch arrays come from ``work``, or from a workspace of the call's
    own when none is given.
    """
    cells, directions = plan
    replications, depth = keys.shape[:2]
    per_block = _block_replications(max(max(s.n for s in samples), len(grid)) + 1, depth)
    stats = np.empty((cells, depth, replications))
    work = work if work is not None else BlockWorkspace()
    sizes = [s.n for s in samples] if pairs is None else [pairs.n]
    draws: dict = {}  # stream -> the slots it draws, in slot order
    for k, stream in enumerate(streams[:len(sizes)]):
        draws.setdefault(stream, []).append(k)
    read = []  # per direction: its columns, and its tests on those columns
    for direction, tests in directions:
        masks = [mask for *_, contact in tests for mask in contact.values()]
        union = np.vstack(masks).any(axis=0)
        columns = None if union.all() else np.flatnonzero(union)  # None: the whole grid
        at = slice(None) if columns is None else columns
        # Per test and kind: the contact sets it reads stacked, shape (T, D,
        # C), and the cells that read each.
        read.append((direction, columns, [
            (a, b, phi[..., at], root_t,
             [(kind, np.stack([contact[tau][:, at] for tau in bands]),
               list(bands.values())) for kind, bands in kinds.items()])
            for a, b, phi, root_t, kinds, contact in tests]))
    gen = np.random.Generator(np.random.Philox(key=0))
    for lo in range(0, replications, per_block):
        hi = min(lo + per_block, replications)
        block = keys[lo:hi].reshape(-1, *keys.shape[2:]).tolist()
        weights = [work.array(f"weights{k}", (len(block), n), np.int64)
                   for k, n in enumerate(sizes)]
        for row, row_keys in enumerate(block):
            for stream, slots in draws.items():
                bootstrap._restart(gen, row_keys[stream])
                for k in slots:
                    weights[k][row] = bootstrap.draw_weights(sizes[k], gen)
        if pairs is not None:
            # Sort orders are permutations: "clip" gathers without numpy's
            # buffer of ``out``, which its default mode always takes.
            w = weights[0]
            weights = [np.take(w, order, axis=1, out=work.array(name, w.shape, w.dtype),
                               mode="clip")
                       for name, order in (("left", pairs.left_order()),
                                           ("right", pairs.right_order()))]
        for direction, columns, tests in read:
            # Row (b, d) reweights dataset d of each slot's stack.
            curves = [eval_block(s, w, m, direction, grid, work, columns)
                      for s, w in zip(samples, weights)]
            for a, b, phi, root_t, kinds in tests:
                # In the workspace: a fresh difference per test and block
                # fragments the heap and raises peak memory.
                h = np.subtract(curves[b], curves[a],
                                out=work.array("difference", curves[a].shape))
                stacked = h.reshape(hi - lo, depth, -1)
                stacked -= phi
                stacked *= root_t
                step = max(1, _BLOCK_CELLS // h.size)  # bandwidths per call
                for kind, sets, cells in kinds:
                    for j in range(0, len(sets), step):
                        values = derivative(kind, h, sets[j:j + step], grid, columns, work)
                        for band, band_cells in zip(values.reshape(-1, hi - lo, depth),
                                                    cells[j:j + step]):
                            for i in band_cells:
                                stats[i, :, lo:hi] = band.T
    return stats


def _test_cells(samples, pairs, m, xi, fgrid, vgrid, plan, keys, streams, work=None):
    """The test's statistics for every cell of a :func:`_plan` over ``samples``.

    Sample slot k is a :class:`SortedSample` holding a stack of D datasets
    of one size, values of shape (D, n_k); dataset d of every slot makes up
    one test problem, computed row by row exactly as if it were alone.
    Each test (ordered pair, direction) gets its phi-hat, sigma-hat,
    observed statistic per kind and contact set per bandwidth exactly as a
    two-sample test of its pair would; each sample's own variance is
    computed once per direction and mixed per pair.  One set of bootstrap
    draws, replication b of dataset d from the streams keyed by
    ``keys[b, d]`` (see :func:`_bootstrap_stats`), serves every cell;
    there are ``len(keys)`` replications.  ``pairs`` is the
    :class:`PairedSample` whose columns are ``samples`` under the matched
    scheme (then D = 1), else None.  Returns each cell's observed
    statistics (cells, D), its bootstrap statistics (cells, D,
    replications) and its contact-set mask (one row per dataset).
    ``work`` is the bootstrap's :class:`BlockWorkspace`; a caller that makes
    many calls of one shape lends them one, so that its buffers are not
    allocated and faulted in again in every call.
    A non-finite phi-hat, sigma-hat or statistic raises DataError; the
    guard runs once per call, whatever D.
    """
    cells, directions = plan
    statistics, contact_sets = [None] * cells, [None] * cells
    tests_by_direction, kernels, variances = [], {}, {}
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, checked here
        for direction, tests in directions:
            curves = [eval_on_grid(LambdaCurve(s, m, direction), fgrid) for s in samples]
            evaluated = []
            for a, b, kinds in tests:
                t_n = effective_size(samples[a].n, samples[b].n)
                kernel = kernels.get((a, b))
                if kernel is None:
                    kernel = kernels[a, b] = (
                        CovKernel.matched(pairs) if pairs is not None else
                        CovKernel(Scheme.INDEPENDENT, samples[a], samples[b], memo=variances))
                phi = curves[b] - curves[a]
                # Matched pairs give one row of sigma-hat, independent stacks D rows.
                vhat = np.atleast_2d(sigma_curve(kernel, m, direction, vgrid, fgrid, xi))
                observed = {kind: sqrt(t_n) * functional(kind, phi, fgrid) for kind in kinds}
                _finite(phi, "curve difference")
                _finite(vhat, "standard deviation")
                _finite(list(observed.values()), "test statistic")
                contact = {tau: estimate_contact_set(phi, vhat, t_n, tau)
                           for tau in {tau for bands in kinds.values() for tau in bands}}
                for kind, bands in kinds.items():
                    for tau, indices in bands.items():
                        for i in indices:
                            statistics[i], contact_sets[i] = observed[kind], contact[tau]
                evaluated.append((a, b, phi, sqrt(t_n), kinds, contact))
            tests_by_direction.append((direction, evaluated))
        boot = _bootstrap_stats(samples, pairs, m, fgrid, (cells, tests_by_direction), keys,
                                streams, work)
    _finite(boot, "bootstrap statistic")
    return np.array(statistics), boot, contact_sets


def _test_keys(seed, replications: int) -> np.ndarray:
    """``run_test``'s stream keys, shape (replications, D, 1, 2): replication
    b draws both samples' weights, the first sample's then the second's
    (stream map (0, 0)), from one stream keyed by (seed, b).  ``seed`` is an
    int (D = 1) or a uint64 array of D seeds."""
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
    s1, s2, pairs = _resolve_layout(sample1, sample2, config.scheme)
    [[statistic]], [[stats]], [contact] = _test_cells(
        [SortedSample(s1.values[None]), SortedSample(s2.values[None])], pairs, config.m,
        config.xi, Grid.uniform(config.grid), Grid.uniform(config.vgrid),
        _plan([(0, 1, config.direction, config.kind, config.tau)]),
        _test_keys(config.seed, config.bootstrap), (0, 0))
    statistic = float(statistic)
    chat = _critical(stats, config)

    elapsed_ms = (time.perf_counter() - start) * 1e3
    return TestResult(
        statistic=statistic,
        critical_value=chat,
        p_value=p_value(stats, statistic),
        reject=bool(statistic > chat),
        contact_fraction=np.count_nonzero(contact[0]) / config.grid,
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
        keys[:, None], range(k))
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
