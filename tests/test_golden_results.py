"""One digest per (direction, functional) of the package's results on a
small grid of tests, recorded from a known-good build: any change that moves
a single result bit fails here, and the digest that fails names the
direction and the functional of the cells it moved.  The data are built without vectorised transcendental
functions (scaled uniforms; simulated laws whose quantile powers are 1 and
-1; degrees whose powers are squares at most), so the bits do not hang on a
host's SIMD dispatch."""

import hashlib
import warnings

import numpy as np
import pytest

from isdtest import (
    Direction,
    DoubleParetoParams,
    FunctionalKind,
    SimMode,
    SimSpec,
    TestConfig,
    make_paired,
    make_sample,
    pairwise_rank,
    run_table,
    run_test,
)

UP, DOWN, SUP, INT = Direction.UP, Direction.DOWN, FunctionalKind.SUP, FunctionalKind.INT
DIGESTS = {
    (UP, SUP): "5e4f92b8efd5368574912856216f6cd6df998667bfcd42c68fb13d47ac083857",
    (UP, INT): "c31ef142419fea717ef0af84d308ebca8be93b4ba27ae2b508a5a4f3f99a436e",
    (DOWN, SUP): "b36c2b65c183e213ab173024962be661ca46dca372fef71fe1229aaaf4ddbfc1",
    (DOWN, INT): "559e105941b34e6b0073005f48d147bb42e3147030bc6cb66fb58ebff6deb88b",
}

SMALL = dict(bootstrap=19, grid=101, vgrid=11, seed=21)
CELLS = [(d, k) for d in Direction for k in FunctionalKind]


def _hex(*values):
    return " ".join(float(v).hex() for v in values)


def results_lines() -> list:
    """One ((direction, kind), line) per result: every TestResult field but
    the elapsed time, every ranking decision, every simulation cell."""
    rng = np.random.default_rng(2024)
    near = make_sample(8.0 * rng.random(60)), make_sample(8.0 * rng.random(80))
    apart = near[0], make_sample(3.0 + 16.0 * rng.random(70))
    x = 8.0 * rng.random(50)
    pairs = make_paired(x, 1.5 * x + rng.random(50))
    lines = []
    for m in (3, 4):
        for direction, kind in CELLS:
            for tau in (1.0, 3.0, float("inf")):
                cfg = TestConfig(m=m, direction=direction, kind=kind, tau=tau, **SMALL)
                runs = [*near, *apart, *apart[::-1]]
                for a, b in zip(runs[::2], runs[1::2]):
                    r = run_test(a, b, cfg)
                    lines.append(((direction, kind), _hex(r.statistic, r.critical_value, r.p_value,
                                                  r.reject, r.contact_fraction, r.t_n)))
            matched = TestConfig(m=m, direction=direction, kind=kind, scheme="matched", **SMALL)
            r = run_test(pairs, None, matched)
            lines.append(((direction, kind), _hex(r.statistic, r.critical_value, r.p_value, r.reject,
                                          r.contact_fraction, r.t_n)))
    datasets = [("a", near[0]), ("b", near[1]), ("c", apart[1])]
    for direction, kind in CELLS:
        ranking = pairwise_rank(datasets, TestConfig(direction=direction, kind=kind, **SMALL))
        lines += [((direction, kind), f"{d.a} {d.b} {d.reject_a_dominates} {d.reject_b_dominates} "
                   + _hex(d.p_a_dominates, d.p_b_dominates)) for d in ranking.decisions]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # alpha = 1: infinite mean
        laws = DoubleParetoParams(1.0, 1.0), DoubleParetoParams(1.0, 1.0, 2.0)
    for mode, reps in ((SimMode.WARPSPEED, 24), (SimMode.FULL, 4)):
        specs = [SimSpec(laws[0], law, 60, 70,
                         TestConfig(direction=direction, kind=kind, tau=tau, **SMALL), reps, mode)
                 for law in laws for direction, kind in CELLS for tau in (1.0, float("inf"))]
        lines += [((spec.config.direction, spec.config.kind), f"{r.rejections} "
                   + _hex(r.rejection_rate, r.critical_value))
                  for spec, r in zip(specs, run_table(specs))]
    return lines


@pytest.fixture(scope="module")
def lines():
    return results_lines()


@pytest.mark.parametrize("cell", list(DIGESTS), ids=lambda c: f"{c[0].value}-{c[1].value}")
def test_results_digest(lines, cell):
    text = "\n".join(line for c, line in lines if c == cell)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[cell]
