"""One digest of the package's results on a small grid of tests, recorded
from a known-good build: any change that moves a single result bit fails
here.  The data are built without vectorised transcendental functions
(scaled uniforms; simulated laws whose quantile powers are 1 and -1; degrees
whose powers are squares at most), so the bits do not hang on a host's
SIMD dispatch."""

import hashlib
import warnings

import numpy as np

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

DIGEST = "0b640cd7ba5052548d7d8b10653966647fa44450f3acf42d730b61427730e1ba"

SMALL = dict(bootstrap=19, grid=101, vgrid=11, seed=21)
CELLS = [(d, k) for d in Direction for k in FunctionalKind]


def _hex(*values):
    return " ".join(float(v).hex() for v in values)


def results_lines() -> list:
    """One line per result: every TestResult field but the elapsed time,
    every ranking decision, every simulation cell."""
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
                    lines.append(_hex(r.statistic, r.critical_value, r.p_value, r.reject,
                                      r.contact_fraction, r.t_n))
            matched = TestConfig(m=m, direction=direction, kind=kind, scheme="matched", **SMALL)
            r = run_test(pairs, None, matched)
            lines.append(_hex(r.statistic, r.critical_value, r.p_value, r.reject,
                              r.contact_fraction, r.t_n))
    datasets = [("a", near[0]), ("b", near[1]), ("c", apart[1])]
    for direction, kind in CELLS:
        ranking = pairwise_rank(datasets, TestConfig(direction=direction, kind=kind, **SMALL))
        lines += [f"{d.a} {d.b} {d.reject_a_dominates} {d.reject_b_dominates} "
                  + _hex(d.p_a_dominates, d.p_b_dominates) for d in ranking.decisions]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # alpha = 1: infinite mean
        laws = DoubleParetoParams(1.0, 1.0), DoubleParetoParams(1.0, 1.0, 2.0)
    for mode, reps in ((SimMode.WARPSPEED, 24), (SimMode.FULL, 4)):
        specs = [SimSpec(laws[0], law, 60, 70,
                         TestConfig(direction=direction, kind=kind, tau=tau, **SMALL), reps, mode)
                 for law in laws for direction, kind in CELLS for tau in (1.0, float("inf"))]
        lines += [f"{r.rejections} " + _hex(r.rejection_rate, r.critical_value)
                  for r in run_table(specs)]
    return lines


def test_results_digest():
    text = "\n".join(results_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
