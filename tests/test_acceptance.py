"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy criteria split their replications across two worker processes; all
randomness is keyed substreams, so the results do not depend on the split.
"""

import json
import re
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import isdtest
from isdtest import (
    Direction,
    DoubleParetoParams,
    FunctionalKind,
    Relation,
    SimMode,
    SimSpec,
    TestConfig,
    dp_sample,
    make_sample,
    pairwise_rank,
    run_table,
    run_test,
)
from isdtest.bootstrap import derive_seed
from isdtest.cli import main
from isdtest.curves import Grid, LambdaCurve, eval_on_grid
from isdtest.dgp import dp_quantile

from conftest import (
    dp_cdf,
    dp_mean,
    dp_pdf,
    fine_kernel,
    independent_kernel,
    nested_sigma_oracle,
    quad_lambda_grids,
    save_csv,
    stacked,
    substream,
)

UP, DOWN = Direction.UP, Direction.DOWN
CURVE_COMBOS = ((2, UP), (3, UP), (4, UP), (3, DOWN), (4, DOWN))
MASTER = 20260810


def _finish(number, ok, detail, elapsed, budget):
    verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = (f"ACCEPTANCE {number}: {verdict} - {detail} "
            f"[{elapsed:.1f}s of {budget}s budget]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _curve_sample(index):
    rng = substream(MASTER, 1, index)
    n = int(rng.integers(2, 51))
    vals = dp_quantile(DoubleParetoParams(3.0, 2.0), rng.random(n))
    return np.sort(vals), np.arange(1, n + 1) / n


def _curve_oracle_chunk(indices):
    grid = Grid.uniform(101)
    worst = 0.0
    for i in indices:
        vals, cum = _curve_sample(i)
        sample = stacked(make_sample(vals))
        oracle = quad_lambda_grids(vals, cum, CURVE_COMBOS, grid.points)
        for (m, direction), want in zip(CURVE_COMBOS, oracle):
            got = eval_on_grid(LambdaCurve(sample, m, direction), grid)[0]
            err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12))
            worst = max(worst, float(err))
    return worst


def test_acceptance_1_curve_exactness():
    """200 random samples (n <= 50), m in {2,3,4}, both directions: the
    closed-form evaluator matches the adaptive-quadrature oracle of the
    repeated-integral definition at 101 grid points, rel err < 1e-9.
    (m = 2 downward is excluded by construction: it is rejected as
    degenerate, so both directions span five admissible combinations.)"""
    start = time.perf_counter()
    chunks = [range(0, 100), range(100, 200)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        worst = max(pool.map(_curve_oracle_chunk, chunks))
    elapsed = time.perf_counter() - start
    _finish(1, worst < 1e-9, f"worst relative error {worst:.2e} over 200 samples x 5 combos",
            elapsed, 30)


def test_acceptance_2_boundary_and_bridge():
    """Boundary values vanish bit-exactly and the degree-3 upward value at 1
    equals the downward value at 0 within 1e-12, over 100 random samples."""
    start = time.perf_counter()
    rng = substream(MASTER, 2)
    ends = Grid(np.array([0.0, 1.0]))
    ok = True
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 80))
        s = stacked(dp_sample(DoubleParetoParams(3.0, 2.0), n, rng))
        for m in (2, 3, 4):
            ok &= eval_on_grid(LambdaCurve(s, m, UP), ends)[0, 0] == 0.0
            if m >= 3:
                ok &= eval_on_grid(LambdaCurve(s, m, DOWN), ends)[0, 1] == 0.0
        up_end = eval_on_grid(LambdaCurve(s, 3, UP), ends)[0, 1]
        down_start = eval_on_grid(LambdaCurve(s, 3, DOWN), ends)[0, 0]
        gap = abs(up_end - down_start)
        worst_gap = max(worst_gap, gap)
        ok &= gap < 1e-12
    elapsed = time.perf_counter() - start
    _finish(2, ok, f"boundaries bit-exact, worst bridge gap {worst_gap:.2e}", elapsed, 5)


def test_acceptance_3_sigma_collapse():
    """The collapsed variance integral matches direct numerical integration
    of the raw nested definition on a 10x finer grid within 1e-3 relative
    at p in {0.25, 0.5, 0.75}, m in {3, 4}, both directions, 20 pairs.
    Sample sizes divide the fine-cell count so the nested oracle's midpoint
    sums carry no step-function discretization error of their own."""
    start = time.perf_counter()
    cells = 1200
    sizes = np.array([20, 24, 30, 40, 48, 50, 60, 75, 80, 100])
    rng = substream(MASTER, 3)
    mids = (np.arange(cells) + 0.5) / cells
    worst = 0.0
    for _ in range(20):
        n1, n2 = rng.choice(sizes, size=2)
        x1 = dp_quantile(DoubleParetoParams(3.0, 2.0), rng.random(int(n1)))
        x2 = dp_quantile(DoubleParetoParams(3.0, 2.0), rng.random(int(n2)))
        kernel = independent_kernel(make_sample(x1), make_sample(x2))
        km = fine_kernel(x1, x2, mids)
        for m in (3, 4):
            for direction in (UP, DOWN):
                for p in (0.25, 0.5, 0.75):
                    want = nested_sigma_oracle(km, cells, m, direction, p)
                    got = kernel.sigma_sq_many(m, direction, np.array([p]))[0, 0]
                    rel = abs(got - want) / max(abs(want), 1e-12)
                    worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    _finish(3, worst < 1e-3, f"worst relative gap {worst:.2e} over 240 comparisons",
            elapsed, 120)


def test_acceptance_4_size_control():
    """Null design dP(3,2) vs dP(3,2) at n=500, tau=3, warp speed R=1000:
    rejection rate within [0.030, 0.075] for both directions and both
    functionals (exact binomial 99% band around 0.05, widened for n)."""
    start = time.perf_counter()
    dgp = DoubleParetoParams(3.0, 2.0)
    specs = [SimSpec(dgp, dgp, 500, 500,
                     TestConfig(direction=d, kind=k, tau=3.0, seed=MASTER), 1000)
             for d in (UP, DOWN) for k in (FunctionalKind.SUP, FunctionalKind.INT)]
    results = run_table(specs)
    rates = {(r.spec.config.direction.value, r.spec.config.kind.value): r.rejection_rate
             for r in results}
    ok = all(0.030 <= rate <= 0.075 for rate in rates.values())
    elapsed = time.perf_counter() - start
    _finish(4, ok, f"rates {rates}", elapsed, 600)


def test_acceptance_5_power_upward():
    """dP(2.1,1.5) vs dP(100,3), integral functional, upward, R=500:
    rates near the published 0.435 (n=200) and 0.878 (n=500) within 0.07,
    at least 0.95 by n=1000, and nondecreasing in n."""
    start = time.perf_counter()
    d1, d2 = DoubleParetoParams(2.1, 1.5), DoubleParetoParams(100.0, 3.0)
    specs = [SimSpec(d1, d2, n, n,
                     TestConfig(direction=UP, kind=FunctionalKind.INT, tau=3.0, seed=2), 500)
             for n in (200, 500, 1000)]
    r200, r500, r1000 = [r.rejection_rate for r in run_table(specs)]
    ok = (abs(r200 - 0.435) <= 0.07 and abs(r500 - 0.878) <= 0.07
          and r1000 >= 0.95 and r200 <= r500 <= r1000)
    elapsed = time.perf_counter() - start
    _finish(5, ok, f"rates n=200: {r200:.3f}, n=500: {r500:.3f}, n=1000: {r1000:.3f}",
            elapsed, 900)


def test_acceptance_6_power_downward():
    """dP(2.1,1.5) vs dP(10,4), sup functional, downward, n=500, R=500:
    rate within 0.05 of the published 0.996."""
    start = time.perf_counter()
    spec = SimSpec(DoubleParetoParams(2.1, 1.5), DoubleParetoParams(10.0, 4.0), 500, 500,
                   TestConfig(direction=DOWN, kind=FunctionalKind.SUP, tau=3.0, seed=2), 500)
    rate = run_table([spec])[0].rejection_rate
    elapsed = time.perf_counter() - start
    _finish(6, abs(rate - 0.996) <= 0.05, f"rate {rate:.3f} vs 0.996", elapsed, 300)


def test_acceptance_7_degenerate_null():
    """The same sample duplicated as both inputs gives statistic exactly 0
    and no rejection, for 50 random samples and all four combinations."""
    start = time.perf_counter()
    rng = substream(MASTER, 7)
    ok = True
    for _ in range(50):
        n = int(rng.integers(20, 200))
        s = dp_sample(DoubleParetoParams(3.0, 2.0), n, rng)
        for direction in (UP, DOWN):
            for kind in FunctionalKind:
                cfg = TestConfig(direction=direction, kind=kind, bootstrap=99,
                                 seed=int(rng.integers(1 << 31)))
                res = run_test(s, s, cfg)
                ok &= res.statistic == 0.0 and not res.reject
    elapsed = time.perf_counter() - start
    _finish(7, ok, "statistic identically 0, never rejected (200 runs)", elapsed, 60)


def test_acceptance_8_scale_equivariance():
    """Scaling both inputs by c=1000 with xi scaled by c^2 and the same seed
    scales the statistic and critical value by exactly c (rel 1e-9) and
    leaves the decision unchanged, over 20 random cases."""
    start = time.perf_counter()
    rng = substream(MASTER, 8)
    c = 1000.0
    ok = True
    worst = 0.0
    for case in range(20):
        n1 = int(rng.integers(50, 200))
        n2 = int(rng.integers(50, 200))
        shift = float(rng.random() * 0.3)
        a = dp_quantile(DoubleParetoParams(3.0, 2.0), rng.random(n1))
        b = dp_quantile(DoubleParetoParams(3.0, 2.0), rng.random(n2)) + shift
        direction = UP if case % 2 == 0 else DOWN
        kind = FunctionalKind.SUP if case % 4 < 2 else FunctionalKind.INT
        cfg = TestConfig(direction=direction, kind=kind, bootstrap=99,
                         grid=201, vgrid=51, seed=case)
        cfg_scaled = TestConfig(direction=direction, kind=kind, bootstrap=99,
                                grid=201, vgrid=51, seed=case, xi=cfg.xi * c * c)
        r1 = run_test(make_sample(a), make_sample(b), cfg)
        r2 = run_test(make_sample(c * a), make_sample(c * b), cfg_scaled)
        for got, want in ((r2.statistic, c * r1.statistic),
                          (r2.critical_value, c * r1.critical_value)):
            rel = abs(got - want) / max(abs(want), 1e-12)
            worst = max(worst, rel)
            ok &= rel < 1e-9
        ok &= r1.reject == r2.reject
    elapsed = time.perf_counter() - start
    _finish(8, ok, f"worst relative drift {worst:.2e} over 20 cases", elapsed, 120)


def test_acceptance_9_block_determinism(tmp_path, monkeypatch):
    """The same (data, config, seed) yields byte-identical JSON reports on a
    rerun and with the bootstrap run in its smallest, two-row blocks (the
    wall-time field, which measures the hardware rather than the
    computation, is normalized before comparing)."""
    start = time.perf_counter()
    rng = substream(MASTER, 9)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(dp_sample(DoubleParetoParams(3.0, 2.0), 400, rng), fa)
    save_csv(dp_sample(DoubleParetoParams(3.0, 2.0), 400, rng), fb)
    payloads = []
    for run, block_cells in enumerate((None, None, 1)):
        if block_cells is not None:
            monkeypatch.setattr(isdtest.inference, "_BLOCK_CELLS", block_cells)
        out = tmp_path / f"report_{run}.json"
        code = main(["test", str(fa), str(fb), "--bootstrap", "299", "--seed", "77",
                     "--output", str(out)])
        assert code == 0
        raw = out.read_bytes().decode()
        payloads.append(re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', raw))
    ok = payloads[0] == payloads[1] == payloads[2]
    elapsed = time.perf_counter() - start
    _finish(9, ok, "reports identical on a rerun and in two-row blocks", elapsed, 120)


def test_acceptance_10_dgp_validation():
    """Quantile/CDF round trip < 1e-12; KS distance of 1e5 draws below the
    1% critical value; the closed-form mean (verified against numeric
    integration of x f(x)) reproduced by 1e6 draws within 4 standard errors."""
    import scipy.integrate

    start = time.perf_counter()
    params = DoubleParetoParams(3.0, 2.0)
    rng = substream(MASTER, 10)

    u = rng.random(1000) * 0.999
    roundtrip = float(np.max(np.abs(dp_cdf(params, dp_quantile(params, u)) - u)))

    n_ks = 100_000
    draws = dp_sample(params, n_ks, rng)
    f = dp_cdf(params, draws.values)
    i = np.arange(1, n_ks + 1)
    ks = max(float(np.max(i / n_ks - f)), float(np.max(f - (i - 1) / n_ks)))
    ks_crit = 1.628 / np.sqrt(n_ks)

    low, _ = scipy.integrate.quad(lambda x: x * dp_pdf(params, x), 0, 1.0)
    up, _ = scipy.integrate.quad(lambda x: x * dp_pdf(params, x), 1.0, np.inf)
    closed = dp_mean(params)
    mean_check = abs(closed - (low + up)) < 1e-9 and abs(closed - 1.0) < 1e-12

    n_mc = 1_000_000
    big = dp_sample(params, n_mc, rng)
    se = np.sqrt(0.5 / n_mc)  # Var = alpha*beta/((alpha-2)(beta+2)) - mean^2 = 0.5
    mc_gap = abs(float(np.mean(big.values)) - closed)

    ok = roundtrip < 1e-12 and ks < ks_crit and mean_check and mc_gap < 4 * se
    elapsed = time.perf_counter() - start
    _finish(10, ok, f"roundtrip {roundtrip:.1e}, KS {ks:.4f} < {ks_crit:.4f}, "
                    f"mean gap {mc_gap:.2e} < {4 * se:.2e}", elapsed, 60)


def _rank_seed_worker(seed_index):
    dgp = DoubleParetoParams(3.0, 2.0)
    rng = substream(MASTER, 11, seed_index)
    n = 2000
    a = dp_sample(dgp, n, rng)
    b = make_sample(dp_sample(dgp, n, rng).values + 1.0)
    c = make_sample(dp_sample(dgp, n, rng).values + 2.0)
    outcomes = {}
    for direction in (UP, DOWN):
        for kind in FunctionalKind:
            cfg = TestConfig(direction=direction, kind=kind, bootstrap=199,
                             seed=derive_seed(MASTER, 11, seed_index))
            matrix = pairwise_rank([("a", a), ("b", b), ("c", c)], cfg)
            ordered = (matrix.relation("a", "b") is Relation.LESS
                       and matrix.relation("a", "c") is Relation.LESS
                       and matrix.relation("b", "c") is Relation.LESS)
            outcomes[(direction.value, kind.value)] = ordered
    return outcomes


def test_acceptance_11_ranking_protocol():
    """Three synthetic datasets nested by +1 shifts (n=2000) produce the
    fully ordered transitive matrix a < b < c for both directions and both
    functionals in at least 95 of 100 seeds.  (The published microdata are
    unavailable, so the protocol is validated on synthetic orderings.)"""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        per_seed = list(pool.map(_rank_seed_worker, range(100), chunksize=10))
    counts = {}
    for outcomes in per_seed:
        for combo, ordered in outcomes.items():
            counts[combo] = counts.get(combo, 0) + int(ordered)
    ok = all(count >= 95 for count in counts.values())
    elapsed = time.perf_counter() - start
    _finish(11, ok, f"fully ordered seeds per combo: {counts}", elapsed, 600)
