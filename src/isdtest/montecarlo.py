"""Simulation harness: rejection rates over replicated synthetic two-sample tests.

WARPSPEED mode draws one bootstrap statistic per replication and pools the
R of them into a single critical value; FULL mode runs the complete
B-draw bootstrap test inside every replication.  Data and bootstrap
substreams are keyed by (seed, sample sizes, DGP parameters, replication
index) only, so cells that differ merely in the contact-set bandwidth,
functional, or direction see identical draws -- the bandwidth-monotonicity
of rejection rates then holds exactly, and tables are reproducible under
any parallel schedule.

A warp-speed replication runs the single test's own steps: its bootstrap
draw is a one-generator :func:`~isdtest.bootstrap.bootstrap_block`,
evaluated by :func:`~isdtest.bootstrap.bootstrap_diff_block`, and the
statistics come from :func:`~isdtest.functionals.functional` and
:func:`~isdtest.functionals.derivative`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from math import sqrt

import numpy as np

from .bootstrap import bootstrap_block, bootstrap_diff_block, critical_value, derive_seed, substream
from .curves import DifferenceCurve, Direction, Grid, LambdaCurve, eval_on_grid
from .dgp import DoubleParetoParams, dp_sample
from .errors import ConfigError
from .functionals import FunctionalKind, derivative, estimate_contact_set, functional
from .inference import TestConfig, run_test
from .variance import CovKernel, Scheme, effective_size, sigma_curve

__all__ = ["SimMode", "SimSpec", "SimResult", "run_table", "preset_specs"]

_MC_DATA = 0xD0
_MC_BOOT = 0xD1
_MC_FULL = 0xD2


class SimMode(Enum):
    FULL = "full"
    WARPSPEED = "warpspeed"


@dataclass(frozen=True)
class SimSpec:
    """One simulation cell: a DGP pair, sizes, test config, and replication plan."""

    dgp1: DoubleParetoParams
    dgp2: DoubleParetoParams
    n1: int
    n2: int
    config: TestConfig
    replications: int = 1000
    mode: SimMode = SimMode.WARPSPEED

    def __post_init__(self):
        object.__setattr__(self, "mode", self.mode if isinstance(self.mode, SimMode) else SimMode(self.mode))
        if self.replications < 1:
            raise ConfigError("replication count must be at least 1")
        if min(self.n1, self.n2) < 2:
            raise ConfigError("simulated samples need at least two observations")
        if self.config.scheme is not Scheme.INDEPENDENT:
            raise ConfigError("the simulation harness draws independent samples only")


@dataclass(frozen=True)
class SimResult:
    """Rejection rate of one cell, with the spec echoed for table layout."""

    spec: SimSpec
    rejection_rate: float
    rejections: int
    critical_value: float
    elapsed_ms: float


def _dgp_key(spec: SimSpec) -> tuple:
    d1, d2 = spec.dgp1, spec.dgp2
    return (spec.n1, spec.n2, d1.alpha, d1.beta, d1.scale, d2.alpha, d2.beta, d2.scale)


def _group_key(spec: SimSpec) -> tuple:
    cfg = spec.config
    return (_dgp_key(spec), spec.replications, spec.mode, cfg.seed, cfg.m,
            cfg.grid, cfg.vgrid, cfg.xi)


def _run_warpspeed_group(specs: list[SimSpec]) -> list[SimResult]:
    start = time.perf_counter()
    base = specs[0]
    cfg = base.config
    reps = base.replications
    fgrid = Grid.uniform(cfg.grid)
    vgrid = Grid.uniform(cfg.vgrid)
    t_n = effective_size(base.n1, base.n2)
    root_t = sqrt(t_n)
    key = _dgp_key(base)

    directions = []
    for s in specs:
        if s.config.direction not in directions:
            directions.append(s.config.direction)

    stat_keys = {(s.config.direction, s.config.kind) for s in specs}
    stats = {k: np.empty(reps) for k in stat_keys}
    boot_stats = [np.empty(reps) for _ in specs]

    for r in range(reps):
        rng = substream(cfg.seed, _MC_DATA, *key, r)
        x1 = dp_sample(base.dgp1, base.n1, rng)
        x2 = dp_sample(base.dgp2, base.n2, rng)
        wrng = substream(cfg.seed, _MC_BOOT, *key, r)
        draw = bootstrap_block(base.n1, base.n2, False, [wrng])
        kernel = CovKernel.independent(x1, x2)

        for direction in directions:
            phi = eval_on_grid(DifferenceCurve(LambdaCurve(x1, cfg.m, direction),
                                               LambdaCurve(x2, cfg.m, direction)), fgrid)
            phi_star = bootstrap_diff_block(x1, x2, draw, cfg.m, direction, fgrid)[0]
            sig = sigma_curve(kernel, cfg.m, direction, vgrid, fgrid, cfg.xi)
            h = root_t * (phi_star - phi)
            for (d, kind), values in stats.items():
                if d is direction:
                    values[r] = root_t * functional(kind, phi, fgrid)

            contact_cache = {}
            for idx, s in enumerate(specs):
                if s.config.direction is not direction:
                    continue
                tau = s.config.tau
                if tau not in contact_cache:
                    contact_cache[tau] = estimate_contact_set(phi, sig.vhat, t_n, tau, fgrid)
                boot_stats[idx][r] = derivative(s.config.kind, h, contact_cache[tau], fgrid)

    elapsed_ms = (time.perf_counter() - start) * 1e3
    results = []
    for idx, s in enumerate(specs):
        chat = critical_value(boot_stats[idx], s.config.alpha)
        if s.config.eta > 0:
            chat = max(chat, s.config.eta)
        rejections = int(np.count_nonzero(stats[(s.config.direction, s.config.kind)] > chat))
        results.append(SimResult(
            spec=s,
            rejection_rate=rejections / reps,
            rejections=rejections,
            critical_value=chat,
            elapsed_ms=elapsed_ms,
        ))
    return results


def _run_full(spec: SimSpec) -> SimResult:
    start = time.perf_counter()
    cfg = spec.config
    key = _dgp_key(spec)
    rejections = 0
    for r in range(spec.replications):
        rng = substream(cfg.seed, _MC_DATA, *key, r)
        x1 = dp_sample(spec.dgp1, spec.n1, rng)
        x2 = dp_sample(spec.dgp2, spec.n2, rng)
        cfg_r = replace(cfg, seed=derive_seed(cfg.seed, _MC_FULL, *key, r))
        if run_test(x1, x2, cfg_r).reject:
            rejections += 1
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return SimResult(
        spec=spec,
        rejection_rate=rejections / spec.replications,
        rejections=rejections,
        critical_value=float("nan"),
        elapsed_ms=elapsed_ms,
    )


def run_table(specs) -> list[SimResult]:
    """Run many cells; warp-speed cells sharing a data signature are batched.

    Results are identical to running each cell alone (streams are keyed by
    cell content, not by grouping) and are returned in input order.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("empty simulation grid")
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(specs):
        groups.setdefault(_group_key(s), []).append(i)
    results: list[SimResult | None] = [None] * len(specs)
    for indices in groups.values():
        members = [specs[i] for i in indices]
        if members[0].mode is SimMode.FULL:
            for i in indices:
                results[i] = _run_full(specs[i])
        else:
            for i, res in zip(indices, _run_warpspeed_group(members)):
                results[i] = res
    return results  # type: ignore[return-value]


_POWER_SIZES = (200, 500, 1000, 2000)


def preset_specs(name: str, seed: int = 0, replications: int = 1000,
                 sizes=None) -> list[SimSpec]:
    """Shipped simulation designs.

    ``size_up`` / ``size_down``: both samples from the same double Pareto
    law over a grid of shapes, five contact-set bandwidths, n = 2000.
    ``power_up``: dP(2.1, 1.5) against dP(100, beta) for beta near 3.
    ``power_down``: dP(2.1, 1.5) against dP(alpha, 4) for alpha in 10..100.
    """
    kinds = (FunctionalKind.SUP, FunctionalKind.INT)
    specs: list[SimSpec] = []
    if name in ("size_up", "size_down", "table1", "table2"):
        direction = Direction.UP if name in ("size_up", "table1") else Direction.DOWN
        n = 2000 if sizes is None else sizes[0]
        taus = (1.0, 2.0, 3.0, 4.0, float("inf"))
        for kind in kinds:
            for a in (2.0, 3.0, 4.0, 5.0):
                for tau in taus:
                    for b in range(1, 9):
                        cfg = TestConfig(direction=direction, kind=kind, tau=tau, seed=seed)
                        dgp = DoubleParetoParams(alpha=a, beta=float(b))
                        specs.append(SimSpec(dgp, dgp, n, n, cfg, replications))
        return specs
    if name in ("power_up", "table3"):
        betas = [round(2.91 + 0.01 * i, 2) for i in range(10)]
        for kind in kinds:
            for n in (sizes or _POWER_SIZES):
                for b in betas:
                    cfg = TestConfig(direction=Direction.UP, kind=kind, tau=3.0, seed=seed)
                    specs.append(SimSpec(DoubleParetoParams(2.1, 1.5),
                                         DoubleParetoParams(100.0, b), n, n, cfg, replications))
        return specs
    if name in ("power_down", "table4"):
        for kind in kinds:
            for n in (sizes or _POWER_SIZES):
                for a in range(10, 101, 10):
                    cfg = TestConfig(direction=Direction.DOWN, kind=kind, tau=3.0, seed=seed)
                    specs.append(SimSpec(DoubleParetoParams(2.1, 1.5),
                                         DoubleParetoParams(float(a), 4.0), n, n, cfg, replications))
        return specs
    raise ConfigError(f"unknown preset {name!r}")
