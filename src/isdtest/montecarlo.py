"""Simulation harness: rejection rates over replicated synthetic two-sample tests.

WARPSPEED mode draws one bootstrap statistic per replication and pools the
R of them into a single critical value; FULL mode runs the complete
B-draw bootstrap test inside every replication.  Both modes run the
test's own core (the one :func:`~isdtest.inference.run_test` calls), once
per replication for every cell that shares the replication's data; the
index plan of those cells is built once per group.

Data and bootstrap substreams are keyed by (seed, sample sizes, DGP
parameters, replication index) only, so cells that differ merely in the
contact-set bandwidth, functional, direction, level or critical-value
floor see identical draws -- the bandwidth-monotonicity of rejection rates
then holds exactly, and tables are reproducible under any grouping.  A
full-mode replication's B generators are the ones ``run_test`` draws from
under that replication's derived seed, so full-mode cells that share data,
seed, m, grids, xi and B also share their draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bootstrap import derive_seed, substream
from .curves import Direction, Grid
from .dgp import DoubleParetoParams, dp_sample
from .errors import ConfigError
from .functionals import FunctionalKind
from .inference import TestConfig, _coerce, _count, _critical, _plan, _test_cells, _test_streams
from .variance import Scheme

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
        object.__setattr__(self, "mode", _coerce(self.mode, SimMode, "mode"))
        for name in ("n1", "n2", "replications"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
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
            cfg.grid, cfg.vgrid, cfg.xi, cfg.bootstrap)


def _run_group(specs: list[SimSpec]) -> list[SimResult]:
    """Cells of one group key, every replication's data and draws shared."""
    start = time.perf_counter()
    base = specs[0]
    cfg = base.config
    reps = base.replications
    full = base.mode is SimMode.FULL
    fgrid = Grid.uniform(cfg.grid)
    vgrid = Grid.uniform(cfg.vgrid)
    key = _dgp_key(base)
    plan = _plan([(0, 1, s.config.direction, s.config.kind, s.config.tau) for s in specs])

    observed = np.empty((len(specs), reps))
    # Full mode: each replication's own critical values.  Warp speed: the
    # one bootstrap statistic of each replication, pooled below.
    boot = np.empty((len(specs), reps))
    for r in range(reps):
        rng = substream(cfg.seed, _MC_DATA, *key, r)
        x1 = dp_sample(base.dgp1, base.n1, rng)
        x2 = dp_sample(base.dgp2, base.n2, rng)
        if full:  # run_test's generators under the replication's derived seed
            seed = derive_seed(cfg.seed, _MC_FULL, *key, r)
            draws, count = _test_streams(seed), cfg.bootstrap
        else:
            wrng = substream(cfg.seed, _MC_BOOT, *key, r)
            draws, count = (lambda b: (wrng, wrng)), 1
        observed[:, r], stats, _ = _test_cells([x1, x2], None, cfg.m, cfg.xi, fgrid, vgrid,
                                               plan, draws, count)
        boot[:, r] = ([_critical(row, s.config) for row, s in zip(stats, specs)]
                      if full else stats[:, 0])

    if full:
        chats, reported = boot, [float("nan")] * len(specs)
    else:
        reported = [_critical(row, s.config) for row, s in zip(boot, specs)]
        chats = np.array(reported)[:, None]
    rejections = np.count_nonzero(observed > chats, axis=1)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return [SimResult(spec=s, rejection_rate=int(k) / reps, rejections=int(k),
                      critical_value=chat, elapsed_ms=elapsed_ms)
            for s, k, chat in zip(specs, rejections, reported)]


def run_table(specs) -> list[SimResult]:
    """Run many cells; cells sharing data, seed, m, grids, xi and B are batched.

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
        for i, res in zip(indices, _run_group([specs[i] for i in indices])):
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
