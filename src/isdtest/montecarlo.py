"""Simulation harness: rejection rates over replicated synthetic two-sample tests.

WARPSPEED mode draws one bootstrap statistic per replication and pools the
R of them into a single critical value; FULL mode runs the complete
B-draw bootstrap test inside every replication.  Both modes run the
test's own core (the one :func:`~isdtest.inference.run_test` calls) for
every cell that shares the replication's data; the index plan of those
cells is built once per group.  Both draw a chunk of replications'
uniforms, each from its own substreams, turn the stacked uniforms into
sorted double Pareto samples at once and call the core once per chunk;
each stacked dataset, with its own bootstrap draws, is computed exactly as
it would be alone, so results do not depend on the chunk size.

Data and bootstrap substreams are keyed by (seed, sample sizes, DGP
parameters, replication index) only, so cells that differ merely in the
contact-set bandwidth, functional, direction, level or critical-value
floor see identical draws -- the bandwidth-monotonicity of rejection rates
then holds exactly, and tables are reproducible under any grouping.  A
full-mode replication's B streams are the ones ``run_test`` draws from
under that replication's derived seed, so full-mode cells that share data,
seed, m, grids, xi and B also share their draws.  A group derives all its
replications' keys in one vectorised pass, and one re-keyed generator
draws every replication's data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import inference
from .bootstrap import _generate_state, _restart, derive_seed
from .curves import BlockWorkspace, Direction, Grid
from .dgp import DoubleParetoParams, dp_quantile
from .empirical import _sorted_rows
from .errors import ConfigError
from .functionals import FunctionalKind
from .inference import TestConfig, _coerce, _count, _critical, _plan, _test_cells, _test_keys
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


def _dgp_key(spec: SimSpec) -> tuple:
    d1, d2 = spec.dgp1, spec.dgp2
    return (spec.n1, spec.n2, d1.alpha, d1.beta, d1.scale, d2.alpha, d2.beta, d2.scale)


def _group_key(spec: SimSpec) -> tuple:
    cfg = spec.config
    return (_dgp_key(spec), spec.replications, spec.mode, cfg.seed, cfg.m,
            cfg.grid, cfg.vgrid, cfg.xi, cfg.bootstrap)


def _chunk_rows(n: int, grid: int) -> int:
    """Replications per core call for samples of up to n observations and
    a functional grid of ``grid`` points.

    A chunk of D replications holds a few dozen arrays of D rows of n or
    ``grid`` values at once; D * 5 (n + grid) cells stay within twice the
    bootstrap block budget.  With 1001 grid points that is 24 rows at
    n = 80, 21 at n = 200, 17 at n = 500 and 8 at n = 2000.  A warp-speed
    core call costs about 2 ms besides 0.3 to 0.5 ms per replication at
    n = 500, so warp speed gains from fewer calls: at n = 500 and 50
    replications a group makes 3 calls instead of 7 (at 8 rows), for about
    20 % less time and 1.5 MB more traced peak memory (2.9 MB in all;
    2 vCPU, one BLAS thread).  One call of all 50 rows peaked at 7.8 MB.
    The bootstrap blocks of a full-mode chunk fill the block budget's rows
    even at small B, as one replication's blocks do at large B, so full
    mode's time and peak memory did not move with these rows.
    """
    return max(1, 2 * inference._BLOCK_CELLS // (5 * (n + grid)))


def _run_group(specs: list[SimSpec]) -> list[SimResult]:
    """Cells of one group key, every replication's data and draws shared."""
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
    chunk = _chunk_rows(max(base.n1, base.n2), cfg.grid)
    # Every replication's stream keys, derived at once: data, then the
    # bootstrap (full mode: run_test's under the replication's derived seed).
    index = np.arange(reps)
    data_keys = _generate_state(cfg.seed, (_MC_DATA, *key, index), 2).tolist()
    if full:
        seeds = derive_seed(cfg.seed, _MC_FULL, *key, index)
    else:  # one draw, both samples' weights from the replication's stream
        boot_keys = _generate_state(cfg.seed, (_MC_BOOT, *key, index), 2)
    rng = np.random.Generator(np.random.Philox(key=0))
    # One workspace for every chunk: a warp-speed call runs one bootstrap
    # block, and a workspace of its own would fault its pages in each call.
    work = BlockWorkspace()
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        # Each replication's uniforms from its own stream, the first sample's
        # then the second's; the quantile, the checks and the sort run once
        # on the stacks, each row bit for bit as dp_sample makes it alone.
        uniforms = [np.empty((hi - lo, base.n1)), np.empty((hi - lo, base.n2))]
        for row, r in enumerate(range(lo, hi)):
            _restart(rng, data_keys[r])
            for u in uniforms:
                rng.random(out=u[row])
        stacks = [_sorted_rows(dp_quantile(dgp, u))
                  for dgp, u in zip((base.dgp1, base.dgp2), uniforms)]
        keys = _test_keys(seeds[lo:hi], cfg.bootstrap) if full else boot_keys[None, lo:hi, None]
        observed[:, lo:hi], stats, _ = _test_cells(
            stacks, None, cfg.m, cfg.xi, fgrid, vgrid, plan, keys, (0, 0), work)
        boot[:, lo:hi] = ([[_critical(draws, s.config) for draws in rows]
                           for rows, s in zip(stats, specs)] if full else stats[:, :, 0])

    if full:
        chats, reported = boot, [float("nan")] * len(specs)
    else:
        reported = [_critical(row, s.config) for row, s in zip(boot, specs)]
        chats = np.array(reported)[:, None]
    rejections = np.count_nonzero(observed > chats, axis=1)
    return [SimResult(spec=s, rejection_rate=int(k) / reps, rejections=int(k),
                      critical_value=chat)
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


def preset_specs(name: str, seed: int = 0, replications: int = 1000) -> list[SimSpec]:
    """Shipped simulation designs.

    ``size_up`` / ``size_down``: both samples from the same double Pareto
    law over a grid of shapes, five contact-set bandwidths, n = 2000.
    ``power_up``: dP(2.1, 1.5) against dP(100, beta) for beta near 3.
    ``power_down``: dP(2.1, 1.5) against dP(alpha, 4) for alpha in 10..100.
    """
    kinds = (FunctionalKind.SUP, FunctionalKind.INT)
    specs: list[SimSpec] = []
    if name in ("size_up", "size_down"):
        direction = Direction.UP if name == "size_up" else Direction.DOWN
        taus = (1.0, 2.0, 3.0, 4.0, float("inf"))
        for kind in kinds:
            for a in (2.0, 3.0, 4.0, 5.0):
                for tau in taus:
                    for b in range(1, 9):
                        cfg = TestConfig(direction=direction, kind=kind, tau=tau, seed=seed)
                        dgp = DoubleParetoParams(alpha=a, beta=float(b))
                        specs.append(SimSpec(dgp, dgp, 2000, 2000, cfg, replications))
        return specs
    if name == "power_up":
        betas = [round(2.91 + 0.01 * i, 2) for i in range(10)]
        for kind in kinds:
            for n in _POWER_SIZES:
                for b in betas:
                    cfg = TestConfig(direction=Direction.UP, kind=kind, tau=3.0, seed=seed)
                    specs.append(SimSpec(DoubleParetoParams(2.1, 1.5),
                                         DoubleParetoParams(100.0, b), n, n, cfg, replications))
        return specs
    if name == "power_down":
        for kind in kinds:
            for n in _POWER_SIZES:
                for a in range(10, 101, 10):
                    cfg = TestConfig(direction=Direction.DOWN, kind=kind, tau=3.0, seed=seed)
                    specs.append(SimSpec(DoubleParetoParams(2.1, 1.5),
                                         DoubleParetoParams(float(a), 4.0), n, n, cfg, replications))
        return specs
    raise ConfigError(f"unknown preset {name!r}")
