"""Bootstrap tests of mth-degree upward and downward inverse stochastic dominance.

The test compares two income-style distributions through repeated
integrals of their empirical quantile functions, measures the positive
part of the curve difference with a sup or integral functional, and
calibrates the decision with a multinomial bootstrap restricted to the
estimated contact set.
"""

__version__ = "0.1.0"

from .curves import (
    MAX_DEGREE,
    BlockWorkspace,
    Direction,
    Grid,
    LambdaCurve,
    eval_block,
    eval_on_grid,
)
from .dgp import DoubleParetoParams, dp_quantile, dp_sample
from .empirical import PairedSample, SortedSample, make_paired, make_sample
from .errors import ConfigError, DataError
from .functionals import FunctionalKind, derivative, estimate_contact_set, functional
from .bootstrap import critical_value, derive_seed, draw_weights, p_value
from .inference import (
    PairDecision,
    RankingMatrix,
    Relation,
    TestConfig,
    TestResult,
    pairwise_rank,
    run_test,
)
from .montecarlo import SimMode, SimResult, SimSpec, preset_specs, run_table
from .variance import CovKernel, Scheme, effective_size, sigma_curve

__all__ = [
    "MAX_DEGREE", "BlockWorkspace", "Direction", "Grid", "LambdaCurve",
    "eval_block", "eval_on_grid",
    "DoubleParetoParams", "dp_quantile", "dp_sample",
    "PairedSample", "SortedSample", "make_paired", "make_sample",
    "ConfigError", "DataError",
    "FunctionalKind", "derivative", "estimate_contact_set", "functional",
    "critical_value", "derive_seed", "draw_weights", "p_value",
    "PairDecision", "RankingMatrix", "Relation", "TestConfig", "TestResult", "pairwise_rank",
    "run_test",
    "SimMode", "SimResult", "SimSpec", "preset_specs", "run_table",
    "CovKernel", "Scheme", "effective_size", "sigma_curve",
]
