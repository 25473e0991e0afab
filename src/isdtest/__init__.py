"""Bootstrap tests of mth-degree upward and downward inverse stochastic dominance.

The test compares two income-style distributions through repeated
integrals of their empirical quantile functions, measures the positive
part of the curve difference with a sup or integral functional, and
calibrates the decision with a multinomial bootstrap restricted to the
estimated contact set.
"""

__version__ = "0.1.0"

from .curves import Direction
from .dgp import DoubleParetoParams, dp_sample
from .empirical import PairedSample, SortedSample, make_paired, make_sample
from .errors import ConfigError, DataError
from .functionals import FunctionalKind
from .inference import (
    PairDecision,
    RankingMatrix,
    Relation,
    Scheme,
    TestConfig,
    TestResult,
    pairwise_rank,
    run_test,
)
from .montecarlo import SimMode, SimResult, SimSpec, preset_specs, run_table

# The user's calls, results and inputs.  The kernels behind them stay in
# their layer modules, which are internal: they take arguments that these
# names have checked, and do not check them again.
__all__ = [
    "TestConfig", "TestResult", "run_test", "pairwise_rank", "RankingMatrix",
    "PairDecision", "Relation",
    "SimSpec", "SimMode", "SimResult", "run_table", "preset_specs",
    "make_sample", "make_paired", "SortedSample", "PairedSample",
    "Direction", "FunctionalKind", "Scheme", "ConfigError", "DataError",
    "DoubleParetoParams", "dp_sample",
]
