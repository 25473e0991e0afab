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
    DifferenceCurve,
    Direction,
    Grid,
    LambdaCurve,
    diff_eval,
    eval_block,
    eval_on_grid,
    lambda_eval,
)
from .dgp import DoubleParetoParams, dp_cdf, dp_mean, dp_pdf, dp_quantile, dp_sample
from .empirical import (
    PairedSample,
    SortedSample,
    WeightedSample,
    ecdf,
    make_paired,
    make_sample,
    mean,
    quantile,
)
from .errors import ConfigError, DataError
from .functionals import (
    ContactSet,
    FunctionalKind,
    derivative_int,
    derivative_sup,
    estimate_contact_set,
    int_functional,
    sup_functional,
)
from .bootstrap import (
    BootstrapDraw,
    bootstrap_block,
    bootstrap_diff_block,
    bootstrap_diff_block_paired,
    bootstrap_diff_curve,
    bootstrap_diff_curve_paired,
    bootstrap_draw,
    bootstrap_statistic,
    critical_value,
    derive_seed,
    draw_weights,
    p_value,
    substream,
)
from .inference import (
    PairDecision,
    RankingMatrix,
    Relation,
    TestConfig,
    TestResult,
    pairwise_rank,
    run_test,
)
from .montecarlo import SimMode, SimResult, SimSpec, preset_specs, run_cell, run_table
from .variance import (
    CovKernel,
    Scheme,
    SigmaCurve,
    effective_size,
    kernel_eval,
    sigma_curve,
    sigma_sq,
    trim,
    vv_cov,
)

__all__ = [name for name in dir() if not name.startswith("_")]
