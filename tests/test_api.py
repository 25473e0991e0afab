import isdtest

# The package's public names, submodules included.  A name leaves or joins
# this list only by a deliberate edit here.
PUBLIC = [
    "BlockWorkspace", "BootstrapDraw", "ConfigError", "ContactSet", "CovKernel", "DataError",
    "DifferenceCurve", "Direction", "DoubleParetoParams", "FunctionalKind", "Grid",
    "LambdaCurve", "MAX_DEGREE", "PairDecision", "PairedSample", "RankingMatrix", "Relation",
    "Scheme", "SigmaCurve", "SimMode", "SimResult", "SimSpec", "SortedSample", "TestConfig",
    "TestResult", "bootstrap", "bootstrap_block", "bootstrap_diff_block",
    "bootstrap_diff_block_paired", "critical_value", "curves", "derivative", "derive_seed",
    "dgp", "dp_cdf", "dp_mean", "dp_pdf", "dp_quantile", "dp_sample", "draw_weights", "ecdf",
    "effective_size", "empirical", "errors", "estimate_contact_set", "eval_block",
    "eval_on_grid", "functional", "functionals", "inference", "make_paired", "make_sample",
    "mean", "montecarlo", "p_value", "pairwise_rank", "preset_specs", "quantile", "run_table",
    "run_test", "sigma_curve", "substream", "trim", "variance",
]


def test_public_names_pinned():
    assert sorted(isdtest.__all__) == PUBLIC
