import isdtest

# The package's public names; submodules are not among them.  A name
# leaves or joins this list only by a deliberate edit here.
PUBLIC = [
    "BlockWorkspace", "ConfigError", "ContactSet", "CovKernel", "DataError",
    "DifferenceCurve", "Direction", "DoubleParetoParams", "FunctionalKind", "Grid",
    "LambdaCurve", "MAX_DEGREE", "PairDecision", "PairedSample", "RankingMatrix", "Relation",
    "Scheme", "SigmaCurve", "SimMode", "SimResult", "SimSpec", "SortedSample", "TestConfig",
    "TestResult", "critical_value", "derivative", "derive_seed", "dp_cdf", "dp_mean", "dp_pdf",
    "dp_quantile", "dp_sample", "draw_weights", "ecdf", "effective_size",
    "estimate_contact_set", "eval_block", "eval_on_grid", "functional", "make_paired",
    "make_sample", "mean", "p_value", "pairwise_rank", "preset_specs", "quantile", "run_table",
    "run_test", "sigma_curve", "substream", "trim",
]


def test_public_names_pinned():
    assert sorted(isdtest.__all__) == PUBLIC


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from isdtest import *", namespace)
    bound = {name: value for name, value in namespace.items() if not name.startswith("__")}
    assert sorted(bound) == PUBLIC
    assert not any(isinstance(value, type(isdtest)) for value in bound.values())
