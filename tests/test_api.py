import importlib
import re
from pathlib import Path

import pytest

import isdtest

# The package's public names; submodules are not among them.  A name
# leaves or joins this list only by a deliberate edit here.
PUBLIC = [
    "ConfigError", "DataError", "Direction", "DoubleParetoParams",
    "FunctionalKind", "PairDecision", "PairedSample", "RankingMatrix",
    "Relation", "Scheme", "SimMode", "SimResult", "SimSpec", "SortedSample",
    "TestConfig", "TestResult", "dp_sample", "make_paired", "make_sample",
    "pairwise_rank", "preset_specs", "run_table", "run_test",
]

# Each layer module's names.  The benchmark's tracer wraps exactly these,
# and hooks its work counters to curves.eval_on_grid, variance.sigma_curve,
# bootstrap.draw_weights and cli.load_csv: a name dropped here would drop
# its spans from the traced metrics without a failure.
LAYER_NAMES = {
    "cli": ["Report", "load_csv", "emit_report", "main"],
    "inference": ["TestConfig", "TestResult", "Relation", "RankingMatrix", "run_test",
                  "pairwise_rank"],
    "montecarlo": ["SimMode", "SimSpec", "SimResult", "run_table", "preset_specs"],
    "bootstrap": ["derive_seed", "draw_weights", "critical_value", "p_value"],
    "curves": ["MAX_DEGREE", "Direction", "Grid", "LambdaCurve", "eval_on_grid", "eval_block",
               "BlockWorkspace"],
    "variance": ["Scheme", "CovKernel", "effective_size", "sigma_curve"],
    "functionals": ["FunctionalKind", "estimate_contact_set", "functional", "derivative"],
    "empirical": ["SortedSample", "PairedSample", "make_sample", "make_paired"],
    "dgp": ["DoubleParetoParams", "dp_quantile", "dp_sample"],
}

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_public_names_pinned():
    assert sorted(isdtest.__all__) == PUBLIC


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from isdtest import *", namespace)
    bound = {name: value for name, value in namespace.items() if not name.startswith("__")}
    assert sorted(bound) == PUBLIC
    assert not any(isinstance(value, type(isdtest)) for value in bound.values())


@pytest.mark.parametrize("layer", sorted(LAYER_NAMES))
def test_layer_names_pinned(layer):
    module = importlib.import_module(f"isdtest.{layer}")
    assert module.__all__ == LAYER_NAMES[layer]
    assert all(hasattr(module, name) for name in module.__all__)


def test_readme_documents_every_public_name():
    # The README's API section lists the surface: a name that joins or
    # leaves the package moves the documentation with it.
    section = re.search(r"^### The public API\n(.*?)^## ", README, flags=re.DOTALL | re.MULTILINE)
    assert section is not None
    missing = [name for name in PUBLIC if f"`{name}`" not in section.group(1)]
    assert not missing


def test_readme_code_runs():
    # Every python block of the README, in order, in one namespace: a name
    # that leaves the package cannot linger in the documented examples.
    blocks = re.findall(r"^```python\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
