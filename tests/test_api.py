import ast
import importlib
import re
from graphlib import TopologicalSorter
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
    "inference": ["Scheme", "TestConfig", "TestResult", "Relation", "RankingMatrix", "run_test",
                  "pairwise_rank"],
    "montecarlo": ["SimMode", "SimSpec", "SimResult", "run_table", "preset_specs"],
    "bootstrap": ["derive_seed", "draw_weights", "draw_block", "critical_value",
                  "p_value"],
    "curves": ["MAX_DEGREE", "Direction", "Grid", "LambdaCurve", "eval_on_grid", "eval_block",
               "BlockWorkspace"],
    "variance": ["CovKernel", "effective_size", "sigma_curve"],
    "functionals": ["FunctionalKind", "estimate_contact_set", "functional", "derivative"],
    "empirical": ["SortedSample", "PairedSample", "make_sample", "make_paired"],
    "dgp": ["DoubleParetoParams", "dp_quantile", "dp_sample"],
}

# The package modules each module may import from, all of them lower
# layers; "__init__" is the package itself (the command line reads its
# version there).  A module gains a lower layer only by a deliberate edit.
LOWER_LAYERS = {
    "errors": set(),
    "bootstrap": set(),
    "empirical": {"errors"},
    "curves": {"empirical", "errors"},
    "dgp": {"empirical", "errors"},
    "functionals": {"curves"},
    "variance": {"curves", "empirical", "errors"},
    "inference": {"bootstrap", "curves", "empirical", "errors", "functionals", "variance"},
    "montecarlo": {"bootstrap", "curves", "dgp", "empirical", "errors", "functionals",
                   "inference"},
    "__init__": {"curves", "dgp", "empirical", "errors", "functionals", "inference",
                 "montecarlo"},
    "cli": {"__init__", "dgp", "empirical", "errors", "functionals", "inference", "montecarlo"},
}

# The private names that each package module reaches in another, by
# ``from .x import _name`` or by an attribute read such as
# ``inference._BLOCK_CELLS``.  The internal interface between layers grows
# only by a deliberate edit here.
PRIVATE_REACH = {
    "cli": {"inference._coerce"},
    "inference": {"bootstrap._generate_state"},
    "montecarlo": {"bootstrap._generate_state", "bootstrap._restart", "empirical._sorted_rows",
                   "inference._BLOCK_CELLS", "inference._coerce", "inference._count",
                   "inference._critical", "inference._plan", "inference._test_cells",
                   "inference._test_keys"},
}

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isdtest"
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def _package_imports(module: str) -> set:
    """The package modules that ``module`` imports, from its ``from .x
    import`` and ``from . import x`` lines."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                imported.add(node.module.partition(".")[0])
            else:
                imported.update(alias.name if (PACKAGE / f"{alias.name}.py").exists()
                                else "__init__" for alias in node.names)
    return imported


def _private_reach(module: str) -> set:
    """The private names of other package modules that ``module`` imports
    (``from .x import _name``) or reads as attributes of a module it
    imports (``from . import x``, then ``x._name``), as ``"x._name"``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules, reach = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif private(alias.name):
                    reach.add(f"{node.module}.{alias.name}")
    reach.update(f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and private(node.attr))
    return reach


@pytest.mark.parametrize("module", sorted(LOWER_LAYERS))
def test_private_reach_pinned(module):
    assert _private_reach(module) == PRIVATE_REACH.get(module, set())


def test_layers_cover_every_module_and_have_no_cycle():
    assert sorted(LOWER_LAYERS) == sorted(path.stem for path in PACKAGE.glob("*.py"))
    list(TopologicalSorter(LOWER_LAYERS).static_order())  # a cycle raises CycleError


@pytest.mark.parametrize("module", sorted(LOWER_LAYERS))
def test_imports_only_lower_layers(module):
    assert _package_imports(module) <= LOWER_LAYERS[module]


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


def test_every_function_is_called_from_the_package():
    # Code that only the tests call belongs in tests/: every function and
    # method of the package is referenced by name somewhere in src beyond
    # its own definition, is a dunder, overrides a base class's method, or
    # is named in its module's or the package's __all__.  A test oracle
    # left behind in src fails here.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unused = []
    for module, tree in trees.items():
        owner = importlib.import_module("isdtest" if module == "__init__" else f"isdtest.{module}")
        exported = {*getattr(owner, "__all__", ()), *isdtest.__all__}
        overrides = {method.name for node in tree.body if isinstance(node, ast.ClassDef)
                     for base in getattr(owner, node.name).__mro__[1:]
                     for method in node.body
                     if isinstance(method, ast.FunctionDef) and method.name in vars(base)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__") or name in referenced
                        or name in exported or name in overrides):
                    unused.append(f"{module}.{name}")
    assert not unused
