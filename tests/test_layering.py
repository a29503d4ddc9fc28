"""Module layering, read from the source with ``ast``: the maths modules
compute arrays and numbers, only their boundaries cast and check input, and
only ``records`` and ``checks`` make check records and time them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "frame_hebb"
MATHS = ("linalg", "gaussian", "rules", "frames")
POLICY = ("records", "checks", "config", "cli")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def _imported_modules(tree: ast.Module) -> set[str]:
    """The frame_hebb modules a module imports, by their last name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level or (node.module or "").startswith("frame_hebb"):
                found.add((node.module or "").rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names
                         if alias.name.startswith("frame_hebb"))
    return found


def _uses(tree: ast.Module, name: str) -> bool:
    """Whether a module names ``name``: as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            return True
    return False


@pytest.mark.parametrize("module", MATHS)
def test_maths_modules_import_no_record_or_run_policy(module):
    assert not _imported_modules(_tree(module)) & set(POLICY)


@pytest.mark.parametrize("name, owners", [
    ("check_record", {"records", "checks"}),
    ("perf_counter", {"records", "checks"}),
    ("ExperimentRecord", {"records", "checks", "cli"}),
])
def test_records_and_timers_are_made_only_by_their_owners(name, owners):
    users = {path.stem for path in SRC.glob("*.py") if _uses(_tree(path.stem), name)}
    assert users <= owners, users - owners


def test_the_readers_see_what_checks_uses():
    tree = _tree("checks")
    assert {"records", "linalg"} <= _imported_modules(tree)
    assert _uses(tree, "check_record") and _uses(tree, "perf_counter")


# Where values enter the maths modules from outside the program; only these
# cast and check their input, and every other function trusts the arrays
# the program made. _as_matrix is the boundaries' own helper.
BOUNDARIES = {"as_weights", "build_covariance", "from_rows"}
CASTS = {"asarray", "_as_matrix"}


def _cast_calls(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function, called name) of every call to a CASTS name."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CASTS:
                found.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("module", MATHS)
def test_only_the_boundaries_cast_and_check(module):
    calls = _cast_calls(_tree(module))
    stray = [(where, name) for where, name in calls
             if where not in BOUNDARIES and not (where == "_as_matrix" and name == "asarray")]
    assert not stray


def test_every_boundary_casts():
    where = {where for module in MATHS for where, _ in _cast_calls(_tree(module))}
    assert where == BOUNDARIES | {"_as_matrix"}


# The maths modules' classes: each hides an algorithm (the running sums and
# the covariance factors), enforces a condition (the batch, the trainer's
# settings) or names a CSV row (a trajectory point). A function returns its
# results as plain arrays, numbers and tuples, not in a class of its own.
MATHS_CLASSES = {"CovarianceModel", "SampleBatch", "RunningSum", "OjaMean", "EghrMean",
                 "TrainerConfig", "TrajectoryPoint", "OperatorMean", "ExpansionMean"}


def test_the_maths_modules_define_only_the_allowed_classes():
    defined = [node.name for module in MATHS for node in ast.walk(_tree(module))
               if isinstance(node, ast.ClassDef)]
    assert sorted(defined) == sorted(MATHS_CLASSES), set(defined) ^ MATHS_CLASSES


# Only cli makes the output: it makes --out and its CSVs' temporary files
# before any check runs, and moves each CSV into place. No other module
# probes a path or makes one.
OUTPUT_CALLS = {"mkdir", "makedirs", "pathconf", "lexists", "replace", "touch"}


def _called_names(tree: ast.Module) -> set[str]:
    return {node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


@pytest.mark.parametrize("module", ("config", "records", "checks") + MATHS)
def test_only_cli_makes_or_probes_output_paths(module):
    assert not _called_names(_tree(module)) & OUTPUT_CALLS



# Tolerances belong to the checks that judge a result: the maths modules
# compute, and refuse only what their boundaries refuse.
@pytest.mark.parametrize("module", ("frames", "gaussian", "rules"))
def test_maths_modules_define_no_tolerance(module):
    assigned = [node.id for node in ast.walk(_tree(module))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    assert not [name for name in assigned if name.endswith(("_RTOL", "_ATOL"))]
