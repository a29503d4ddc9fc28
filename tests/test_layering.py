"""Module layering, read from the source with ``ast``: the maths modules
compute arrays and numbers, and only ``records`` and ``checks`` make check
records and time them."""

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
