"""The package imports nothing outside the standard library, and its
modules import each other at module level only, with no cycle."""

import ast
import graphlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numtext"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imported_top_level_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_stdlib_and_numtext(path):
    outside = {name for name in _imported_top_level_modules(path) if name not in sys.stdlib_module_names}
    assert outside <= {"numtext"}, f"{path.name} imports {sorted(outside - {'numtext'})}"


def _package_imports(node: ast.AST) -> set[str]:
    """The package modules an import statement names: ``__init__`` for the package itself."""
    if isinstance(node, ast.Import):
        dotted = [alias.name.split(".") for alias in node.names if alias.name.split(".")[0] == "numtext"]
        return {parts[1] if len(parts) > 1 else "__init__" for parts in dotted}
    if not isinstance(node, ast.ImportFrom):
        return set()
    module = node.module or ""
    if not node.level:
        if module.split(".")[0] != "numtext":
            return set()
        module = module[len("numtext") :].lstrip(".")
    if module:
        return {module.split(".")[0]}
    return {alias.name if alias.name in MODULES else "__init__" for alias in node.names}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_no_package_module_inside_a_function(path):
    inside = [
        f"{path.name}:{node.lineno}"
        for function in ast.walk(_tree(path))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(function)
        if _package_imports(node)
    ]
    assert inside == []


def test_no_cycle_among_the_modules_imports_of_each_other():
    graph = {path.stem: set().union(*map(_package_imports, ast.walk(_tree(path)))) for path in PACKAGE.glob("*.py")}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
