"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numtext"


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
