"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tuckerfactor").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tuckerfactor"}


def imported_roots(tree):
    """The top-level package of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert "__init__.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    roots = set(imported_roots(ast.parse(path.read_text(), filename=str(path))))
    assert roots <= ALLOWED, f"{path.name} imports {sorted(roots - ALLOWED)}"
