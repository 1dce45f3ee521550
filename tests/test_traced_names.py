"""Every function that the benchmark traces by name exists in the package.

``perfbench`` reads a per-layer metric of a name it never saw as 0, so a
traced function that is renamed or deleted would silently zero its
metrics.  Both sides are read with ``ast``; nothing is imported or run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLES = {"run.py": ("CALLS", "SELF", "KERNELS", "FILE_RATES", "COV_BUILDERS",
                     "RANK_SELECTORS"),
          "tracer.py": ("WORK", "FIT_FUNCTIONS")}


def _strings(node):
    """The string constants of a literal list, set or dict's keys, also
    inside a call such as ``frozenset({...})``."""
    if isinstance(node, ast.Call):
        return [s for arg in node.args for s in _strings(arg)]
    items = node.keys if isinstance(node, ast.Dict) else node.elts
    return [item.value for item in items if isinstance(item, ast.Constant)]


def traced_names():
    names = set()
    for file, tables in TABLES.items():
        tree = ast.parse((ROOT / "perfbench" / file).read_text())
        found = {target.id: node.value for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and target.id in tables}
        assert set(found) == set(tables), f"{file} lacks {set(tables) - set(found)}"
        names.update(name for value in found.values() for name in _strings(value))
    return sorted(names)


def public_functions(module):
    tree = ast.parse((ROOT / "src" / "tuckerfactor" / f"{module}.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_tables_found():
    assert len(traced_names()) >= 29


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_public_function(name):
    module, function = name.split(".")
    assert function in public_functions(module), \
        f"tuckerfactor.{module} defines no public function {function}"
