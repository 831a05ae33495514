"""Source hygiene that a linter would otherwise check: no module under
src/qetude imports a name it never uses (the package __init__ re-exports on
purpose and is skipped)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qetude"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # string annotations such as -> "MPoly"
        note = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= used_names(ast.parse(note.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text())
    unused = imported_names(tree) - used_names(tree)
    assert not unused, f"{module} imports unused names: {sorted(unused)}"


def test_flags_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport os\nimport re\n"
                     "from x import Y\nos.sep\ndef f(a: 'Y') -> 'Fraction': pass\n")
    assert imported_names(tree) - used_names(tree) == {"re"}
