"""Every name a module of dreg imports is used in that module.

`__init__.py` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dreg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} for every import in the module, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for quoted in ast.walk(note) if note else ():
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    out |= used_names(ast.parse(quoted.value, mode="eval"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_finds_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Iterable, Sequence\n"
                     "def f(x: 'Sequence[int]') -> 'Iterable':\n    'math'\n")
    assert set(imported_names(tree)) - used_names(tree) == {"math"}
