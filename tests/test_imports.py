"""Every name a module of dreg imports is used in that module, and every
function, class and method it defines is used somewhere in src/.

`__init__.py` is left out of the import check: it imports names to
re-export them, and a re-exported definition counts as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dreg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# definitions with no caller in src/ that stay, each with its reason
KEPT = {
    "polynomials.squarefree_part":
        "the gcd-free basis of closed points of degree > 1 (ROADMAP item 2) builds on it",
    "dmod.verify_components_both_ways": "the gate of charvar from the singular locus (ROADMAP item 4)",
    "systems.ConnectionSystem.companion": "test oracle: the system of a scalar operator",
}


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


def read_names(node: ast.AST) -> set[str]:
    """Names one node reads: a Name's own, and those of a quoted annotation
    it carries."""
    out = {node.id} if isinstance(node, ast.Name) else set()
    for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
        for quoted in ast.walk(note) if note else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                out |= used_names(ast.parse(quoted.value, mode="eval"))
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    return set().union(*map(read_names, ast.walk(tree)))


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


def definitions(tree: ast.Module, module: str) -> dict[str, ast.AST]:
    """{module.name or module.Class.method: its node} for the top-level
    functions and classes and their methods, dunder methods aside: the
    language calls those."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    out[f"{module}.{node.name}.{sub.name}"] = sub
    return out


def referenced_names(node: ast.AST) -> set[str]:
    """Names one node reads, the attribute it takes and the names it
    imports (which is how __init__.py re-exports)."""
    out = read_names(node)
    if isinstance(node, ast.Attribute):
        out.add(node.attr)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        out |= set(imported_names(ast.Module([node], [])))
    return out


def owned_references(tree: ast.Module, module: str, defs: dict) -> dict[str, set]:
    """{owner: the names it references}, the owner of a node being the
    innermost definition in `defs` around it, or the module's own code."""
    owner_of = {node: name for name, node in defs.items()}
    out: dict[str, set] = {}
    todo = [(tree, module)]
    while todo:
        node, owner = todo.pop()
        owner = owner_of.get(node, owner)
        out.setdefault(owner, set()).update(referenced_names(node))
        todo.extend((child, owner) for child in ast.iter_child_nodes(node))
    return out


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions of the given modules ({name: source}) that no live code
    references by name.

    A module's own code is live.  A definition is live when live code
    outside its own body references its name: a name read only inside the
    definition itself (a recursive call, a method calling itself on
    another object) does not count, and a definition that only dead ones
    reference is dead too.  The dead set grows to a fixed point.
    """
    refs, bare = {}, {}
    for module, text in sources.items():
        tree = ast.parse(text)
        defs = definitions(tree, module)
        refs.update(owned_references(tree, module, defs))
        bare.update((name, name.rpartition(".")[2]) for name in defs)
    dead: set[str] = set()
    while True:
        found = {name for name in bare if name not in dead and not any(
            bare[name] in names for owner, names in refs.items()
            if owner not in dead and owner != name and not owner.startswith(name + "."))}
        if not found:
            return sorted(dead)
        dead |= found


def test_no_dead_definitions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    dead = set(dead_definitions(sources))
    assert not dead - set(KEPT), f"defined but never used in src/: {sorted(dead - set(KEPT))}"
    assert not set(KEPT) - dead, f"kept as unused but now used: {sorted(set(KEPT) - dead)}"


def test_finds_a_dead_definition():
    sources = {"a": "def used():\n    pass\n\ndef unused():\n    pass\n\n"
                    "class C:\n    def __eq__(self, other):\n        return True\n\n"
                    "    def m(self):\n        pass\n\n    def idle(self):\n        pass\n",
               "b": "from a import C, used\nused()\nC().m()\n"}
    assert dead_definitions(sources) == ["a.C.idle", "a.unused"]
    # a re-export by import counts as a use
    sources["__init__"] = "from .a import unused\n"
    assert dead_definitions(sources) == ["a.C.idle"]
    # a name read only in its own body does not count, and what only dead
    # definitions read is dead too
    sources["c"] = ("def loop(n):\n    return loop(n - 1) + helper()\n\n"
                    "def helper():\n    return 0\n\n"
                    "class D:\n    def walk(self, other):\n        return other.walk(self)\n")
    assert dead_definitions(sources) == ["a.C.idle", "c.D", "c.D.walk", "c.helper", "c.loop"]
