"""Every name a module of dreg or a test file imports is used in that
file, and every function, class and method dreg defines is used somewhere
in src/.  An import is not a use: a definition that is only imported
somewhere, `__init__.py` included, is dead.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dreg"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(TESTS.glob("*.py"))

# definitions with no caller in src/ that stay, each with its reason
KEPT = {
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
    """Names one node reads: a Name's own unless it binds it, and those of a
    quoted annotation it carries."""
    out = {node.id} if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else set()
    for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
        for quoted in ast.walk(note) if note else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                out |= used_names(ast.parse(quoted.value, mode="eval"))
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    return set().union(*map(read_names, ast.walk(tree)))


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
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
    functions and classes and their methods, dunder functions and methods
    aside: the language calls those (a module's `__getattr__`, PEP 562)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) or (
                isinstance(node, ast.FunctionDef) and not (
                    node.name.startswith("__") and node.name.endswith("__"))):
            out[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    out[f"{module}.{node.name}.{sub.name}"] = sub
    return out


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_bindings(scope: ast.AST) -> set[str]:
    """Names a function, lambda or comprehension binds in its own scope:
    parameters, targets, nested definitions and imports, but not what its
    nested scopes bind."""
    if isinstance(scope, FUNCTIONS):
        args = scope.args
        out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
               + [args.vararg, args.kwarg] if a}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        out, todo = set(), list(scope.generators)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= set(imported_names(ast.Module([node], [])))
        if not isinstance(node, FUNCTIONS + COMPREHENSIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def referenced_names(node: ast.AST, shadowed: set[str]) -> set[str]:
    """Names one node reads, less those a local binding shadows, and the
    attribute it takes.  An import binds a name and reads none."""
    out = read_names(node) - shadowed
    if isinstance(node, ast.Attribute):
        out.add(node.attr)
    return out


def owned_references(tree: ast.Module, module: str, defs: dict) -> dict[str, set]:
    """{owner: the names it references}, the owner of a node being the
    innermost definition in `defs` around it, or the module's own code.

    Inside a function, lambda or comprehension, a name that scope binds is
    a local and not a reference; a comprehension's first iterable is read in
    the enclosing scope.
    """
    owner_of = {node: name for name, node in defs.items()}
    outer: dict[ast.AST, set] = {}
    out: dict[str, set] = {}
    todo = [(tree, module, set())]
    while todo:
        node, owner, shadowed = todo.pop()
        owner = owner_of.get(node, owner)
        shadowed = outer.pop(node, shadowed)
        out.setdefault(owner, set()).update(referenced_names(node, shadowed))
        if isinstance(node, COMPREHENSIONS):
            outer[node.generators[0].iter] = shadowed
        if isinstance(node, FUNCTIONS + COMPREHENSIONS):
            shadowed = shadowed | local_bindings(node)
        todo.extend((child, owner, shadowed) for child in ast.iter_child_nodes(node))
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
    # an import is no use: not a re-export from __init__, nor one inside a
    # module's __getattr__, which the language calls, or a helper it calls
    sources["__init__"] = "from .a import unused\n"
    assert dead_definitions(sources) == ["a.C.idle", "a.unused"]
    sources["__init__"] = ("def __getattr__(name):\n    return _exports()[name]\n\n"
                           "def _exports():\n    from .a import unused\n    return locals()\n")
    assert dead_definitions(sources) == ["a.C.idle", "a.unused"]
    # an import followed by a call is: the call reads the name
    sources["__init__"] = "from .a import unused\nunused()\n"
    assert dead_definitions(sources) == ["a.C.idle"]
    # a name read only in its own body does not count, and what only dead
    # definitions read is dead too
    sources["c"] = ("def loop(n):\n    return loop(n - 1) + helper()\n\n"
                    "def helper():\n    return 0\n\n"
                    "class D:\n    def walk(self, other):\n        return other.walk(self)\n")
    assert dead_definitions(sources) == ["a.C.idle", "c.D", "c.D.walk", "c.helper", "c.loop"]
    # a binding target is no reference, nor is a read of a local that shadows
    # the definition; a comprehension's first iterable is read outside it
    sources["e"] = ("def item(n):\n    return n\n\n"
                    "def rows():\n    return []\n\n"
                    "def arg():\n    pass\n\n"
                    "NAMES = [item.name for item in rows()]\n"
                    "ROWS = [rows for rows in rows()]\n"
                    "check = lambda arg: arg\n")
    assert dead_definitions(sources) == ["a.C.idle", "c.D", "c.D.walk", "c.helper", "c.loop",
                                         "e.arg", "e.item"]
