"""Every function and method defined in src/dreg runs under some CLI verb.

Each request of the four benchmark pools, and each request below that the
pools never send, runs in-process through `dreg.cli.main` under a call
hook.  A definition that none of them enters is listed in
`conftest.UNREACHED` with its reason, or it leaves src/.
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

import dreg
import dreg.cli
import dreg.corpus

from conftest import UNREACHED, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src" / "dreg"
Request = WORKLOADS.Request

DIAGONAL = "rank 2\n1/x ; 0\n0 ; 1/x\n"

# requests the benchmark pools never send, with the exit code each must give
EXTRA = (
    Request("kashiwara-finite", ("kashiwara", "x^2*d - 1", "--point", "2")),
    Request("kashiwara-inf", ("kashiwara", "x*d - 1", "--point", "inf", "--format", "json")),
    Request("corpus", ("corpus",)),
    Request("corpus-emit", ("corpus", "--emit", "emitted", "--format", "json")),
    Request("text", ("fuchs", "x*d - 1", "--format", "text")),
    Request("system-default-steps", ("system", "--file", "reach/airy.sys"),
            files=(("reach/airy.sys", dreg.corpus.SYSTEM_FILES["airy.sys"]),)),
    Request("system-diagonal", ("system", "--file", "reach/diagonal.sys"),
            files=(("reach/diagonal.sys", DIAGONAL),)),
    Request("charvar-covered", ("charvar", "--vars", "x,y", "x*dx + 1 ; dy")),
    Request("charvar-covered-shift", ("charvar", "--vars", "x,y", "dx - 1 ; dy")),
    Request("weyl-contraction", ("charvar", "--vars", "x,y", "dx*x ; dy*y")),
    Request("product-d-x-d", ("fuchs", "d*x*d")),
    Request("product-power", ("fuchs", "(x*d - 1)^2")),
    Request("product-x-sum", ("fuchs", "x*(d + 1)")),
    Request("product-d-over-x", ("fuchs", "d/x")),
    Request("power-zero", ("fuchs", "(x*d + 1)^0*d")),
    # the coefficient's one gcd, of degrees 7 and 6, goes through GCDHEU
    Request("gcd-heuristic", ("fuchs", "d - (x^7 - 1)/(x^6 - 1)")),
    Request("weyl-power-zero", ("holonomic", "--vars", "x,y", "(x*dx)^0*dx ; dy")),
    # one malformed input per parser error
    Request("bad-character", ("fuchs", "x # d"), exit_code=1),
    Request("bad-paren", ("fuchs", "(x*d"), exit_code=1),
    Request("bad-value", ("fuchs", "x*"), exit_code=1),
    Request("bad-exponent", ("fuchs", "d^x"), exit_code=1),
    Request("bad-trailing", ("fuchs", "x d"), exit_code=1),
    Request("bad-power", ("fuchs", "d^2000"), exit_code=1),
    Request("bad-derivation", ("fuchs", "dy"), exit_code=1),
    Request("bad-symbol", ("fuchs", "q*d"), exit_code=1),
    Request("bad-divide-derivation", ("fuchs", "x/d"), exit_code=1),
    Request("bad-divide-zero", ("fuchs", "d/0"), exit_code=1),
    Request("bad-repeated-var", ("charvar", "--vars", "x,x", "dx"), exit_code=1),
    Request("bad-derivation-var", ("charvar", "--vars", "x,dx", "dx"), exit_code=1),
    Request("bad-weyl-context", ("charvar", "--vars", "x,y", "dz"), exit_code=1),
    Request("bad-weyl-symbol", ("charvar", "--vars", "x,y", "q"), exit_code=1),
    Request("bad-weyl-divide-zero", ("charvar", "--vars", "x,y", "dx/0"), exit_code=1),
    Request("bad-weyl-divide", ("charvar", "--vars", "x,y", "dx/x"), exit_code=1),
    Request("bad-coefficient", ("system", "--file", "reach/deriv.sys"),
            files=(("reach/deriv.sys", "rank 1\nd\n"),), exit_code=1),
    Request("bad-polynomial", ("theorem", "--file", "reach/deriv.chart"),
            files=(("reach/deriv.chart", "n 1\nr 1\nrank 1\ngamma 1\ndx\n"),), exit_code=1),
)


def defined_functions(path: Path) -> set[str]:
    """module.qualname, as `co_qualname` spells it, of every function and
    method the file defines, nested ones included; lambdas and
    comprehensions aside."""
    return {f"{path.stem}.{name}" for name in _qualnames(ast.parse(path.read_text()), "")}


def _qualnames(node: ast.AST, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from _qualnames(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from _qualnames(child, f"{prefix}{child.name}." if isinstance(
                child, ast.ClassDef) else prefix)


def entered_functions(requests, directory: Path) -> tuple[set[str], dict]:
    """(module.qualname of every function of src/dreg the requests enter,
    {request key: exit code}), running each request from `directory`."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits = {}
    # load every submodule, so that no request runs the package's lazy
    # __getattr__, and empty every cache: a cached body runs only on a miss
    for name in dreg._SUBMODULES:
        for value in vars(importlib.import_module(f"dreg.{name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    sys.setprofile(hook)
    try:
        for request in requests:
            for rel, content in request.files:
                path = directory / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                exits[request.key] = dreg.cli.main(list(request.argv))
    finally:
        sys.setprofile(None)
    src = str(SRC)
    entered = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
               if str(Path(code.co_filename).parent) == src}
    return entered, exits


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """(the requests run, what they entered, their exit codes)."""
    directory = tmp_path_factory.mktemp("reach")
    requests = [request for name in ("curves", "systems", "weyl", "polelattice")
                for request in getattr(WORKLOADS, name)(dreg.corpus).pool] + list(EXTRA)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        return (requests, *entered_functions(requests, directory))


def test_every_function_runs_under_some_verb(trace):
    _, entered, _ = trace
    defined = set().union(*map(defined_functions, SRC.glob("*.py")))
    unreached = defined - entered
    assert not unreached - set(UNREACHED), \
        f"no request enters: {sorted(unreached - set(UNREACHED))}"
    assert not set(UNREACHED) - unreached, \
        f"listed as unreached but entered: {sorted(set(UNREACHED) - unreached)}"


def test_every_request_exits_as_expected(trace):
    requests, _, exits = trace
    assert {r.key: exits[r.key] for r in requests if exits[r.key] != r.exit_code} == {}


def test_names_nested_functions_as_the_interpreter_does(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f():\n    def g():\n        return [x for x in ()]\n    return g\n\n"
                    "class C:\n    def m(self):\n        class D:\n            def n(self):\n"
                    "                pass\n        return D\n")
    assert defined_functions(path) == {"m.f", "m.f.<locals>.g", "m.C.m",
                                       "m.C.m.<locals>.D.n"}
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    assert namespace["f"]().__code__.co_qualname == "f.<locals>.g"
    assert namespace["C"]().m().n.__code__.co_qualname == "C.m.<locals>.D.n"
