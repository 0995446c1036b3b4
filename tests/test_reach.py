"""Every function and method defined in src/dreg runs under some CLI verb,
and every defaulted parameter of one takes another value under some verb.

Each request of the four benchmark pools, and each request below that the
pools never send, runs in-process through `dreg.cli.main` under a call
hook.  A definition that none of them enters is listed in
`conftest.UNREACHED` with its reason, or it leaves src/.  A defaulted
parameter that every call leaves at its default (a knob no request turns)
is listed in `conftest.UNTURNED` with its reason, or it becomes a constant.
"""

import ast
import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import pytest

import dreg
import dreg.cli
import dreg.corpus

from conftest import UNREACHED, UNTURNED, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src" / "dreg"
Request = WORKLOADS.Request

DIAGONAL = "rank 2\n1/x ; 0\n0 ; 1/x\n"


def _refused(key: str, argv: tuple, *files) -> Request:
    return Request(key, argv, files=files, exit_code=1)


def _bad_chart(key: str, content: str) -> Request:
    return _refused(key, ("theorem", "--file", f"reach/{key}.chart"),
                    (f"reach/{key}.chart", content))


def _bad_system(key: str, content: str) -> Request:
    return _refused(key, ("system", "--file", f"reach/{key}.sys"),
                    (f"reach/{key}.sys", content))


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
    # the input branches of the verbs
    Request("fuchs-point", ("fuchs", "x*d - 1", "--point", "2")),
    Request("fuchs-file", ("fuchs", "--file", "reach/euler.op"),
            files=(("reach/euler.op", "# Euler\nx*d -\n  5\n"),)),
    _refused("missing-file", ("fuchs", "--file", "reach/missing.op")),
    _refused("no-expression", ("fuchs",)),
    _refused("zero-operator", ("fuchs", "0")),
    _bad_chart("chart-repeated-header", "n 1\nn 1\nr 1\nrank 1\ngamma 1\n0\n"),
    _bad_chart("chart-missing-header", "n 1\nrank 1\ngamma 1\n0\n"),
    _bad_chart("chart-rank-zero", "n 1\nr 1\nrank 0\ngamma 1\n"),
    _bad_chart("chart-no-block", "n 1\nr 1\nrank 1\n0\n"),
    _bad_chart("chart-cut-short", "n 1\nr 1\nrank 2\ngamma 1\n0 ; 0\n"),
    _bad_chart("chart-row-length", "n 1\nr 1\nrank 2\ngamma 1\n0\n0 ; 0\n"),
    _bad_chart("chart-trailing-line", "n 1\nr 1\nrank 1\ngamma 1\n0\n0\n"),
    _bad_system("system-bad-head", "rank two\n0\n"),
    _bad_system("system-few-rows", "rank 2\n0 ; 0\n"),
    _bad_system("system-row-length", "rank 2\n0 ; 0\n0\n"),
    _refused("theorem-no-input", ("theorem",)),
    _refused("negative-steps", ("system", "--file", "reach/airy.sys", "--max-steps", "-1")),
    Request("charvar-budget", ("charvar", "--budget", "500", "--vars", "x,y", "x*dx + 1 ; dy")),
    Request("holonomic-budget", ("holonomic", "--budget", "3", "--vars", "x,y",
                                 WORKLOADS.CLIFF_WEYL), exit_code=2),
    # the parser's sums and powers of unlike denominators and of zero
    Request("sum-unlike-denominators", ("fuchs", "d - 1/x + 1/(x + 1)")),
    Request("power-of-fraction", ("fuchs", "d - (1/x)^2")),
    Request("power-of-zero", ("fuchs", "d - 0^2")),
    Request("weyl-cancelled-sum", ("charvar", "--vars", "x,y", "dx + x - x ; dy")),
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


def defaulted_parameters() -> dict:
    """{code: (module.qualname, {parameter: default})} of every function and
    method that src/dreg defines at module or class level with a defaulted
    parameter, keyed by the code object a call enters.  A nested function's
    defaults are made per call of the function around it, and a generator's
    later resumes enter its code with reassigned locals; neither is read."""
    table = {}
    for name in dreg._SUBMODULES:
        for value in vars(importlib.import_module(f"dreg.{name}")).values():
            for member in vars(value).values() if inspect.isclass(value) else (value,):
                # a static or class method wraps its function in __func__
                f = getattr(member, "__func__", member)
                f = inspect.unwrap(f) if callable(f) else None
                if (not inspect.isfunction(f) or inspect.isgeneratorfunction(f)
                        or Path(f.__code__.co_filename).parent != SRC):
                    continue
                defaults = {p.name: p.default for p in inspect.signature(f).parameters.values()
                            if p.default is not p.empty}
                if defaults:
                    table[f.__code__] = (
                        f"{Path(f.__code__.co_filename).stem}.{f.__qualname__}", defaults)
    return table


def _is_default(value, default) -> bool:
    return value is default or (type(value) is type(default) and value == default)


def entered_functions(requests, directory: Path) -> tuple[set[str], set[str], dict]:
    """(module.qualname of every function of src/dreg the requests enter,
    `module.qualname(parameter)` of every defaulted parameter of an entered
    function that no call sets to another value, {request key: exit code}),
    running each request from `directory`."""
    codes = set()
    table = defaulted_parameters()
    # the parameters every call so far left at their default, by code
    at_default = {code: dict(defaults) for code, (_, defaults) in table.items()}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes.add(code)
            left = at_default.get(code)
            if left:
                values = frame.f_locals
                for name in [n for n, d in left.items() if not _is_default(values[n], d)]:
                    del left[name]

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
    unturned = {f"{table[code][0]}({name})" for code, left in at_default.items()
                if code in codes for name in left}
    return entered, unturned, exits


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
    _, entered, _, _ = trace
    defined = set().union(*map(defined_functions, SRC.glob("*.py")))
    unreached = defined - entered
    assert not unreached - set(UNREACHED), \
        f"no request enters: {sorted(unreached - set(UNREACHED))}"
    assert not set(UNREACHED) - unreached, \
        f"listed as unreached but entered: {sorted(set(UNREACHED) - unreached)}"


def test_every_defaulted_parameter_takes_another_value(trace):
    _, _, unturned, _ = trace
    assert not unturned - set(UNTURNED), \
        f"no request sets: {sorted(unturned - set(UNTURNED))}"
    assert not set(UNTURNED) - unturned, \
        f"listed as unturned but set: {sorted(set(UNTURNED) - unturned)}"


def test_every_request_exits_as_expected(trace):
    requests, _, _, exits = trace
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
