"""Command-line interface.

Exit codes: 0 analysis completed (whatever the verdict), 1 input error or
a reader that closed stdout before the report was written (`dreg ... |
head`), 2 resource budget exceeded, 3 internal contradiction between
provably equivalent tests.  Reports are deterministic: identical inputs
produce byte-identical JSON.

A verb reaches the analyses as attributes of the package
(`dreg.regularity.fuchs_regular_at`), which load on its first call, so
building the parser loads no analysis module.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import dreg

from . import __version__
from .errors import DEFAULT_BUDGET, BudgetExceeded, ContradictionError

SCHEMA_VERSION = "dreg-report/1"


class InputError(ValueError):
    pass


def parse_point(text: str):
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return dreg.regularity.INFINITY
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot read point {text!r}: {exc}") from None


def _report(command: str, inputs: dict, verdicts: list, certificates: list,
            transcripts: list, summary: dict | None = None) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "certificates": certificates,
        "transcripts": transcripts,
    }
    if summary is not None:
        report["summary"] = summary
    return report


def _read_lines(path: str) -> list[str]:
    """The lines of a file that are neither blank nor comments, unstripped."""
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {p}")
    return [ln for ln in p.read_text().splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


def _read_source(args) -> str:
    if getattr(args, "file", None):
        return "\n".join(_read_lines(args.file))
    if getattr(args, "expression", None):
        return args.expression
    raise InputError("provide an inline expression or --file")


def _operator(args) -> dreg.operators.UnivarOperator:
    p = dreg.parser.parse_operator(_read_source(args))
    if p.is_zero():
        raise InputError("the zero operator has no analysis")
    return p


# -- verb implementations -------------------------------------------------


def cmd_fuchs(args) -> dict:
    p = _operator(args)
    if args.point is None:
        report = dreg.regularity.regular_on_projective_line(p)
        return _report("fuchs", {"operator": dreg.parser.format_operator(p)},
                       [{"method": "fuchs", "point": "projective line",
                         "verdict": report.verdict}],
                       [e.to_dict() for e in report.points], [])
    point = parse_point(args.point)
    cert = dreg.regularity.fuchs_regular_at(p, point)
    return _report("fuchs",
                   {"operator": dreg.parser.format_operator(p), "point": str(point)},
                   [{"method": "fuchs", "point": str(point), "verdict": cert.verdict}],
                   [cert.to_dict()], [])


def cmd_theta(args) -> dict:
    p = _operator(args)
    ok, witness = dreg.regularity.theta_regular_at_zero(p)
    verdict = dreg.regularity.REGULAR if ok else dreg.regularity.IRREGULAR
    return _report("theta", {"operator": dreg.parser.format_operator(p)},
                   [{"method": "theta", "point": "0", "verdict": verdict}],
                   [{"theta_form": str(witness)}], [])


def cmd_newton(args) -> dict:
    p = _operator(args)
    point = parse_point(args.point or "0")
    np_ = dreg.regularity.newton_polygon(p, point)
    regular = list(np_.slopes) == [Fraction(0)]
    verdict = dreg.regularity.REGULAR if regular else dreg.regularity.IRREGULAR
    return _report("newton",
                   {"operator": dreg.parser.format_operator(p), "point": str(point)},
                   [{"method": "newton", "point": str(point), "verdict": verdict}],
                   [np_.to_dict()], [])


def cmd_kashiwara(args) -> dict:
    p = _operator(args)
    point = parse_point(args.point or "0")
    cert = dreg.dmod.kashiwara_regular_at(p, point)
    verdict = dreg.regularity.REGULAR if cert.regular else dreg.regularity.IRREGULAR
    return _report("kashiwara",
                   {"operator": dreg.parser.format_operator(p), "point": str(point)},
                   [{"method": "kashiwara", "point": str(point), "verdict": verdict}],
                   [cert.to_dict()], [])


def cmd_compare(args) -> dict:
    p = _operator(args)
    point = parse_point(args.point or "0")
    rep = dreg.dmod.fuchs_kashiwara_equivalence(p, point)
    f, k = rep.verdicts
    report = _report(
        "compare", {"operator": dreg.parser.format_operator(p), "point": str(point)},
        [{"method": "fuchs", "point": str(point), "verdict": f},
         {"method": "kashiwara", "point": str(point), "verdict": k},
         {"method": "agreement", "point": str(point),
          "verdict": "agree" if rep.agree else "disagree"}],
        [rep.to_dict()], [],
        summary={"fuchs": f, "kashiwara": k, "agree": rep.agree})
    if not rep.agree:
        raise ContradictionError("Fuchs and Kashiwara verdicts disagree",
                                 details=report)
    return report


def _ring_vars(args) -> tuple:
    if args.vars:
        return tuple(v.strip() for v in args.vars.split(",") if v.strip())
    return ("x",)


def _dimension_verdicts(ideal, n: int, budget: int) -> list:
    dims = dreg.dmod.dimension_report(ideal, n, budget)
    return [{"method": "dimension", "verdict": str(dims.dimension)},
            {"method": "holonomic", "verdict": str(dims.holonomic)},
            {"method": "bernstein", "verdict": str(dims.bernstein)}]


def cmd_charvar(args) -> dict:
    variables = _ring_vars(args)
    gens = dreg.parser.parse_weyl_generators(_read_source(args), variables)
    n = len(variables)
    ideal = dreg.weyl.characteristic_ideal(gens, budget=args.budget)
    cv = dreg.dmod.decompose_symbol_ideal(ideal, n, budget=args.budget)
    verdicts = ([{"method": "charvar", "verdict": f"{len(cv.components)} components"}]
                + _dimension_verdicts(ideal, n, args.budget))
    return _report("charvar",
                   {"generators": [str(g) for g in gens],
                    "vars": list(variables)},
                   verdicts, [cv.to_dict()], [])


def cmd_holonomic(args) -> dict:
    variables = _ring_vars(args)
    gens = dreg.parser.parse_weyl_generators(_read_source(args), variables)
    n = len(variables)
    ideal = dreg.weyl.characteristic_ideal(gens, budget=args.budget)
    return _report("holonomic",
                   {"generators": [str(g) for g in gens], "vars": list(variables)},
                   _dimension_verdicts(ideal, n, args.budget),
                   [{"characteristic_ideal": [str(g) for g in ideal.gens]}], [])


def cmd_polelattice(args) -> dict:
    pl = dreg.polelattice
    chart = pl.NCChart(args.n, args.r)
    rep = pl.pole_filtration_annihilator(chart, args.bound)
    good, transcript = pl.goodness_scan(chart, args.bound)
    incl = pl.prop21_inclusion(rep, chart, min(args.bound, 4))
    verdicts = [
        {"method": "annihilator", "verdict":
            "matches" if rep.matches_ideal else "mismatch"},
        {"method": "radical", "verdict":
            str(dreg.ideals.is_radical_squarefree_monomial(rep.ideal))},
        {"method": "goodness", "verdict": str(good)},
        {"method": "inclusion", "verdict": str(incl.holds)},
    ]
    return _report("polelattice", {"n": args.n, "r": args.r, "bound": args.bound},
                   verdicts, [rep.to_dict()],
                   [{"goodness": list(islice(transcript, 50))}, incl.to_dict()])


def _read_chart_file(path: str):
    lines = [ln.strip() for ln in _read_lines(path)]
    header = {}
    idx = 0
    while idx < len(lines) and lines[idx].split()[0] in ("n", "r", "rank"):
        key, value = lines[idx].split()
        if key in header:
            raise InputError(f"chart file repeats the {key!r} header")
        header[key] = int(value)
        idx += 1
    for key in ("n", "r", "rank"):
        if key not in header:
            raise InputError(f"chart file is missing the {key!r} header")
    n, r, rank = header["n"], header["r"], header["rank"]
    if rank < 1:
        raise InputError(f"chart rank must be at least 1, got {rank}")
    coords = dreg.weyl.coordinate_names(n)
    gammas = []
    for l in range(n):
        if idx >= len(lines) or lines[idx].split() != ["gamma", str(l + 1)]:
            raise InputError(f"expected 'gamma {l+1}' block in {Path(path)}")
        idx += 1
        rows = []
        for _ in range(rank):
            if idx >= len(lines):
                raise InputError(f"chart file ended inside gamma block {l+1}")
            entries = [dreg.parser.parse_polynomial(cell, coords)
                       for cell in lines[idx].split(";")]
            if len(entries) != rank:
                raise InputError(f"gamma row has {len(entries)} entries, expected {rank}")
            rows.append(entries)
            idx += 1
        gammas.append(rows)
    if idx < len(lines):
        raise InputError(f"unexpected line after gamma block {n}: {lines[idx]!r}")
    chart = dreg.polelattice.NCChart(n, r)
    return chart, dreg.polelattice.LogLattice(chart, rank, gammas)


def cmd_theorem(args) -> dict:
    if args.backward is not None:
        p = dreg.parser.parse_operator(args.backward)
        rep = dreg.polelattice.theorem_backward_extraction(p, args.pole_bound)
        return _report("theorem",
                       {"direction": "backward", "operator": dreg.parser.format_operator(p),
                        "pole_bound": args.pole_bound},
                       [{"method": "backward-extraction", "verdict": rep.verdict}],
                       [rep.to_dict()], [])
    if not args.file:
        raise InputError("theorem needs --file CHART or --backward EXPR")
    chart, lattice = _read_chart_file(args.file)
    rep = dreg.polelattice.theorem_forward_filtration(lattice, chart, args.bound)
    return _report("theorem",
                   {"direction": "forward", "file": args.file,
                    "n": chart.n, "r": chart.r, "rank": lattice.rank},
                   [{"method": "forward-filtration",
                     "verdict": "certified" if rep.certified else "failed"}],
                   [rep.to_dict()], [])


def _read_system_file(path: str) -> dreg.systems.ConnectionSystem:
    lines = [ln.strip() for ln in _read_lines(path)]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "rank" or not head[1].isdigit() or int(head[1]) < 1:
        raise InputError("system file must start with 'rank m', m >= 1 an integer")
    rank = int(head[1])
    if len(lines) != rank + 1:
        raise InputError(f"expected {rank} matrix rows, found {len(lines) - 1}")
    matrix = []
    for ln in lines[1:]:
        entries = [dreg.parser.parse_ratfun(cell) for cell in ln.split(";")]
        if len(entries) != rank:
            raise InputError(f"matrix row has {len(entries)} entries, expected {rank}")
        matrix.append(entries)
    return dreg.systems.ConnectionSystem(matrix)


def cmd_system(args) -> dict:
    system = _read_system_file(args.file)
    rep = dreg.systems.regular_system_report(system, args.max_steps)
    verdicts = [{"method": "system", "verdict": rep.verdict}]
    for pt in rep.points:
        verdicts.append({"method": "fuchs", "point": str(pt.point),
                         "verdict": pt.fuchs.verdict})
        verdicts.append({"method": "saturation", "point": str(pt.point),
                         "verdict": pt.saturation.status})
    return _report("system", {"file": args.file, "rank": system.rank},
                   verdicts, [rep.to_dict()], [rep.cyclic.to_dict()])


def cmd_corpus(args) -> dict:
    corpus = dreg.corpus
    if args.emit:
        target = Path(args.emit)
        target.mkdir(parents=True, exist_ok=True)
        files = {**corpus.OPERATOR_FILES, **corpus.SYSTEM_FILES, **corpus.CHART_FILES}
        for name, content in files.items():
            (target / name).write_text(content)
        return _report("corpus", {"emit": str(target)},
                       [{"method": "corpus", "verdict": f"wrote {len(files)} files"}],
                       [], [])
    entries = [{"name": e.name, "expression": e.expression,
                "description": e.description,
                "expected": e.global_verdict} for e in corpus.OPERATORS]
    return _report("corpus", {}, [{"method": "corpus",
                                   "verdict": f"{len(entries)} operators"}],
                   entries, [])


# -- rendering & dispatch --------------------------------------------------------


def render_text(report: dict) -> str:
    lines = [f"dreg {report['tool_version']} — {report['command']}"]
    for key, value in report["inputs"].items():
        lines.append(f"  {key}: {value}")
    for v in report["verdicts"]:
        point = f" at {v['point']}" if "point" in v else ""
        lines.append(f"{v['method']}{point}: {v['verdict']}")
    return "\n".join(lines)


def render_json(report: dict) -> str:
    """The bytes of json.dumps(report, sort_keys=True, indent=2), for what
    reports hold: dicts with str keys, lists, tuples, str, int, bool and
    None.  With `indent` set, json.dumps runs its pure-Python encoder;
    this writer does the same walk with fewer calls."""
    out: list[str] = []
    _write_json(report, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append the JSON text of value, nested at the indent `newline` ends in.
    A dict or list writes the str, int, bool and None values in it from
    its own loop (`_SCALARS`), with no call of this function per leaf."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            item = value[key]
            write = _SCALARS.get(type(item))
            if write is None:
                _write_json(item, inner, out)
            else:
                out.append(write(item))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            write = _SCALARS.get(type(item))
            if write is None:
                _write_json(item, inner, out)
            else:
                out.append(write(item))
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
# the writer of each scalar type, by exact type: a subclass takes the checks above
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: _JSON_CONSTANTS.__getitem__, type(None): _JSON_CONSTANTS.__getitem__}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves no state in it.
    Its `verbs` attribute holds each verb's own parser by name (the
    subparsers' `choices`)."""
    ap = argparse.ArgumentParser(
        prog="dreg",
        description="Exact regularity analyses for differential operators, "
                    "connection systems and pole lattices")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)
    ap.verbs = sub.choices

    def common(sp, expression=True):
        if expression:
            sp.add_argument("expression", nargs="?", help="inline expression")
            sp.add_argument("--file", help="read the expression from a file")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("fuchs", help="Fuchs order criterion")
    common(sp)
    sp.add_argument("--point", help="rational point or 'inf' (default: all of P^1)")
    sp.set_defaults(fn=cmd_fuchs)

    sp = sub.add_parser("theta", help="Euler-form coefficient criterion at 0")
    common(sp)
    sp.set_defaults(fn=cmd_theta)

    sp = sub.add_parser("newton", help="Newton polygon slopes")
    common(sp)
    sp.add_argument("--point", help="rational point or 'inf' (default 0)")
    sp.set_defaults(fn=cmd_newton)

    sp = sub.add_parser("kashiwara", help="graded-annihilator criterion")
    common(sp)
    sp.add_argument("--point", help="rational point or 'inf' (default 0)")
    sp.set_defaults(fn=cmd_kashiwara)

    sp = sub.add_parser("compare", help="run both criteria and compare")
    common(sp)
    sp.add_argument("--point", help="rational point or 'inf' (default 0)")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("charvar", help="characteristic variety of a left ideal")
    common(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="work budget for basis computations")
    sp.add_argument("--vars", help="comma-separated coordinates, e.g. x,y")
    sp.set_defaults(fn=cmd_charvar)

    sp = sub.add_parser("holonomic", help="dimension and holonomicity checks")
    common(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="work budget for basis computations")
    sp.add_argument("--vars", help="comma-separated coordinates")
    sp.set_defaults(fn=cmd_holonomic)

    sp = sub.add_parser("polelattice", help="pole-order filtration certificates")
    common(sp, expression=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--bound", type=int, default=6)
    sp.set_defaults(fn=cmd_polelattice)

    sp = sub.add_parser("theorem", help="comparison-theorem certificates")
    common(sp, expression=False)
    sp.add_argument("--file", help="chart file for the forward direction")
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--backward", help="operator for the backward direction")
    sp.add_argument("--pole-bound", type=int, default=3)
    sp.set_defaults(fn=cmd_theorem)

    sp = sub.add_parser("system", help="connection-system regularity report")
    common(sp, expression=False)
    sp.add_argument("--file", required=True, help=".sys matrix file")
    sp.add_argument("--max-steps", type=int, default=None)
    sp.set_defaults(fn=cmd_system)

    sp = sub.add_parser("corpus", help="list or emit the example corpus")
    common(sp, expression=False)
    sp.add_argument("--emit", help="write corpus files into a directory")
    sp.set_defaults(fn=cmd_corpus)

    return ap


def _check_bounds(args) -> None:
    for name in ("budget", "bound", "pole_bound", "max_steps"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise InputError(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a request that starts with its verb is parsed once, by the verb's own
    # parser; the top-level parser serves --help, --version and the rest
    verb = ap.verbs.get(argv[0]) if argv else None
    try:
        args = ap.parse_args(argv) if verb is None else verb.parse_args(argv[1:])
    except SystemExit as exc:
        # argparse has printed help, the version or its usage message; a
        # usage error is an input error (argparse's 2 means a budget ran out here)
        return 1 if exc.code else 0
    try:
        _check_bounds(args)
        report = args.fn(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 2
    except ContradictionError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        if exc.details:
            print(render_json(exc.details), file=sys.stderr)
        return 3
    text = render_json(report) if args.format == "json" else render_text(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (`dreg ... | head`); point stdout at devnull so
        # that the flush at exit does not raise again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
