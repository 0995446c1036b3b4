import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import dreg.corpus
from dreg.cli import build_parser, main, parse_point, render_json
from dreg.operators import UnivarOperator
from dreg.parser import (ParseError, format_operator, parse_operator,
                         parse_weyl_generators)
from dreg.regularity import INFINITY
from dreg.weyl import coordinate_names

from conftest import PERFBENCH, WORKLOADS, random_operator, random_weyl

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "dreg" / "data"
     / "report_schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_round_trip_fuzz_operators(self, rng):
        for _ in range(300):
            p = random_operator(rng, order=3, degree=3, pole=3)
            text = format_operator(p)
            assert parse_operator(text) == p

    def test_round_trip_fuzz_weyl(self, rng):
        for _ in range(300):
            n = rng.choice((1, 2, 3))
            w = random_weyl(rng, n, 3, 4)
            if w.is_zero():
                continue
            text = str(w)
            assert parse_weyl_generators(text, coordinate_names(n))[0] == w

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_operator("x*d +\n  q")
        assert err.value.line == 2 and err.value.col == 3

    def test_multi_generator_split(self):
        gens = parse_weyl_generators("dx ; dy ; x*dx + y*dy", ("x", "y"))
        assert len(gens) == 3


class TestParserReuse:
    """The parser is built once per process; parsing must leave nothing in it."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_each_verb_keeps_its_own_defaults(self):
        ap = build_parser()
        first = ap.parse_args(["polelattice", "--n", "1", "--r", "1"])
        second = ap.parse_args(["theorem", "--file", "F"])
        assert first.bound == 6
        assert second.bound == 4 and second.file == "F"
        assert not hasattr(second, "n")

    def test_a_verb_request_is_parsed_once_by_the_verb(self, capsys, monkeypatch):
        ap = build_parser()

        def refused(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a verb request")

        monkeypatch.setattr(ap, "parse_known_args", refused)
        code, out, _ = run_cli(capsys, "theta", "x*d - 1", "--format", "json")
        assert code == 0 and json.loads(out)["command"] == "theta"

    def test_the_verb_parses_every_benchmark_request_as_the_top_level_does(self):
        ap = build_parser()
        argvs = [request.argv for name in ("curves", "systems", "weyl", "polelattice")
                 for request in getattr(WORKLOADS, name)(dreg.corpus).pool]
        assert len(argvs) == 1283
        for argv in argvs:
            top = vars(ap.parse_args(argv))
            assert top.pop("verb") == argv[0]
            assert vars(ap.verbs[argv[0]].parse_args(argv[1:])) == top

    def test_repeated_request_prints_identical_bytes(self, capsys):
        argv = ("theorem", "--file", str(CORPUS / "euler_lattice.chart"),
                "--format", "json")
        code1, out1, _ = run_cli(capsys, *argv)
        code, _, _ = run_cli(capsys, "polelattice", "--n", "2", "--r", "1",
                             "--bound", "3")
        assert code == 0
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestPointParsing:
    def test_values(self):
        from fractions import Fraction
        assert parse_point("0") == Fraction(0)
        assert parse_point("-3/2") == Fraction(-3, 2)
        assert parse_point("inf") is INFINITY
        assert parse_point("oo") is INFINITY


class TestDocumentedInvocations:
    def test_compare_euler(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "x*d - 5", "--point", "0",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == {"fuchs": "regular",
                                     "kashiwara": "regular", "agree": True}

    def test_charvar_exponential(self, capsys):
        code, out, _ = run_cli(capsys, "charvar", "--vars", "x,y",
                               "y*dx - 1 ; y^2*dy + x", "--format", "json")
        assert code == 0
        report = json.loads(out)
        comps = report["certificates"][0]["components"]
        assert len(comps) == 3
        kinds = sorted(c["kind"] for c in comps)
        assert kinds == ["conormal_divisor", "conormal_point", "zero_section"]

    @pytest.mark.parametrize("expression", ["x*d", "x*d - 5", "x^2*d - 1", "(x-1)*d"])
    def test_charvar_on_the_line_lists_each_component_once(self, capsys, expression):
        # V(x) is proposed as a divisor and as the point x = 0; one ideal is
        # one component
        code, out, _ = run_cli(capsys, "charvar", "--vars", "x", expression,
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"][0]["verdict"] == "2 components"
        comps = report["certificates"][0]["components"]
        assert comps[0]["kind"] == "zero_section"
        assert len({tuple(c["ideal"]) for c in comps}) == 2

    def test_charvar_normal_orders_d_before_x(self, capsys):
        # d_i x_i = x_i d_i + 1, and the report prints the normal-ordered
        # generators, so the two texts give one report
        runs = [run_cli(capsys, "charvar", "--vars", "x,y", text, "--format", "json")
                for text in ("dx*x ; dy*y", "x*dx + 1 ; y*dy + 1")]
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][1] == runs[1][1]

    def test_system_airy(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "corpus", "--emit", str(tmp_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "system",
                               "--file", str(tmp_path / "airy.sys"),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        inf_rows = [v for v in report["verdicts"]
                    if v.get("point") == "inf" and v["method"] == "fuchs"]
        assert inf_rows and inf_rows[0]["verdict"] == "irregular"


class TestExitCodes:
    def test_input_error(self, capsys):
        code, _, err = run_cli(capsys, "fuchs", "x*+d", "--point", "0")
        assert code == 1 and "input error" in err

    def test_unknown_symbol(self, capsys):
        code, _, err = run_cli(capsys, "fuchs", "q + 1", "--point", "0")
        assert code == 1 and "unknown symbol" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "system", "--file", "/nonexistent.sys")
        assert code == 1

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "charvar", "--vars", "x,y",
                               "y*dx - 1 ; y^2*dy + x", "--budget", "1")
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize("argv, message", [
        (("charvar", "--vars", "x,x", "dx"), "repeated"),
        (("charvar", "--vars", "x,d", "d*x"), "named like a derivation"),
        (("holonomic", "--vars", "dz", "dz"), "named like a derivation"),
        (("theorem", "--backward", "d", "--pole-bound", "-3"), "--pole-bound"),
        (("charvar", "--budget", "-5", "dx"), "--budget"),
        (("polelattice", "--n", "1", "--r", "1", "--bound", "-1"), "--bound"),
        (("system", "--file", str(CORPUS / "airy.sys"), "--max-steps", "-1"),
         "--max-steps"),
    ], ids=["repeated-var", "var-d", "var-dz", "pole-bound", "budget", "bound",
            "max-steps"])
    def test_malformed_ring_or_bound(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert "input error" in err and message in err

    @pytest.mark.parametrize("text", ["rank 0\n", "rank\n", "rank -1\n",
                                      "rank 1 1\n-5/x\n", "ranks 1\n-5/x\n",
                                      "rank one\n-5/x\n", "\n"],
                             ids=["zero", "bare", "negative", "extra", "ranks",
                                  "word", "empty"])
    def test_malformed_rank_header(self, capsys, tmp_path, text):
        sys_file = tmp_path / "bad.sys"
        sys_file.write_text(text)
        code, out, err = run_cli(capsys, "system", "--file", str(sys_file))
        assert code == 1 and not out
        assert err == ("input error: system file must start with 'rank m', "
                       "m >= 1 an integer\n")

    @pytest.mark.parametrize("text, message", [
        ("n 1\nr 1\nrank 1\ngamma 1\n1/2\ngamma 1\n3\n",
         "unexpected line after gamma block 1: 'gamma 1'"),
        ("n 1\nr 1\nrank 1\ngamma 1\n1/2\n3\n",
         "unexpected line after gamma block 1: '3'"),
        ("n 2\nr 2\nrank 1\ngamma 2\n1/2\ngamma 1\n3\n", "expected 'gamma 1' block"),
        ("n 2\nr 2\nrank 1\ngamma 1\n1/2\ngamma 1\n3\n", "expected 'gamma 2' block"),
        ("n 1\nr 1\nrank 1\ngamma\n1/2\n", "expected 'gamma 1' block"),
        ("n 1\nr 1\nrank 1\ngamma 1 2\n1/2\n", "expected 'gamma 1' block"),
        ("n 1\nr 1\nrank 1\nrank 1\ngamma 1\n1/2\n", "repeats the 'rank' header"),
        ("n 1\nn 1\nr 1\nrank 1\ngamma 1\n1/2\n", "repeats the 'n' header"),
        ("n 1\nrank 1\ngamma 1\n1/2\n", "missing the 'r' header"),
        ("n 1\nr 1\nrank 0\ngamma 1\n", "chart rank must be at least 1, got 0"),
    ], ids=["gamma-twice", "extra-row", "gamma-order", "gamma-repeat", "gamma-bare",
            "gamma-extra", "rank-twice", "n-twice", "r-missing", "rank-zero"])
    def test_malformed_chart(self, capsys, tmp_path, text, message):
        chart = tmp_path / "bad.chart"
        chart.write_text(text)
        code, out, err = run_cli(capsys, "theorem", "--file", str(chart))
        assert code == 1 and not out
        assert err.startswith("input error: ") and message in err

    def test_shipped_charts_still_read(self, capsys):
        for chart in sorted(CORPUS.glob("*.chart")):
            code, _, err = run_cli(capsys, "theorem", "--file", str(chart))
            assert code == 0, err

    @pytest.mark.parametrize("argv, message", [
        (("fuchs", "--bogus", "d"), "unrecognized arguments: --bogus"),
        (("charvar", "--budget", "x", "dx"), "argument --budget: invalid int value: 'x'"),
        (("fuchs", "d", "--budget", "5"), "unrecognized arguments: --budget 5"),
        (("frobnicate", "d"), "argument verb: invalid choice: 'frobnicate'"),
    ], ids=["unknown-option", "budget-not-int", "budget-without-bases", "unknown-verb"])
    def test_usage_errors_are_input_errors(self, capsys, argv, message):
        # exit 2 is kept for an exceeded work budget
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("usage: dreg") and message in err

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("fuchs", "--help")])
    def test_help_and_version_exit_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out and not err

    def test_usage_error_exit_code_of_the_process(self):
        # the installed entry point raises SystemExit(main())
        proc = subprocess.run([sys.executable, "-m", "dreg.cli", "fuchs", "--bogus", "d"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 1 and "unrecognized arguments: --bogus" in proc.stderr

    def test_reader_closing_early_is_no_traceback(self):
        # `dreg ... | head`: a report far larger than a pipe holds, whose
        # reader takes one byte and closes
        proc = subprocess.Popen([sys.executable, "-m", "dreg.cli", "fuchs", "d - (x + 3)^1000",
                                 "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and not err, err

    def test_analysis_completed_regardless_of_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "fuchs", "x^2*d - 1", "--point", "0")
        assert code == 0 and "irregular" in out

    def test_contradiction_exits_three(self, capsys, monkeypatch):
        # the bug trap: force a disagreeing report through the compare verb
        from dreg import dmod
        from dreg.dmod import EquivalenceReport

        real = dmod.fuchs_kashiwara_equivalence

        def broken(p, point=0):
            rep = real(p, point)
            return EquivalenceReport(rep.point, rep.fuchs, rep.kashiwara, False)

        monkeypatch.setattr(dmod, "fuchs_kashiwara_equivalence", broken)
        code, _, err = run_cli(capsys, "compare", "x*d - 5", "--point", "0")
        assert code == 3 and "contradiction" in err
        # the disagreeing report follows, written like a --format json report
        _, details = err.split("\n", 1)
        report = json.loads(details)
        assert report["summary"]["agree"] is False
        assert details == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.fixture
    def broken_shift(self, monkeypatch):
        # x -> x + c as the identity: every translated test looks at the origin
        from dreg.polynomials import RatFun
        monkeypatch.setattr(RatFun, "shift", lambda self, c: self)

    def test_broken_shift_splits_compare(self, capsys, broken_shift):
        # Fuchs reads the orders at 1 in place; only the graded-annihilator
        # test translates, so a broken shift makes the two sides disagree
        code, _, err = run_cli(capsys, "compare", "(x-1)^2*d - 1", "--point", "1")
        assert code == 3 and "contradiction" in err

    def test_broken_shift_splits_system(self, capsys, tmp_path, broken_shift):
        # Fuchs on the cyclic operator reads 1 in place; saturation translates
        sys_file = tmp_path / "pole.sys"
        sys_file.write_text("rank 2\n0 ; -1\n1/(x-1)^3 ; 0\n")
        code, _, err = run_cli(capsys, "system", "--file", str(sys_file))
        assert code == 3 and "contradiction" in err


class TestChartAtInfinity:
    """Fuchs, Newton and saturation read infinity in place: only the
    graded-annihilator test builds the chart t = 1/x, so a bug in the chart
    can reach one verdict of `compare`, never both."""

    OPERATORS = sorted(CORPUS.glob("*.op"))

    def requests(self):
        for path in self.OPERATORS:
            yield ("fuchs", "--file", str(path), "--format", "json")
            yield ("fuchs", "--file", str(path), "--point", "inf", "--format", "json")
            yield ("newton", "--file", str(path), "--point", "inf", "--format", "json")
        for path in sorted(CORPUS.glob("*.sys")):
            yield ("system", "--file", str(path), "--format", "json")

    def test_fuchs_newton_and_system_build_no_chart(self, capsys, monkeypatch):
        argvs = list(self.requests())
        before = [run_cli(capsys, *argv) for argv in argvs]

        def trap(self):
            raise AssertionError("the chart t = 1/x was built")

        monkeypatch.setattr(UnivarOperator, "at_infinity", trap)
        for argv, expected in zip(argvs, before):
            assert expected[0] == 0 and run_cli(capsys, *argv) == expected, argv

    def test_compare_builds_the_chart_on_the_kashiwara_side_only(self, capsys, monkeypatch):
        real = UnivarOperator.at_infinity
        callers = []

        def traced(self):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(self)

        monkeypatch.setattr(UnivarOperator, "at_infinity", traced)
        for path in self.OPERATORS:
            callers.clear()
            code, _, _ = run_cli(capsys, "compare", "--file", str(path), "--point", "inf")
            assert (code, callers) == (0, ["_localize"]), path.name

    def test_broken_chart_splits_compare(self, capsys, monkeypatch):
        # the chart as the identity: Kashiwara reads Airy at 0, Fuchs at infinity
        monkeypatch.setattr(UnivarOperator, "at_infinity", lambda self: self)
        code, _, err = run_cli(capsys, "compare", "d^2 - x", "--point", "inf")
        assert code == 3 and "contradiction" in err


class TestDeterminismAndSchema:
    VERBS = [
        ("fuchs", "x*d - 5", "--point", "0"),
        ("fuchs", "d^2 - x"),
        ("theta", "d + 5/x"),
        ("newton", "d - 1/x^2", "--point", "0"),
        ("kashiwara", "x*d - 5"),
        ("compare", "x*d - 5", "--point", "inf"),
        ("charvar", "--vars", "x,y", "y*dx - 1 ; y^2*dy + x"),
        ("holonomic", "x*d - 5"),
        ("polelattice", "--n", "2", "--r", "1", "--bound", "4"),
        ("corpus",),
    ]

    @pytest.mark.parametrize("argv", VERBS, ids=lambda a: a[0])
    def test_byte_identical_json(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv, "--format", "json")
        code2, out2, _ = run_cli(capsys, *argv, "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("argv", VERBS, ids=lambda a: a[0])
    def test_schema_valid(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_theorem_forward_from_file(self, capsys, tmp_path):
        run_cli(capsys, "corpus", "--emit", str(tmp_path))
        code, out, _ = run_cli(capsys, "theorem",
                               "--file", str(tmp_path / "plane_lattice.chart"),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["verdicts"][0]["verdict"] == "certified"

    def test_theorem_backward(self, capsys):
        code, out, _ = run_cli(capsys, "theorem", "--backward", "x^2*d - 1",
                               "--pole-bound", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"][0]["verdict"] == "irregular"


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
                | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é—\u2028", "😀", ""]))


class TestRenderJson:
    """render_json writes the bytes of json.dumps(sort_keys=True, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(JSON_SCALARS, lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)), max_leaves=25))
    def test_matches_json_dumps(self, value):
        report = {"nested": value, "": [], "e": {}}
        assert render_json(report) == json.dumps(report, sort_keys=True, indent=2)
        assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_scalar_subclasses(self):
        # the loops write scalars by exact type; a subclass takes the long way
        class Text(str):
            pass

        class Count(int):
            pass

        for value in ({"a": [Text("é"), Count(-3), True, None], "b": (Count(7),)},
                      [Text("x"), {"k": Text("")}], Count(5), Text("t")):
            assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [{"a": 1.5}, {"a": Fraction(1, 2)}, {1: "a"},
                                       [{"x": {None: 0}}], {"s": {1, 2}}])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            render_json(value)

    @pytest.mark.parametrize("argv", TestDeterminismAndSchema.VERBS, ids=lambda a: a[0])
    def test_reports_match_json_dumps(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestCorpus:
    def test_listed_operators_parse(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["certificates"]) >= 10
        for entry in report["certificates"]:
            parse_operator(entry["expression"])

    def test_emitted_files_load(self, capsys, tmp_path):
        run_cli(capsys, "corpus", "--emit", str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert "airy.sys" in names and "euler.op" in names
        assert "plane_lattice.chart" in names
        code, _, _ = run_cli(capsys, "fuchs",
                             "--file", str(tmp_path / "euler.op"))
        assert code == 0


class TestOneBasisPerRequest:
    """charvar and holonomic compute one Weyl basis; its symbols serve the
    dimension and the radical tests, which compute no basis of the symbol
    ideal."""

    def runs(self, monkeypatch):
        # every driver run, reduced basis or unit test, enters the S-pair loop
        import dreg.ideals
        calls = []
        real = dreg.ideals.buchberger_loop

        def counting(gens, keys, budget=dreg.ideals.DEFAULT_BUDGET, known=()):
            gens = list(gens)
            calls.append((gens[0].commutative, gens, list(known)))
            return real(gens, keys, budget, known)

        monkeypatch.setattr(dreg.ideals, "buchberger_loop", counting)
        return calls

    APPELL_F1 = ("--vars", "x,y", "x*dx^2 - x^2*dx^2 + y*dx*dy - x*y*dx*dy + 2/3*dx - 5/2*x*dx"
                                  " - 1/2*y*dy - 1/2 ; y*dy^2 - y^2*dy^2 + x*dx*dy - x*y*dx*dy"
                                  " + 2/3*dy - 7/3*y*dy - 1/3*x*dx - 1/3")

    @pytest.mark.parametrize("argv, covered", [
        (("--vars", "x,y", "y*dx - 1 ; y^2*dy + x"), True),
        (APPELL_F1, False),
        (("--vars", "x", "x*d - 5"), True),
    ], ids=["exponential", "appell-f1", "euler"])
    def test_charvar(self, capsys, monkeypatch, argv, covered):
        calls = self.runs(monkeypatch)
        code, out, _ = run_cli(capsys, "charvar", *argv, "--format", "json")
        assert code == 0
        certificate = json.loads(out)["certificates"][0]
        assert certificate["covered"] is covered
        weyl_runs = [c for c in calls if not c[0]]
        assert len(weyl_runs) == 1
        # no basis of the symbol ideal itself, in any order: the radical
        # tests start from it (known) and queue only 1 - t*f
        commutative = [c for c in calls if c[0]]
        assert all([str(g) for g in gens] != certificate["ideal"] for _, gens, _ in commutative)
        rabinowitsch = [c for c in commutative if c[2]]
        assert all(len(gens) == 1 for _, gens, _ in rabinowitsch)
        # a variety the leading monomials show uncovered takes no radical test
        assert bool(rabinowitsch) is covered

    def test_charvar_budget_is_spent_on_the_weyl_basis_alone(self, capsys):
        # Appell F1's coverage is refuted with no radical test, so the
        # budget need only cover the Weyl basis
        argv = ("charvar", *self.APPELL_F1, "--budget")
        code, out, _ = run_cli(capsys, *argv, "30", "--format", "json")
        assert code == 0 and json.loads(out)["certificates"][0]["covered"] is False
        assert run_cli(capsys, *argv, "10")[0] == 2

    def test_holonomic(self, capsys, monkeypatch):
        calls = self.runs(monkeypatch)
        code, _, _ = run_cli(capsys, "holonomic", "--vars", "x,y", "y*dx - 1 ; y^2*dy + x")
        assert code == 0
        assert [c[0] for c in calls] == [False]


class TestLargePoles:
    """A pole far from the origin costs no trial division: each verb decides
    it at once, and as it decides the same operator with its pole at 3."""

    BIG = 10 ** 18 + 3
    OPERATORS = ["d - 1/(x - {c})", "d - 1/(x - {c})^2",
                 "d^2 + 1/(x - {c})*d + 1/((x - {c})^2*(x^2 + 1))"]
    MATRICES = ["0 ; -1\n1/(x - {c})^2 ; 0\n", "0 ; -1\n1/(x - {c})^3 ; 1/(x - {c})\n"]

    def verdicts(self, capsys, argv, c):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *(a.format(c=c) for a in argv), "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        return [{**v, "point": "c"} if v.get("point") == str(c) else v
                for v in json.loads(out)["verdicts"]]

    @pytest.mark.parametrize("text", OPERATORS)
    @pytest.mark.parametrize("verb", [["fuchs"], ["compare", "--point", "{c}"]])
    def test_operator_verdicts(self, capsys, verb, text):
        argv = [verb[0], text, *verb[1:]]
        assert self.verdicts(capsys, argv, self.BIG) == self.verdicts(capsys, argv, 3)

    @pytest.mark.parametrize("matrix", MATRICES)
    def test_system_verdicts(self, capsys, tmp_path, matrix):
        found = []
        for c in (self.BIG, 3):
            path = tmp_path / f"pole-{c}.sys"
            path.write_text("rank 2\n" + matrix.format(c=c))
            found.append(self.verdicts(capsys, ["system", "--file", str(path)], c))
        assert found[0] == found[1]



def loaded_after(code: str) -> set[str]:
    """The dreg modules a fresh interpreter holds after running code."""
    probe = "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('dreg')))"
    done = subprocess.run([sys.executable, "-c", code + probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return set(done.stdout.splitlines()[-1].split())


class TestStartup:
    """Starting the CLI loads no analysis module; a verb loads what it runs."""

    STARTED = {"dreg", "dreg.cli", "dreg.errors"}

    def test_parser_loads_no_analysis_module(self):
        assert loaded_after("import dreg.cli\ndreg.cli.build_parser()") == self.STARTED

    def test_version_loads_no_analysis_module(self):
        assert loaded_after("import dreg.cli\ndreg.cli.main(['--version'])") == self.STARTED

    @pytest.mark.parametrize("argv, unused", [
        (["fuchs", "x*d - 1"], ("weyl", "ideals", "dmod", "lattices", "linalg",
                                "polelattice", "systems", "corpus")),
        (["system", "--file", str(CORPUS / "airy.sys")],
         ("weyl", "ideals", "dmod", "polelattice", "corpus")),
    ], ids=["fuchs", "system"])
    def test_verb_loads_only_what_it_runs(self, argv, unused):
        loaded = loaded_after(f"import dreg.cli\nassert dreg.cli.main({argv!r}) == 0")
        assert "dreg.regularity" in loaded
        assert not loaded & {f"dreg.{m}" for m in unused}

    def test_every_traced_layer_is_a_package_attribute(self):
        code = (f"import sys\nsys.path.insert(0, {str(PERFBENCH)!r})\n"
                "from tracing import LAYERS\nimport dreg\n"
                "for m in LAYERS:\n    assert getattr(dreg, m) is sys.modules['dreg.' + m]")
        assert {"dreg.weyl", "dreg.polelattice"} <= loaded_after(code)

    def test_package_serves_only_its_submodules(self):
        import dreg

        # a name is imported from the module that defines it, never from dreg
        with pytest.raises(AttributeError, match="MPoly"):
            getattr(dreg, "MPoly")
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(dreg, "no_such_name")
