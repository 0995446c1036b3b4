"""The parser evaluates in Q(x), on RatFun's integer lists, and lifts to
operators only at a derivation; it is checked against the all-operator
reference algebra in conftest, and the Weyl generators against the
reference Weyl algebra, both run on the frozen lexer and descent there."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dreg import parser, polynomials
from dreg.cli import main
from dreg.corpus import OPERATORS, SYSTEM_FILES
from dreg.operators import UnivarOperator
from dreg.parser import (MAX_POWER, ParseError, format_operator, parse_operator,
                         parse_ratfun, parse_weyl_generators)
from dreg.polynomials import MPoly, RatFun
from dreg.weyl import coordinate_names, deriv_names

from conftest import (reference_parse_operator, reference_parse_ratfun,
                      reference_parse_weyl_generators)

SRC = Path(__file__).resolve().parent.parent / "src"

# (text, size): size bounds the order and degree of the value, so that the
# reference's repeated Leibniz products stay cheap
LEAVES = st.sampled_from([("0", 0), ("1", 0), ("3", 0), ("x", 1), ("x", 1), ("d", 1), ("d", 1)])
# tabs, CRLF and a non-ASCII space separate tokens like a space does
SPACES = st.sampled_from(["", " ", "\n  ", "\t", "\r\n", "\u00a0"])


def _combine(children):
    def binary(t):
        (a, sa), op, space, (b, sb) = t
        return f"{a}{space}{op} {b}", max(sa, sb) if op in "+-" else sa + sb

    products = st.tuples(children, st.sampled_from("+-*/"), SPACES, children).map(binary)
    return st.one_of(
        products, products,
        st.tuples(children, st.integers(0, 4)).map(
            lambda t: (f"({t[0][0]})^{t[1]}", t[1] * max(t[0][1], 1))),
        children.map(lambda t: (f"(-{t[0]})", t[1])))


EXPRESSIONS = st.tuples(
    st.booleans(),
    st.recursive(LEAVES, _combine, max_leaves=10).filter(lambda t: t[1] <= 10),
    SPACES,
).map(lambda t: ("-" if t[0] else "") + t[1][0] + t[2])

WELL_FORMED = [
    "d^3 + (x^2 - 1)/(x^2*(x - 3/2)^2)*d^2 + 2/x*d + 1/(x^2 + 1)",
    "(x*d)^3", "(2*d^2)^3", "(x^2)^3*d", "(1/x*d)^2", "(d + x)^3", "d*x^2/(x + 1)",
    "(d*x - x*d)^2", "x*(d - d)^0", "-(x - 1)^2*d/(x^2 + 1)^2",
]
MALFORMED = [
    "1/d", "x/(x*d)", "x/(d - d)", "x/0", "1/(x - x)", "x^", "x^-1", "d^",
    "q + x", "x*y", "dy", "d2", "x*dy + 1", "(x + 1", "x + 1)", "", "x +",
    "x\n  * * d", "d*x - x*d)", "2/(d*x - x*d - 1)",
    "x\t+ \u00e9*d", "x*d +\r\n\t", "d^2\n + x*d\n + (x - 1))", "x +\r\n ; d",
    "\u00a0d + x\u00a0^",
]


def _weyl_leaves(n):
    """(text, size) leaves in n variables: the variables, every name of a
    derivation, small numbers and names that do not exist in A_n."""
    names = coordinate_names(n) + deriv_names(n) + tuple(f"d{v}" for v in coordinate_names(n))
    return st.sampled_from([(name, 1) for name in names]
                           + [("0", 0), ("1", 0), ("3", 0), ("q", 0), ("dw", 0), ("x2", 0)])


def _weyl_texts(n):
    # size bounds the degree, so that the products stay cheap
    generator = st.recursive(_weyl_leaves(n), _combine, max_leaves=6)
    generator = generator.filter(lambda t: t[1] <= 6).map(lambda t: t[0])
    return st.tuples(st.just(coordinate_names(n)), st.lists(generator, min_size=1, max_size=3),
                     SPACES).map(lambda t: (t[0], (";" + t[2]).join(t[1]) + t[2]))


WEYL_TEXTS = st.integers(1, 3).flatmap(_weyl_texts)
WEYL_MALFORMED = ["x*dx ;", "; x", "x ;; y", "x*dx - 1 ;\r\n y*dy\n\t; dz^", "(x ; y)",
                  "x/y", "x/(y - y)", "dx^1001", "x \u00e9", "x2 + y", "d + x", "x*dw"]


def weyl_outcome(parse, text, variables):
    """The elements with their term order and coefficient types, or the error."""
    try:
        gens = parse(text, variables)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    return ("ok", gens, [list(g.terms.items()) for g in gens],
            [[type(c) for c in g.terms.values()] for g in gens])


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS)
    def test_operators_and_errors_match(self, text):
        assert outcome(parse_operator, text) == outcome(reference_parse_operator, text)
        assert outcome(parse_ratfun, text) == outcome(reference_parse_ratfun, text)

    @pytest.mark.parametrize("text", WELL_FORMED)
    def test_named_operators_match(self, text):
        assert parse_operator(text) == reference_parse_operator(text)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_inputs_fail_alike(self, text):
        got = outcome(parse_operator, text)
        assert got[0] == "error"
        assert got == outcome(reference_parse_operator, text)
        assert outcome(parse_ratfun, text) == outcome(reference_parse_ratfun, text)


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(WEYL_TEXTS)
    def test_weyl_generators_and_errors_match(self, case):
        variables, text = case
        assert weyl_outcome(parse_weyl_generators, text, variables) == \
            weyl_outcome(reference_parse_weyl_generators, text, variables)

    @pytest.mark.parametrize("text", WEYL_MALFORMED)
    def test_malformed_weyl_generators_fail_alike(self, text):
        got = weyl_outcome(parse_weyl_generators, text, ("x", "y", "z"))
        assert got[0] == "error"
        assert got == weyl_outcome(reference_parse_weyl_generators, text, ("x", "y", "z"))


class TestParseRatfun:
    """`.sys` entries are parsed in Q(x); operators of order 0 still read as
    their coefficient, and a derivation is refused at the first token."""

    @pytest.mark.parametrize("text", ["d", "x*d", "d*x - x*d", "1/d", " \n x*d*x",
                                      "x/(x^2 - 1) + 3", "d - d", "(d*x - x*d)^3/x"])
    def test_matches_reference(self, text):
        assert outcome(parse_ratfun, text) == outcome(reference_parse_ratfun, text)

    def test_order_zero_operator_yields_its_coefficient(self):
        assert parse_ratfun("d*x - x*d") == parse_ratfun("1")

    def test_derivation_refused_at_first_token(self):
        with pytest.raises(ParseError, match="expected a coefficient, found a derivation") as err:
            parse_ratfun("\n  x*d")
        assert (err.value.line, err.value.col) == (2, 3)


class TestWork:
    @staticmethod
    def count(monkeypatch, owner, name):
        """The list that gets one entry per call of owner.name."""
        calls = []
        fn = getattr(owner, name)

        def counted(*args):
            calls.append(1)
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("text", WELL_FORMED)
    def test_well_formed_text_computes_no_position(self, monkeypatch, text):
        calls = self.count(monkeypatch, parser, "_position")
        parse_operator(text)
        assert calls == []

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_text_computes_its_position(self, monkeypatch, text):
        calls = self.count(monkeypatch, parser, "_position")
        with pytest.raises(ParseError):
            parse_operator(text)
        assert calls

    def test_curves_operator_needs_no_operator_product(self, monkeypatch):
        calls = self.count(monkeypatch, UnivarOperator, "mul")
        p = parse_operator("d^3 + (x^2 - 1)/(x^2*(x - 3/2)^2)*d^2 + 2/x*d + 1/(x^2 + 1)")
        assert p.order() == 3
        assert calls == []

    def test_polynomials_run_no_gcd(self, monkeypatch):
        calls = self.count(monkeypatch, polynomials, "univar_gcd")
        # nor a conversion from MPoly or an exact division by a common factor
        splits = self.count(monkeypatch, polynomials, "split_content")
        quotients = self.count(monkeypatch, polynomials, "_exquo")
        p = parse_operator("(3*x^2 - 1/2*x + 5/3)*d^2 + x^4")
        f = parse_ratfun("(x + 1)^3*(x - 2)/3 - x^2")
        assert calls == splits == quotients == []
        assert p == reference_parse_operator("(3*x^2 - 1/2*x + 5/3)*d^2 + x^4")
        assert f == reference_parse_ratfun("(x + 1)^3*(x - 2)/3 - x^2")

    def test_values_never_leave_ratfun(self, monkeypatch):
        # every value is a RatFun or an operator: no MPoly is built and converted
        splits = self.count(monkeypatch, polynomials, "split_content")
        for entry in OPERATORS:
            parse_operator(entry.expression)
        for text in SYSTEM_FILES.values():
            for row in text.splitlines()[1:]:
                for cell in row.split(";"):
                    parse_ratfun(cell)
        assert splits == []
        with pytest.raises(TypeError):
            RatFun.x("x") * MPoly.var(("x",), "x")
        with pytest.raises(TypeError):
            UnivarOperator.from_entries("x", [MPoly.var(("x",), "x")])

    @pytest.mark.parametrize("text", ["d^2 + (x^2 - 1)/(x^2 + 3*x + 2)*d + x",
                                      "(x^3 - x)/((x + 1)*(x^2 + 2))",
                                      "(x^2 + 5)*d^3 - 2/(x - 1)^2*d"])
    def test_one_gcd_per_division(self, monkeypatch, text):
        calls = self.count(monkeypatch, polynomials, "univar_gcd")
        got = parse_operator(text)
        assert len(calls) <= 1
        assert got == reference_parse_operator(text)

    @pytest.mark.parametrize("text", ["x^2*d", "(x^2 + 1)/(x - 2)*d^3", "3*d^2", "(2/x)*d^0"])
    def test_function_times_derivation_power_multiplies_nothing(self, monkeypatch, text):
        calls = self.count(monkeypatch, RatFun, "__mul__")
        got = parse_operator(text)
        assert calls == []
        assert got == reference_parse_operator(text)

    @pytest.mark.parametrize("text, shown", [("x*d/2", "1/2*x*d"),
                                             ("(x^2*d^2 + d)/3", "1/3*x^2*d^2 + 1/3*d"),
                                             ("d/(-5)", "-1/5*d")])
    def test_operator_over_constant_is_scaled(self, monkeypatch, text, shown):
        calls = self.count(monkeypatch, UnivarOperator, "mul")
        got = parse_operator(text)
        assert calls == []
        assert format_operator(got) == shown
        assert got == reference_parse_operator(text)

    def test_shared_zero_is_left_alone(self, capsys):
        zero = RatFun.zero("x")
        for entry in OPERATORS:
            for argv in (["fuchs", entry.expression], ["theta", entry.expression],
                         ["compare", entry.expression, "--point", "inf"]):
                main(argv + ["--format", "json"])
        capsys.readouterr()
        for var in ("x", "t"):
            assert RatFun.zero(var) is RatFun.zero(var)
            assert RatFun.zero(var).num.terms == {}
            assert RatFun.zero(var).den == MPoly.const((var,), 1)
        assert RatFun.zero("x") is zero


class TestPowerCap:
    @pytest.mark.parametrize("text, col", [("d^3000000000", 3), ("((x+1)^40)^40", 12),
                                           ("(x*d + 1)^1001", 11), ("2^1001", 3)])
    def test_operator_power_refused_at_exponent(self, text, col):
        with pytest.raises(ParseError, match="power too large") as err:
            parse_operator(text)
        assert (err.value.line, err.value.col) == (1, col)

    def test_weyl_power_refused_at_exponent(self):
        with pytest.raises(ParseError, match="power too large") as err:
            parse_weyl_generators("x*dx - (x*dy)^501", ("x", "y"))
        assert (err.value.line, err.value.col) == (1, 15)

    def test_powers_up_to_the_cap_are_computed(self):
        assert parse_operator(f"d^{MAX_POWER}").order() == MAX_POWER
        assert parse_ratfun(f"1/x^{MAX_POWER}").den.total_degree() == MAX_POWER
        w = parse_weyl_generators(f"dx^{MAX_POWER}", ("x",))[0]
        assert list(w.terms) == [(0, MAX_POWER)]

    @pytest.mark.parametrize("argv", [
        ["fuchs", "d^3000000000"],
        ["charvar", "--vars", "x", "dx^3000000000"],
        ["fuchs", "d - ((x+1)^40)^40"],
    ])
    def test_cli_exits_1(self, argv):
        # a memory limit keeps a missing cap from exhausting the machine
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "dreg.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=env,
                              preexec_fn=limit)
        assert done.returncode == 1, done.stderr
        assert "power too large" in done.stderr
