"""The coefficient normal form of the Q kernel.

Every stored coefficient of an MPoly, of a RatFun's numerator and
denominator, of a WeylElement, of a Laurent series and of a PolarLattice
row is an int when it is integral, else a Fraction with denominator > 1;
never a float or a bool.  The checks go by type (`conftest.is_exact`):
0.5 == Fraction(1, 2), so a value check would let a float through.
"""

import contextlib
import io
import os
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

import dreg.cli
import dreg.corpus
from dreg.cli import _read_system_file
from dreg.lattices import Laurent, PolarLattice
from dreg.operators import UnivarOperator, to_theta_form
from dreg.parser import ParseError, parse_operator, parse_ratfun, parse_weyl_generators
from dreg.polynomials import MPoly, RatFun, denominator_lcm, factor_rational
from dreg.systems import CyclicVectorError, cyclic_vector, saturate_lattice

from conftest import (exact_coefficients, is_exact, monic_univar, polar_extended, polar_part,
                      to_weyl, univar_divmod)

ATOMS = st.sampled_from(["x", "1", "2", "3", "6", "x^2", "(x - 1)", "(2*x + 3)",
                         "(x^2 + 1)", "(3*x - 2)"])
RATFUN_TEXTS = st.recursive(
    ATOMS, lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"), max_leaves=5)
OPERATOR_TEXTS = st.lists(st.tuples(RATFUN_TEXTS, st.integers(0, 3)), min_size=1,
                          max_size=3).map(
    lambda terms: " + ".join(f"{c}*d^{k}" for c, k in terms))
POINTS = st.fractions(-3, 3, max_denominator=3)
WEYL_TEXTS = st.recursive(
    st.sampled_from(["x", "y", "dx", "dy", "1", "2", "3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "6"])).map(lambda t: f"{t[0]}/{t[1]}")),
    max_leaves=6)


def ratfun_exact(f: RatFun) -> bool:
    return exact_coefficients([f.num, f.den])


def operator_exact(p) -> bool:
    return all(ratfun_exact(c) for c in p.coeffs)


def parsed(parse, text):
    """The parse of a generated text; texts that divide by zero are skipped."""
    try:
        return parse(text)
    except ParseError:
        assume(False)


class TestNormalFormByType:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=OPERATOR_TEXTS, c=POINTS)
    def test_operators_and_their_charts(self, text, c):
        p = parsed(parse_operator, text)
        assume(not p.is_zero())
        assert operator_exact(p)
        assert operator_exact(p.monic())
        assert all(ratfun_exact(a) for a in to_theta_form(p).coeffs)
        assert operator_exact(p.at_infinity())
        assert operator_exact(p.shift(c))
        assert exact_coefficients([to_weyl(p)])
        assert all(map(is_exact, denominator_lcm(p.coeffs)))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=RATFUN_TEXTS, b=RATFUN_TEXTS, c=POINTS)
    def test_ratfun_arithmetic(self, a, b, c):
        f, g = parsed(parse_ratfun, a), parsed(parse_ratfun, b)
        results = [f + g, f - g, f * g, f.derivative(), f ** 2, f.shift(c),
                   f.invert_var("t")]
        if g:
            results += [f / g, g ** -1]
        assert all(ratfun_exact(h) for h in results)
        if f:
            assert all(is_exact(t) for t in Laurent(f).terms(4))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rank=st.integers(1, 2), data=st.data())
    def test_sys_systems(self, rank, data):
        cells = data.draw(st.lists(RATFUN_TEXTS, min_size=rank * rank, max_size=rank * rank))
        text = f"rank {rank}\n" + "".join(
            " ; ".join(cells[i * rank:(i + 1) * rank]) + "\n" for i in range(rank))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "generated.sys")
            with open(path, "w") as handle:
                handle.write(text)
            try:
                system = _read_system_file(path)
            except ParseError:
                assume(False)
        assert all(ratfun_exact(e) for row in system.matrix for e in row)
        lattice = polar_extended(PolarLattice(rank), system.matrix)
        assert all(is_exact(c) for row in lattice.rows.values() for c in row.values())
        poles, _ = factor_rational(denominator_lcm(e for row in system.matrix for e in row))
        for point in [0] + poles[:2]:
            result = saturate_lattice(system, point, max_steps=rank)
            if result.lattice is not None:
                assert all(is_exact(c) for row in result.lattice.rows.values()
                           for c in row.values())
        try:
            cyclic = cyclic_vector(system)
        except CyclicVectorError:
            return
        assert operator_exact(cyclic.operator) and ratfun_exact(cyclic.determinant)

    @settings(max_examples=40, deadline=None)
    @given(a=WEYL_TEXTS, b=WEYL_TEXTS)
    def test_weyl_generators(self, a, b):
        gens = parse_weyl_generators(f"{a} ; {b}", ("x", "y"))
        assert exact_coefficients(gens)
        f, g = gens
        assert exact_coefficients([f * g, f + g, f - g, f.scale(Fraction(2, 3))])
        if f:
            assert exact_coefficients([f.principal_symbol()])


class TestIntegerDivisionSites:
    """One integer-input case per division of coefficients: an int has no
    exact true division, so each must go through Fraction."""

    def test_univar_divmod(self):
        var = ("x",)
        q, r = univar_divmod(MPoly.from_univar_coeffs("x", [1, 0, 1]),
                             MPoly.from_univar_coeffs("x", [0, 2]))
        assert q.terms == {(1,): Fraction(1, 2)} and r.terms == {(0,): 1}
        assert exact_coefficients([q, r])
        q, r = univar_divmod(MPoly.from_univar_coeffs("x", [2, 4]), MPoly.const(var, 2))
        assert q.terms == {(0,): 1, (1,): 2} and not r
        assert exact_coefficients([q])

    def test_laurent_series(self):
        series = Laurent(parse_ratfun("1/(2 - x)"))
        assert series.terms(4) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                                   Fraction(1, 16)]
        assert all(type(c) is Fraction for c in series.terms(4))
        series = Laurent(parse_ratfun("1/(1 - x)"))
        assert series.terms(3) == [1, 1, 1] and all(type(c) is int for c in series.terms(3))

    def test_polar_lattice_insert(self):
        lattice = PolarLattice(1)
        lattice.insert(polar_part([parse_ratfun("4/x^2 + 2/x")]))
        assert lattice.rows == {(-2, 0): {(-2, 0): 1, (-1, 0): Fraction(1, 2)},
                                (-1, 0): {(-1, 0): 1}}
        assert all(is_exact(c) for row in lattice.rows.values() for c in row.values())
        assert type(lattice.rows[-2, 0][-2, 0]) is int

    def test_parser_division_by_an_integer(self):
        p = parse_operator("x*d/2")
        assert p.coeff(1).num.terms == {(1,): Fraction(1, 2)}
        assert operator_exact(p)
        p = parse_operator("2*x*d/2")
        assert p.coeff(1) == RatFun.x("x") and operator_exact(p)
        assert type(p.coeff(1).num.terms[(1,)]) is int
        (w,) = parse_weyl_generators("x*dx/2 + 4/2", ("x",))
        assert exact_coefficients([w])
        assert w.terms == {(1, 1): Fraction(1, 2), (0, 0): 2}

    def test_monic_stops_at_a_unit_leading_coefficient(self):
        p = MPoly.from_univar_coeffs("x", [3, 0, 1])
        assert monic_univar(p) is p
        q = monic_univar(MPoly.from_univar_coeffs("x", [3, 0, -1]))
        assert q.terms == {(0,): -3, (2,): 1} and exact_coefficients([q])

    def test_numbers_and_booleans_become_ints(self):
        assert type(MPoly.const(("x",), True).terms[(0,)]) is int
        assert parse_operator("3").coeff(0).num.terms == {(0,): 3}
        assert type(parse_operator("3").coeff(0).num.terms[(0,)]) is int


def test_shared_unit_survives_a_corpus_pass():
    one = RatFun.one("x")
    with tempfile.TemporaryDirectory() as directory, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for entry in dreg.corpus.OPERATORS:
            for verb in ("fuchs", "theta", "newton", "kashiwara", "compare"):
                dreg.cli.main([verb, entry.expression])
        for name, content in dreg.corpus.SYSTEM_FILES.items():
            path = os.path.join(directory, name)
            with open(path, "w") as handle:
                handle.write(content)
            dreg.cli.main(["system", "--file", path])
    assert RatFun.one("x") is one
    assert one.num.terms == {(0,): 1} and one.den.terms == {(0,): 1}
    assert ratfun_exact(one)
    assert UnivarOperator.derivation("x").coeffs[1] is one
    assert parse_operator("d").coeffs[1] is one
