import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dreg.cli
import dreg.polynomials
from dreg.ideals import symbol_weight_order
from dreg.polynomials import (INF, MPoly, Rat, RatFun, _mult_at, denominator_lcm,
                              factor_rational, format_monomial, format_mpoly, monic_mpoly,
                              rational_roots, squarefree_part, univar_gcd)
from dreg.weyl import WeylElement

from conftest import (ReferenceRatFun, den_of, evaluate_mpoly, evaluate_ratfun, from_coeffs,
                      int_coeffs, leading_univar_coeff, monic_gcd, monic_univar, num_of,
                      random_fraction, random_mpoly, random_ratfun, ratfun,
                      reference_denominator_lcm, reference_factor_rational, reference_format_mpoly,
                      reference_mul, reference_pow, reference_ratfun, reference_rational_roots,
                      reference_scale_var, reference_shift, reference_taylor_shift_ratfun,
                      reference_univar_gcd, scale_ratfun_var, univar_coeffs, univar_divmod)


def rf(num, den=(1,)):
    return from_coeffs("x", num, den)


def factored(p: MPoly) -> tuple[list, MPoly]:
    """factor_rational of a univariate polynomial, each root paired with its
    multiplicity read by `_mult_at`, and the leftover made monic."""
    a = int_coeffs(p)
    roots, rest = factor_rational(a)
    return [(r, _mult_at(a, r)) for r in roots], monic_mpoly("x", rest)


class TestRat:
    def test_reduced_and_positive_denominator(self):
        q = Rat(6, -8)
        assert q.numerator == -3 and q.denominator == 4

    def test_field_axioms_fuzz(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b, c = (random_fraction(rng, 30) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * (1 / a) == 1


class TestMPoly:
    def test_arithmetic(self):
        x = MPoly.var(("x", "y"), "x")
        y = MPoly.var(("x", "y"), "y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + y) * (x + y) == x * x + 2 * x * y + y * y

    def test_no_zero_terms_stored(self):
        x = MPoly.var(("x",), "x")
        assert not (x - x).terms

    def test_diff_and_eval(self):
        x = MPoly.var(("x", "y"), "x")
        y = MPoly.var(("x", "y"), "y")
        p = x * x * x * y + y * y
        assert p.diff("x") == 3 * x * x * y
        assert evaluate_mpoly(p, {"x": 2, "y": 3}) == 24 + 9

    def test_subs_const(self):
        x = MPoly.var(("x", "y"), "x")
        y = MPoly.var(("x", "y"), "y")
        p = x * y + y * y
        q = p.subs_const("y", 2)
        assert q.vars == ("x",)
        assert q == MPoly.from_univar_coeffs("x", [4, 2])

    def test_divmod_exact(self):
        x = MPoly.var(("x",), "x")
        p = (x * x + 1) * (x - 3)
        q, r = univar_divmod(p, x - 3)
        assert r.is_zero() and q == x * x + MPoly.const(("x",), 1)


class TestGcdFactoring:
    def test_gcd(self):
        x = MPoly.var(("x",), "x")
        a = (x - 1) * (x - 1) * (x + 2)
        b = (x - 1) * (x + 5)
        assert monic_gcd(a, b) == x - MPoly.const(("x",), 1)

    def test_gcd_random_products(self):
        rng = random.Random(11)
        x = MPoly.var(("x",), "x")
        for _ in range(25):
            common = random_mpoly(rng, ("x",), 3, 3)
            if common.is_zero():
                continue
            a = common * random_mpoly(rng, ("x",), 2, 2)
            b = common * random_mpoly(rng, ("x",), 2, 2)
            if a.is_zero() or b.is_zero():
                continue
            g = monic_gcd(a, b)
            # the gcd divides both products
            assert univar_divmod(a, g)[1].is_zero()
            assert univar_divmod(b, g)[1].is_zero()

    def test_squarefree(self):
        x = MPoly.var(("x",), "x")
        p = reference_pow(x - 1, 3) * (x + 1)
        assert squarefree_part(int_coeffs(p)) == int_coeffs((x - 1) * (x + 1))

    def test_rational_roots(self):
        x = MPoly.var(("x",), "x")
        p = (2 * x - 1) * (x + 3) * (x * x + 1)
        assert rational_roots(int_coeffs(p)) == [Fraction(-3), Fraction(1, 2)]

    def test_factor_rational(self):
        x = MPoly.var(("x",), "x")
        p = x * x * (x - 2) * (x * x + 1)
        assert factor_rational(int_coeffs(3 * p)) == ([0, 2], (1, 0, 1))
        roots, rest = factored(p)
        assert roots == [(Fraction(0), 2), (Fraction(2), 1)]
        assert rest == x * x + MPoly.const(("x",), 1)
        assert factored(p) == reference_factor_rational(p)


def to_sympy(p, x, sympy):
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** e
               for (e,), c in p.terms.items())


def from_sympy(expr, x, sympy):
    coeffs = sympy.Poly(expr, x).all_coeffs()[::-1]
    return MPoly.from_univar_coeffs("x", [Fraction(int(c.p), int(c.q)) for c in coeffs])


class TestAgainstSympy:
    """Differential tests of the univariate kernels on seeded random inputs."""

    def test_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        rng = random.Random(127)
        nontrivial = 0
        for _ in range(60):
            common = random_mpoly(rng, ("x",), 3, 3)
            a = common * random_mpoly(rng, ("x",), 3, 3)
            b = random_mpoly(rng, ("x",), 4, 3)
            if rng.random() < 0.7:
                b = common * b
            if a.is_zero() or b.is_zero():
                continue
            ours = monic_gcd(a, b)
            theirs = from_sympy(sympy.gcd(to_sympy(a, X, sympy), to_sympy(b, X, sympy)),
                                X, sympy)
            assert ours == monic_univar(theirs)
            nontrivial += ours.total_degree() > 0
        assert nontrivial > 10

    def test_factor_rational_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        rng = random.Random(131)
        x = MPoly.var(("x",), "x")
        one = MPoly.const(("x",), 1)
        repeated = 0
        for _ in range(40):
            p = random_mpoly(rng, ("x",), 3, 3)
            for _ in range(rng.randint(0, 3)):
                p = p * reference_pow(x - random_fraction(rng) * one, rng.randint(1, 3))
            p = p * rng.choice([one, x * x + one, x * x - 2 * one])
            if p.is_zero():
                continue
            roots, rest = factored(p)
            expr = to_sympy(p, X, sympy)
            expected = sympy.roots(expr, X, filter="Q")
            assert {r: m for r, m in roots} == {
                Fraction(int(r.p), int(r.q)): m for r, m in expected.items()}
            _, factors = sympy.factor_list(expr, X)
            nonlinear = sympy.Mul(*(f ** m for f, m in factors
                                    if sympy.degree(f, X) > 1))
            assert rest == monic_univar(from_sympy(nonlinear, X, sympy))
            repeated += any(m > 1 for _, m in roots)
        assert repeated > 10


def _int_poly(coeffs) -> tuple:
    """The dense integer polynomial with these coefficients, trailing zeros dropped."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _from_roots(roots) -> tuple:
    """prod (x - r) over integer roots r: close and repeated roots give
    coefficients that nearly cancel at any evaluation point near them."""
    out = (1,)
    for r in roots:
        out = dreg.polynomials._mul(out, (-r, 1))
    return out


# factors of degree up to 8: wide coefficients, or products of close linear factors
FACTORS = st.one_of(
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=9).map(_int_poly),
    st.lists(st.integers(-3, 3), max_size=8).map(_from_roots),
).filter(bool)


class TestHeuristicGcd:
    """GCDHEU in front of the PRS, from degree HEURISTIC_DEGREE on."""

    @settings(max_examples=150, deadline=None)
    @given(FACTORS, FACTORS, FACTORS)
    def test_matches_sympy_and_the_reference(self, common, u, v):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        a, b = dreg.polynomials._mul(common, u), dreg.polynomials._mul(common, v)
        g = univar_gcd(a, b)
        assert g[-1] > 0
        expected = reference_univar_gcd(MPoly.from_univar_coeffs("x", a),
                                        MPoly.from_univar_coeffs("x", b))
        assert monic_mpoly("x", g) == expected
        theirs = sympy.Poly(a[::-1], X).gcd(sympy.Poly(b[::-1], X)).primitive()[1]
        assert g == tuple(int(c) for c in theirs.all_coeffs()[::-1])

    def test_large_common_factors_take_the_heuristic(self, monkeypatch):
        heuristic = dreg.polynomials._heuristic_gcd
        found = []

        def kept(a, b):
            found.append(heuristic(a, b))
            return found[-1]

        monkeypatch.setattr(dreg.polynomials, "_heuristic_gcd", kept)
        rng = random.Random(7)
        for _ in range(20):
            common = _int_poly([rng.randint(-99, 99) for _ in range(6)] + [rng.randint(1, 9)])
            # cofactors with no common root: the gcd is the primitive part of common
            a = dreg.polynomials._mul(common, _from_roots(rng.choices(range(-2, 3), k=3)))
            b = dreg.polynomials._mul(common, (5, 1))
            assert univar_gcd(a, b) == dreg.polynomials._split(common)[1]
        assert len(found) == 20 and None not in found

    def test_prs_takes_over_when_no_point_verifies(self, monkeypatch):
        x = MPoly.var(("x",), "x")
        common = int_coeffs(reference_pow(x - 1, 4) * (x * x * x + 2 * x + 5))
        a = dreg.polynomials._mul(common, (3, 0, 1))
        b = dreg.polynomials._mul(common, (-2, 7))
        assert univar_gcd(a, b) == common
        monkeypatch.setattr(dreg.polynomials, "HEURISTIC_TRIES", 0)
        assert dreg.polynomials._heuristic_gcd(a, b) is None
        assert univar_gcd(a, b) == common


# p / (x^k (x + c)^i (x^2 + 1)^j): poles at 0, at a rational and off the rationals
def _ratfun(num, k, c, i, j):
    x = MPoly.var(("x",), "x")
    den = reference_pow(x, k) * reference_pow(x + c, i) * reference_pow(x * x + 1, j)
    return ratfun(MPoly.from_univar_coeffs("x", num), den)


RATFUNS = st.builds(_ratfun, st.lists(st.integers(-4, 4), max_size=4),
                    st.integers(0, 2), st.integers(-2, 2).filter(bool),
                    st.integers(0, 2), st.integers(0, 1))


class TestRatFunFieldLaws:
    @settings(max_examples=40, deadline=None)
    @given(RATFUNS, RATFUNS, RATFUNS)
    def test_associative(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=40, deadline=None)
    @given(RATFUNS, RATFUNS, RATFUNS)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=40, deadline=None)
    @given(RATFUNS)
    def test_inverses(self, f):
        assert (f + (-f)).is_zero()
        assert f - f == RatFun.zero("x")
        if not f.is_zero():
            assert f * (1 / f) == RatFun.const("x", 1)
            assert f / f == RatFun.const("x", 1)

    @settings(max_examples=40, deadline=None)
    @given(RATFUNS, RATFUNS)
    def test_quotient_rule(self, f, g):
        if not g.is_zero():
            assert (f / g).derivative() == (f.derivative() * g - f * g.derivative()) / (g * g)


def _invert_by_gcd(f, new_var):
    """x -> 1/t normalised by `ratfun`, which runs a gcd."""
    nd = num_of(f).total_degree() if num_of(f) else 0
    coeffs = univar_coeffs(num_of(f)) + [Fraction(0)] * (int(nd) + 1 - len(univar_coeffs(num_of(f))))
    num_rev = MPoly.from_univar_coeffs(new_var, coeffs[::-1])
    den_rev = MPoly.from_univar_coeffs(new_var, univar_coeffs(den_of(f))[::-1])
    t = MPoly.var((new_var,), new_var)
    tpow = int(den_of(f).total_degree()) - int(nd)
    if tpow >= 0:
        return ratfun(num_rev * reference_pow(t, tpow), den_rev)
    return ratfun(num_rev, den_rev * reference_pow(t, -tpow))


class TestCoprimeShortcuts:
    """Results built without a gcd equal the gcd-normalised ones."""

    @settings(max_examples=60, deadline=None)
    @given(RATFUNS, st.integers(0, 4))
    def test_powers(self, f, k):
        expected = RatFun.const("x", 1)
        for _ in range(k):
            expected = ratfun(num_of(expected) * num_of(f), den_of(expected) * den_of(f))
        assert f ** k == expected
        if f:
            assert f ** -k == ratfun(den_of(expected), num_of(expected))

    @settings(max_examples=60, deadline=None)
    @given(RATFUNS, st.fractions(-8, 8, max_denominator=5))
    def test_negation_and_constant_factors(self, f, c):
        assert -f == ratfun(-num_of(f), den_of(f))
        assert f * c == c * f == ratfun(num_of(f).scale(c), den_of(f))
        assert f + 0 == 0 + f == f

    @settings(max_examples=60, deadline=None)
    @given(RATFUNS)
    def test_invert_var(self, f):
        assert f.invert_var("t") == _invert_by_gcd(f, "t")

    def test_zero_power_refuses_a_negative_exponent(self):
        with pytest.raises(ZeroDivisionError):
            RatFun.zero("x") ** -1


VARS = ("x", "y", "z", "w")
COEFFS = st.fractions(-6, 6, max_denominator=4)


@st.composite
def polys(draw, nvars: int, max_terms: int = 5) -> MPoly:
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return MPoly(VARS[:nvars], draw(st.dictionaries(exps, COEFFS, max_size=max_terms)))


@st.composite
def single_terms(draw, nvars: int) -> MPoly:
    """One term, often the constant 1 or a coefficient-1 power product."""
    exps = draw(st.one_of(st.just((0,) * nvars), st.tuples(*[st.integers(0, 3)] * nvars)))
    coeff = draw(st.one_of(st.just(Fraction(1)), COEFFS.filter(bool)))
    return MPoly(VARS[:nvars], {exps: coeff})


@st.composite
def named_exponents(draw) -> tuple:
    """1 to 6 distinct names and a nonzero exponent vector with entries 0 .. 15."""
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True),
                          min_size=1, max_size=6, unique=True))
    exps = draw(st.lists(st.integers(0, 15), min_size=len(names), max_size=len(names))
                .filter(any))
    return tuple(names), tuple(exps)


@st.composite
def weyl_elements(draw) -> WeylElement:
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * (2 * n))
    return WeylElement(n, draw(st.dictionaries(exps, COEFFS, max_size=5)))


class TestMonomialText:
    """A monomial has one spelling: the helper's, inside format_mpoly too."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(named_exponents())
    def test_helper_is_the_monomial_str(self, case):
        names, exps = case
        assert format_monomial(names, exps) == str(MPoly.monomial(names, exps))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(polys))
    def test_format_mpoly_unchanged(self, p):
        assert str(p) == format_mpoly(p) == reference_format_mpoly(p)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weyl_elements())
    def test_weyl_text_unchanged(self, w):
        assert str(w) == reference_format_mpoly(w, symbol_weight_order(len(w.vars)).key)


class TestKernelShortcuts:
    """The kernel's shortcuts against the plain forms kept in conftest."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(polys(n), single_terms(n))))
    def test_single_term_product_is_the_generic_loop(self, pair):
        p, m = pair
        for left, right in ((p, m), (m, p), (m, m)):
            product, expected = left * right, reference_mul(left, right)
            assert product == expected
            # the same term order as the loop, not just the same terms
            assert list(product.terms) == list(expected.terms)

    @settings(max_examples=100, deadline=None)
    @given(RATFUNS, st.fractions(-5, 5, max_denominator=4))
    def test_shift_and_scale_var_are_the_horner_composition(self, f, c):
        assert f.shift(c) == reference_shift(f, c)
        if c:
            assert scale_ratfun_var(f, c) == reference_scale_var(f, c)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(COEFFS, max_size=6), RATFUNS, st.fractions(-6, 6, max_denominator=7))
    def test_integer_taylor_shift_is_the_fraction_one(self, num, f, c):
        f = ratfun(MPoly.from_univar_coeffs("x", num), den_of(f))
        got, expected = f.shift(c), reference_taylor_shift_ratfun(f, c)
        for mine, theirs in ((num_of(got), num_of(expected)), (den_of(got), den_of(expected))):
            assert list(mine.terms.items()) == list(theirs.terms.items())
            assert [type(v) for v in mine.terms.values()] == \
                [type(v) for v in theirs.terms.values()]

    @settings(max_examples=150, deadline=None)
    @given(RATFUNS, RATFUNS)
    def test_henrici_arithmetic_is_the_full_normalisation(self, f, g):
        a, b, c, d = num_of(f), den_of(f), num_of(g), den_of(g)
        assert f + g == ratfun(a * d + c * b, b * d)
        assert f - g == ratfun(a * d - c * b, b * d)
        assert f * g == ratfun(a * c, b * d)
        if g:
            assert f / g == ratfun(a * d, b * c)

    def test_henrici_cancellations(self):
        # second cancellation in +: x/(x+1)^2 + 1/(x+1)^2 = 1/(x+1)
        assert rf([0, 1], [1, 2, 1]) + rf([1], [1, 2, 1]) == rf([1], [1, 1])
        # both cross cancellations in *: (x/(x+1)) ((x+1)/x^2) = 1/x
        assert rf([0, 1], [1, 1]) * rf([1, 1], [0, 0, 1]) == rf([1], [0, 1])
        # and in /: ((x^2 - 1)/x) / ((x + 1)/(x^3 + x^2)) = (x - 1)(x + 1) x
        assert rf([-1, 0, 1], [0, 1]) / rf([1, 1], [0, 0, 1, 1]) == rf([0, -1, 0, 1])
        # sums that vanish
        f = rf([2, 3], [1, 0, 1])
        assert (f - f).is_zero() and den_of(f + (-f)) == MPoly.const(("x",), 1)


class TestGcdCount:
    """Substitutions and products with a unit side run no univar_gcd."""

    @pytest.fixture
    def gcds(self, monkeypatch):
        calls = []
        gcd = dreg.polynomials.univar_gcd

        def counted(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(dreg.polynomials, "univar_gcd", counted)
        return calls

    def test_shift_and_scale_var(self, gcds):
        f = _ratfun([3, 0, 1], 2, 1, 2, 1)    # (x^2 + 3) / (x^2 (x + 1)^2 (x^2 + 1))
        gcds.clear()
        shifted, scaled = f.shift(Fraction(2, 3)), scale_ratfun_var(f, -3)
        assert not gcds
        assert shifted == reference_shift(f, Fraction(2, 3))
        assert scaled == reference_scale_var(f, -3)

    def test_polynomial_sides(self, gcds):
        f = rf([3, 0, 1], [1, 1, 1, 1])       # (x^2 + 3) / ((x + 1) (x^2 + 1))
        p = rf([1, -2, 0, 1])                  # x^3 - 2x + 1
        monomial = rf([0, 0, 5])               # 5 x^2
        over_x = rf([1, 0, 1], [0, 0, 0, 1])   # (x^2 + 1) / x^3
        gcds.clear()
        results = [p + f, f + p, f - p, p * p, monomial * f, f * monomial,
                   p * over_x, over_x / monomial]
        assert not gcds
        a, b = num_of(f), den_of(f)
        assert results[0] == results[1] == ratfun(num_of(p) * b + a, b)
        assert results[2] == ratfun(a - num_of(p) * b, b)
        assert results[3] == ratfun(num_of(p) * num_of(p))
        assert results[4] == results[5] == ratfun(num_of(monomial) * a, b)
        assert results[6] == ratfun(num_of(p) * num_of(over_x), den_of(over_x))
        assert results[7] == ratfun(num_of(over_x), den_of(over_x) * num_of(monomial))


class TestRatFun:
    def test_reduction_invariants(self):
        f = rf([0, -1, 1], [0, 0, 2])  # (x^2 - x) / (2 x^2)
        assert leading_univar_coeff(den_of(f)) == 1
        assert univar_gcd(f.numer, f.denom) == (1,)

    def test_ord_examples(self):
        # pole order read off a monomial
        assert rf([1], [0, 0, 1]).ord_at(0) == -2
        # zero function convention
        assert RatFun.zero("x").ord_at(5) == INF
        # (x^2 - x)/(x + 1) vanishes to order 1 at 0
        f = rf([0, -1, 1], [1, 1])
        assert f.ord_at(0) == 1
        # cross-check by evaluating f/x at 0
        x = RatFun.x("x")
        assert evaluate_ratfun(f / x, 0) == -1

    def test_ord_additivity(self):
        rng = random.Random(3)
        for _ in range(60):
            f = random_ratfun(rng)
            g = random_ratfun(rng)
            if f.is_zero() or g.is_zero():
                continue
            for c in (0, 1, -2):
                assert (f * g).ord_at(c) == f.ord_at(c) + g.ord_at(c)

    def test_arithmetic_field(self):
        rng = random.Random(5)
        for _ in range(40):
            f, g, h = (random_ratfun(rng) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            if not g.is_zero():
                assert (f / g) * g == f

    def test_shift_scale_invert(self):
        f = rf([0, 1])  # x
        assert f.shift(3) == rf([3, 1])
        assert scale_ratfun_var(f, 2) == rf([0, 2])
        g = f.invert_var("t")
        assert g.var == "t"
        assert g == from_coeffs("t", [1], [0, 1])

    def test_derivative(self):
        f = rf([1], [0, 1])  # 1/x
        assert f.derivative() == rf([-1], [0, 0, 1])


UNIVAR = st.lists(COEFFS, max_size=5).map(lambda cs: MPoly.from_univar_coeffs("x", cs))
CONSTANTS = COEFFS.filter(bool).map(lambda c: MPoly.const(("x",), c))
SINGLE_TERMS = st.builds(lambda c, k: MPoly(("x",), {(k,): c}),
                         COEFFS.filter(bool), st.integers(1, 4))


def _general(k, c, i, q):
    """x^k (x + c)^i q: a polynomial of two or more terms that often shares a
    power of x or a linear factor with another drawn the same way."""
    linear = MPoly.from_univar_coeffs("x", [c, 1])
    return MPoly.monomial(("x",), (k,)) * reference_pow(linear, i) * q


GENERAL = st.builds(_general, st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2),
                    UNIVAR.filter(lambda q: len(q.terms) > 1))


def _monic_pair(num, den):
    lc = leading_univar_coeff(den)
    return num.scale(Fraction(1) / lc), den.scale(Fraction(1) / lc)


class TestOneNormaliser:
    """`ratfun(num, den)` and univar_gcd against the constructor's former
    branches (kept in conftest) and against sympy."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.just(MPoly.zero(("x",))), CONSTANTS, SINGLE_TERMS, UNIVAR, GENERAL),
           st.one_of(CONSTANTS, SINGLE_TERMS, GENERAL), st.booleans())
    def test_constructor_matches_reference_and_cancel(self, num, den, plant):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        if plant:
            num = num * den     # the whole denominator cancels
        f, ref = ratfun(num, den), reference_ratfun(num, den)
        assert (num_of(f), den_of(f)) == (ref.num, ref.den)
        assert leading_univar_coeff(den_of(f)) == 1
        top, bottom = sympy.fraction(sympy.cancel(to_sympy(num, X, sympy)
                                                  / to_sympy(den, X, sympy)))
        assert (num_of(f), den_of(f)) == _monic_pair(from_sympy(top, X, sympy),
                                             from_sympy(bottom, X, sympy))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.just(MPoly.zero(("x",))), CONSTANTS, SINGLE_TERMS),
           st.one_of(st.just(MPoly.zero(("x",))), CONSTANTS, SINGLE_TERMS, UNIVAR, GENERAL),
           st.booleans())
    def test_gcd_with_a_unit_or_single_term_matches_sympy(self, a, b, swap):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        if swap:
            a, b = b, a
        theirs = from_sympy(sympy.gcd(to_sympy(a, X, sympy), to_sympy(b, X, sympy)),
                            X, sympy)
        assert monic_gcd(a, b) == monic_univar(theirs)


# -- the integer kernel against the Fraction RatFun it replaced --------------------------

BIG_DENOMINATORS = st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 12),
                            min_size=1, max_size=4).map(
    lambda cs: MPoly.from_univar_coeffs("x", cs))
FACTORS = st.one_of(CONSTANTS, SINGLE_TERMS, GENERAL, BIG_DENOMINATORS).filter(bool)


@st.composite
def num_den(draw):
    """(num, den) with every shape the kernel branches on, often with a planted common factor."""
    num = draw(st.one_of(st.just(MPoly.zero(("x",))), CONSTANTS, SINGLE_TERMS, UNIVAR, GENERAL,
                         BIG_DENOMINATORS))
    den = draw(FACTORS)
    if draw(st.booleans()):
        common = draw(FACTORS)
        num, den = num * common, den * common
    return num, den


def same(mine, theirs) -> bool:
    """mine, a RatFun, is theirs, a ReferenceRatFun: the same num/den, text
    and shape, and the hash of the equal RatFun that `ratfun` builds."""
    rebuilt = ratfun(theirs.num, theirs.den)
    return ((num_of(mine), den_of(mine)) == (theirs.num, theirs.den) and str(mine) == str(theirs)
            and mine == rebuilt and hash(mine) == hash(rebuilt)
            and mine.is_constant() == theirs.is_constant()
            and mine.is_polynomial() == theirs.is_polynomial())


class TestAgainstFrozenRatFun:
    """Every RatFun operation, its text and its hash against the frozen
    Fraction RatFun (conftest), and its arithmetic against sympy's cancel."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(num_den(), num_den(), st.fractions(-5, 5, max_denominator=7), st.integers(-2, 3))
    def test_every_operation(self, first, second, c, k):
        f, g = ratfun(*first), ratfun(*second)
        rf, rg = ReferenceRatFun(*first), ReferenceRatFun(*second)
        pairs = [(f, rf), (g, rg), (f + g, rf + rg), (f - g, rf - rg), (f * g, rf * rg),
                 (-f, -rf), (f * c, rf * c), (f + c, rf + c), (f.derivative(), rf.derivative()),
                 (f.shift(c), rf.shift(c)), (f.invert_var("t"), rf.invert_var("t"))]
        if g:
            pairs.append((f / g, rf / rg))
        if f or k >= 0:
            pairs.append((f ** k, rf ** k))
        for mine, theirs in pairs:
            assert same(mine, theirs), (mine, theirs)
        for point in (0, 1, -2, c):
            assert f.ord_at(point) == rf.ord_at(point)
        assert (f == g) == (rf == rg) and (f == c) == (rf == c)
        if f.is_constant():
            assert f.scale == rf.constant_value()
        assert monic_mpoly("x", denominator_lcm([f, g])) == reference_denominator_lcm([rf, rg])
        assert monic_gcd(first[0], second[1]) == reference_univar_gcd(first[0], second[1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(num_den(), num_den())
    def test_arithmetic_matches_cancel(self, first, second):
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        f, g = ratfun(*first), ratfun(*second)
        F, G = (to_sympy(a, X, sympy) / to_sympy(b, X, sympy) for a, b in (first, second))
        results = [(f + g, F + G), (f * g, F * G)] + ([(f / g, F / G)] if g else [])
        for mine, expr in results:
            top, bottom = sympy.fraction(sympy.cancel(expr))
            assert (num_of(mine), den_of(mine)) == _monic_pair(from_sympy(top, X, sympy),
                                                       from_sympy(bottom, X, sympy))


BIG_ROOTS = [Fraction(s * b, d) for b in (10 ** 13 + 37, 10 ** 18 + 3, 10 ** 40 + 121)
             for s in (1, -1) for d in (1, 7)]
# leading coefficients: 1, each of the first ten primes and their product
LEADING = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 6469693230)
# 1, x^2 + 1, x^2 - 2, x^4 + x + 1, 3x^2 + 5 and (x^2 + 1)^2 have no rational root
ROOTLESS = [(1,), (1, 0, 1), (-2, 0, 1), (1, 1, 0, 0, 1), (5, 0, 3), (1, 0, 2, 0, 1)]


class TestRationalRoots:
    """Rational roots by p-adic Newton lifting, against planted roots and
    against the trial division they replaced."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.one_of(st.fractions(-6, 6, max_denominator=6),
                                        st.sampled_from(BIG_ROOTS)), st.integers(1, 3)),
                    max_size=4, unique_by=lambda t: t[0]),
           st.sampled_from(ROOTLESS), st.integers(1, 5))
    def test_planted_roots(self, roots, rest, c):
        x = MPoly.var(("x",), "x")
        p = MPoly.from_univar_coeffs("x", rest).scale(c)
        for r, m in roots:
            p = p * reference_pow(x - r, m)
        found, leftover = factored(p)
        assert found == sorted(roots)
        assert leftover == monic_univar(MPoly.from_univar_coeffs("x", rest))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.fractions(-4, 4, max_denominator=4), max_size=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(any))
    def test_trial_division_agrees(self, roots, cofactor):
        x = MPoly.var(("x",), "x")
        p = MPoly.from_univar_coeffs("x", cofactor)
        for r in roots:
            p = p * (x - r)
        assert rational_roots(int_coeffs(p)) == reference_rational_roots(p)

    @pytest.mark.parametrize("root", [10 ** 18 + 3, 10 ** 40 + 121])
    def test_a_large_pole_alone(self, root):
        # one linear factor, and the same root beside a factor with no rational root
        assert rational_roots((-root, 1)) == [root]
        x = MPoly.var(("x",), "x")
        p = (x - root) * (x - root) * (x * x + 1) * x
        assert factored(p) == ([(0, 1), (root, 2)], x * x + 1)
        assert factor_rational(int_coeffs(p))[1] == (1, 0, 1)


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.sampled_from(LEADING), st.integers(1, 3)),
                    max_size=3),
           st.integers(0, 3), st.booleans())
    def test_roots_and_leftover_match_sympy(self, linear, k, surd):
        # repeated linear factors v x - u, v often a product of small primes,
        # beside (x^2 + 1)^k and x^2 - 2, which have no rational root
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        x = MPoly.var(("x",), "x")
        p = reference_pow(x * x + 1, k) * (x * x - 2 if surd else 1)
        for u, v, m in linear:
            p = p * reference_pow(v * x - u, m)
        a = int_coeffs(p)
        expr = to_sympy(p, X, sympy)
        theirs = {Fraction(int(r.p), int(r.q)): m
                  for r, m in sympy.roots(expr, X, filter="Q").items()}
        roots, rest = factor_rational(a)
        assert rational_roots(a) == roots == sorted(theirs)
        assert {r: _mult_at(a, r) for r in roots} == theirs
        leftover = sympy.Mul(*(f ** m for f, m in sympy.factor_list(expr)[1]
                               if sympy.degree(f, X) > 1))
        assert rest == int_coeffs(from_sympy(leftover, X, sympy))

    def test_every_small_prime_divides_the_leading_coefficient(self):
        # 2 * 3 * ... * 29: the lift runs modulo the first prime past them
        a = 6469693230
        x = MPoly.var(("x",), "x")
        p = (a * x - 1) * (x - 5) * (x * x + 1)
        assert rational_roots(int_coeffs(p)) == [Fraction(1, a), 5]


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# univar_gcd calls of the Fraction RatFun over the corpus runs below
FRACTION_KERNEL_CORPUS_GCDS = 11


class TestWorkGates:
    COUNTED = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__", "__neg__")

    @pytest.fixture
    def fraction_ops(self, monkeypatch):
        count = [0]
        for name in self.COUNTED:
            method = vars(Fraction)[name]

            def counted(*args, _method=method, **kwargs):
                count[0] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(Fraction, name,
                                staticmethod(counted) if name == "__new__" else counted)
        return count

    def test_fraction_ops_do_not_grow_with_degree(self, fraction_ops):
        counts = []
        for degree in (2, 5, 12):
            rng = random.Random(degree)

            def poly():
                return MPoly.from_univar_coeffs("x", [Fraction(rng.randint(1, 99), rng.randint(1, 10 ** 4))
                                                      for _ in range(degree + 1)])

            common = poly()
            f, g = ratfun(poly() * common, poly()), ratfun(poly(), poly() * common)
            fraction_ops[0] = 0
            f + g, f * g, f / g
            counts.append(fraction_ops[0])
        assert max(counts) <= 6, counts

    def test_corpus_runs_no_more_gcds(self, monkeypatch, capsys):
        calls = []
        gcd = dreg.polynomials.univar_gcd

        def counted(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(dreg.polynomials, "univar_gcd", counted)
        for path in sorted(CORPUS.glob("*.op")):
            for verb in ("fuchs", "compare", "theta"):
                assert dreg.cli.main([verb, "--file", str(path)]) == 0
        capsys.readouterr()
        assert len(calls) <= FRACTION_KERNEL_CORPUS_GCDS
