import functools
import importlib.util
import itertools
import json
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dreg.corpus
import dreg.dmod
import dreg.ideals
import dreg.weyl
from dreg.dmod import _covers, decompose_symbol_ideal
from dreg.ideals import (Ideal, Packing, leading_term, groebner_basis, outside_radical_by_leads,
                         radical_membership, symbol_weight_order)
from dreg.parser import parse_weyl_generators
from dreg.polynomials import MPoly
from dreg.weyl import (WeylElement, characteristic_ideal, coordinate_names, weyl_groebner,
                       weyl_mul)

from conftest import (apply_weyl, exact_coefficients, krull_dimension, normal_form, random_mpoly,
                      random_weyl, recorded_mismatches, reference_covers, reference_weyl_mul,
                      spy)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the benchmark's request pools, read only
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
WORKLOADS = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)


def a1():
    return WeylElement.x(1, 0), WeylElement.d(1, 0)


class TestNormalOrdering:
    def test_defining_relation(self):
        x, d = a1()
        assert d * x == x * d + 1

    def test_dd_xx(self):
        x, d = a1()
        lhs = (d ** 2) * (x ** 2)
        expected = x ** 2 * d ** 2 + (x * d).scale(4) + WeylElement.const(1, 2)
        assert lhs == expected

    def test_theta_squared(self):
        x, d = a1()
        theta = x * d
        assert theta * theta == x ** 2 * d ** 2 + x * d
        # a one-term element has Weyl powers, not multiplied exponents
        assert theta ** 2 == WeylElement(1, {(2, 2): 1}) + theta
        assert theta ** 0 == WeylElement.const(1, 1)

    def test_sums_and_scaling_keep_the_type(self):
        # the arithmetic WeylElement inherits from MPoly returns WeylElements
        x, d = a1()
        for value in (x + d, x - d, -x, x.scale(3), x.scale(0), x * d + 1, 1 - d,
                      x * Fraction(1, 2)):
            assert type(value) is WeylElement and value.vars == ("x", "d")
        assert x.scale(0) == WeylElement.zero(1)

    def test_one_term_constructors_equal_the_checked_ones(self):
        # x, d and const build their term maps without MPoly.__init__
        for n in (1, 2, 3):
            for i in range(n):
                for built, exps in ((WeylElement.x(n, i), tuple(int(j == i) for j in range(2 * n))),
                                    (WeylElement.d(n, i),
                                     tuple(int(j == n + i) for j in range(2 * n)))):
                    checked = WeylElement(n, {exps: 1})
                    assert built == checked and built.vars == checked.vars
            for c in (0, 3, Fraction(4, 2), Fraction(-1, 3)):
                built, checked = WeylElement.const(n, c), WeylElement(n, {(0,) * (2 * n): c})
                assert built == checked
                assert list(map(type, built.terms.values())) == list(map(type, checked.terms.values()))
        with pytest.raises(ValueError):
            WeylElement.const(0, 1)

    def test_powers_are_repeated_products(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.choice((1, 2))
            v = random_weyl(rng, n, 3, 2)
            product = WeylElement.const(n, 1)
            for k in range(5):
                assert v ** k == product
                product = weyl_mul(product, v)

    def test_power_makes_one_product_fewer_than_its_exponent(self, monkeypatch):
        # v^0 is the constant 1 and v^k starts from v: no product by 1
        products = []
        mul = dreg.weyl.weyl_mul

        def counted(a, b):
            products.append(1)
            return mul(a, b)

        monkeypatch.setattr(dreg.weyl, "weyl_mul", counted)
        x, _d = a1()
        for k in range(6):
            products.clear()
            assert x ** k == WeylElement(1, {(k, 0): 1})
            assert len(products) == max(k - 1, 0)

    def test_pure_parts_commute(self):
        x, d = a1()
        assert x * (x ** 2) == (x ** 2) * x
        assert d * (d ** 2) == (d ** 2) * d

    def test_associativity_fuzz(self):
        rng = random.Random(41)
        for _ in range(250):
            n = rng.choice((1, 2))
            a, b, c = (random_weyl(rng, n, 4, 2) for _ in range(3))
            assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))

    def test_action_consistency(self):
        rng = random.Random(43)
        for _ in range(250):
            n = rng.choice((1, 2))
            a = random_weyl(rng, n, 3, 2)
            b = random_weyl(rng, n, 3, 2)
            from dreg.weyl import coordinate_names
            p = random_mpoly(rng, coordinate_names(n), 3, 3)
            assert apply_weyl(weyl_mul(a, b), p) == apply_weyl(a, apply_weyl(b, p))

    def test_theta_action_on_monomials(self):
        x, d = a1()
        theta2 = (x * d) ** 2
        for k in range(5):
            xk = MPoly.monomial(("x",), (k,))
            assert apply_weyl(theta2, xk) == xk.scale(k * k)


APPELL_F1 = ("x*dx^2 - x^2*dx^2 + y*dx*dy - x*y*dx*dy + 2/3*dx - 5/2*x*dx - 1/2*y*dy - 1/2 ;"
             " y*dy^2 - y^2*dy^2 + x*dx*dy - x*y*dx*dy + 2/3*dy - 7/3*y*dy - 1/3*x*dx - 1/3")


COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


def multi_indices(n, degree):
    return st.tuples(*[st.integers(0, degree)] * n)


def weyl_elements(n, degree=2, max_terms=3):
    """Small elements of A_n, zero included."""
    return st.dictionaries(st.tuples(multi_indices(n, degree), multi_indices(n, degree)),
                           COEFFS, max_size=max_terms).map(
        lambda t: WeylElement(n, {alpha + beta: c for (alpha, beta), c in t.items()}))


def coordinate_polynomials(n, degree=3, max_terms=3):
    return st.dictionaries(multi_indices(n, degree), COEFFS, max_size=max_terms).map(
        lambda t: MPoly(coordinate_names(n), t))


def as_weyl(p: MPoly) -> WeylElement:
    """A polynomial in the coordinates as an element of A_n."""
    n = len(p.vars)
    return WeylElement(n, {e + (0,) * n: c for e, c in p.terms.items()})


class TestProductProperties:
    """Hypothesis properties of `weyl_mul` on small elements of A_1 and A_2."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_associative(self, data, n):
        a, b, c = (data.draw(weyl_elements(n)) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_distributive_on_both_sides(self, data, n):
        a, b, c = (data.draw(weyl_elements(n)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_leibniz(self, data, n):
        p = data.draw(coordinate_polynomials(n))
        i = data.draw(st.integers(0, n - 1))
        d = WeylElement.d(n, i)
        assert d * as_weyl(p) - as_weyl(p) * d == as_weyl(p.diff(p.vars[i]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_action_is_faithful_to_products(self, data, n):
        a, b = (data.draw(weyl_elements(n)) for _ in range(2))
        p = data.draw(coordinate_polynomials(n))
        assert apply_weyl(a * b, p) == apply_weyl(a, apply_weyl(b, p))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_product_coefficients_are_in_normal_form(self, data, n):
        a, b = (data.draw(weyl_elements(n)) for _ in range(2))
        assert exact_coefficients([weyl_mul(a, b)])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_one_term_shift_equals_the_general_contraction(self, data, n):
        # c * x^alpha on the left takes the shift path, any other factor the
        # contraction; both must give the product term by term
        alpha = data.draw(multi_indices(n, 3))
        a = WeylElement(n, {alpha + (0,) * n: data.draw(COEFFS)})
        b = data.draw(weyl_elements(n, degree=3, max_terms=4))
        shifted = weyl_mul(a, b)
        assert shifted == reference_weyl_mul(a, b)
        assert exact_coefficients([shifted])
        other = data.draw(weyl_elements(n))
        assert weyl_mul(other, b) == reference_weyl_mul(other, b)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_one_term_factor_with_d_equals_the_general_contraction(self, data, n):
        # the Buchberger driver's products: c * x^alpha d^beta, beta != 0,
        # times an element; the table rows replace the per-pair factorials
        alpha = data.draw(multi_indices(n, 3))
        beta = data.draw(multi_indices(n, 3).filter(any))
        a = WeylElement(n, {alpha + beta: data.draw(COEFFS)})
        b = data.draw(weyl_elements(n, degree=3, max_terms=4))
        product = weyl_mul(a, b)
        assert product == reference_weyl_mul(a, b)
        assert exact_coefficients([product])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_packed_left_monomial_product_equals_weyl_mul(self, data, n):
        # the driver's product on codes: c * x^alpha d^beta, beta != 0, times
        # an integer element, subtracted from a term map the way a division
        # step does it
        alpha = data.draw(multi_indices(n, 3))
        beta = data.draw(multi_indices(n, 3).filter(any))
        c = data.draw(st.integers(-4, 4).filter(bool))
        a = WeylElement(n, {alpha + beta: c})
        terms = data.draw(st.dictionaries(st.tuples(multi_indices(n, 3), multi_indices(n, 3)),
                                          st.integers(-4, 4).filter(bool), min_size=1,
                                          max_size=4))
        b = WeylElement(n, {x + d: v for (x, d), v in terms.items()})
        pk = Packing(symbol_weight_order(2 * n), b)
        rest = pk.pack(b.terms)
        pk.subtract(rest, -c, pk.pack({alpha + beta: 1}).popitem()[0], pk.pack(b.terms))
        product = pk.unpack(rest) - b
        assert product == weyl_mul(a, b) == reference_weyl_mul(a, b)


class TestRingsDoNotMix:
    """An MPoly in the variables x, d is no Weyl element: the two never
    compare equal, and a sum or product of one with the other raises."""

    def test_mixed_arithmetic_raises(self):
        x, d = a1()
        p = MPoly(x.vars, {(1, 0): 1})
        for left, right in ((p, d), (d, p)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ValueError):
                    op(left, right)

    def test_equality_stays_within_one_class(self):
        x, _ = a1()
        p = MPoly(x.vars, x.terms)
        assert p != x and x != p
        assert x == WeylElement(1, {(1, 0): 1}) and hash(x) == hash(WeylElement(1, {(1, 0): 1}))
        assert p == MPoly(("x", "d"), {(1, 0): 1}) and hash(p) == hash(MPoly(("x", "d"), {(1, 0): 1}))


class TestSymbols:
    def test_examples(self):
        x, d = a1()
        s = (x ** 2 * d - WeylElement.const(1, 1)).principal_symbol()
        assert s == MPoly(("x", "xi"), {(2, 1): Fraction(1)})
        s2 = (d ** 2 - x).principal_symbol()
        assert s2 == MPoly(("x", "xi"), {(0, 2): Fraction(1)})
        y_dx = WeylElement.x(2, 1) * WeylElement.d(2, 0) - WeylElement.const(2, 1)
        assert y_dx.principal_symbol() == MPoly(
            ("x", "y", "xi", "eta"), {(0, 1, 1, 0): Fraction(1)})
        f1 = parse_weyl_generators(APPELL_F1, ("x", "y"))
        assert [str(g.principal_symbol()) for g in f1] == [
            "-x^2*xi^2 - x*y*xi*eta + x*xi^2 + y*xi*eta",
            "-x*y*xi*eta - y^2*eta^2 + x*xi*eta + y*eta^2"]

    def test_symbol_multiplicative_and_order_additive(self):
        rng = random.Random(47)
        for _ in range(120):
            n = rng.choice((1, 2))
            a = random_weyl(rng, n, 3, 2)
            b = random_weyl(rng, n, 3, 2)
            if a.is_zero() or b.is_zero():
                continue
            ab = weyl_mul(a, b)
            assert ab.order() == a.order() + b.order()
            assert ab.principal_symbol() == a.principal_symbol() * b.principal_symbol()

    def test_zero_has_no_symbol(self):
        with pytest.raises(ValueError):
            WeylElement.zero(1).principal_symbol()


class TestWeylGroebner:
    def test_trivial_connection(self):
        d = WeylElement.d(1, 0)
        ideal = characteristic_ideal([d])
        assert ideal.gens == (MPoly(("x", "xi"), {(0, 1): Fraction(1)}),)

    def test_euler_symbol(self):
        x, d = a1()
        lam = WeylElement.const(1, 5)
        ideal = characteristic_ideal([x * d - lam])
        assert ideal.gens == (MPoly(("x", "xi"), {(1, 1): Fraction(1)}),)

    def test_left_ideal_with_unit(self):
        # x and d generate the unit left ideal: the S-pair is the constant 1.
        # Their leading terms are coprime, and (x, xi) in Q[x, xi] keeps both
        # generators, its pair dropped by the coprimality criterion, which
        # must not run in A_n
        x, d = a1()
        assert weyl_groebner([x, d]) == [WeylElement.const(1, 1)]
        x, xi = MPoly.var(("x", "xi"), "x"), MPoly.var(("x", "xi"), "xi")
        assert groebner_basis(Ideal(("x", "xi"), [x, xi]), symbol_weight_order(2)) == [x, xi]

    def test_exponential_module_three_components(self):
        X, Y = WeylElement.x(2, 0), WeylElement.x(2, 1)
        DX, DY = WeylElement.d(2, 0), WeylElement.d(2, 1)
        gens = [Y * DX - WeylElement.const(2, 1), Y * Y * DY + X]
        ideal = characteristic_ideal(gens)
        vs = ideal.vars
        x, y, xi, eta = (MPoly.var(vs, nm) for nm in vs)
        gb = groebner_basis(ideal)
        assert normal_form(y * xi, gb).is_zero()
        assert normal_form(x * xi + y * eta, gb).is_zero()
        assert krull_dimension(ideal) == 2

    def test_s_elements_reduce_to_zero_post_hoc(self):
        rng = random.Random(53)
        for _ in range(6):
            gens = [random_weyl(rng, 2, 2, 2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = weyl_groebner(gens, budget=20000)
            if not gb:
                continue
            n = gb[0].n
            order = symbol_weight_order(2 * n)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    fe, fc = leading_term(gb[i], order)
                    ge, gc = leading_term(gb[j], order)
                    lcm = tuple(max(p, q) for p, q in zip(fe, ge))
                    ei = tuple(p - q for p, q in zip(lcm, fe))
                    ej = tuple(p - q for p, q in zip(lcm, ge))
                    mi = WeylElement(n, {ei: Fraction(1) / fc})
                    mj = WeylElement(n, {ej: Fraction(1) / gc})
                    s = weyl_mul(mi, gb[i]) - weyl_mul(mj, gb[j])
                    assert normal_form(s, gb, order).is_zero()

    def test_unit_ideal_cliff_within_budget(self):
        # normal selection with the chain criterion stops at pop 220, when a
        # constant joins the basis; first in, first out without it needs 903
        gens = parse_weyl_generators(
            "x*dx*(x*dx + y*dy) - x*(x*dx + y*dy + 1)*(x*dx+1/2) ; dx*dy - 1", ("x", "y"))
        assert weyl_groebner(gens, budget=800) == [WeylElement.const(2, 1)]

    def test_unit_ideal_cliff_stops_at_the_constant(self):
        # a constant joins the basis at pop 220, and the loop stops there
        gens = parse_weyl_generators(
            "x*dx*(x*dx + y*dy) - x*(x*dx + y*dy + 1)*(x*dx+1/2) ; dx*dy - 1", ("x", "y"))
        assert weyl_groebner(gens, budget=300) == [WeylElement.const(2, 1)]


def covers_inputs(monkeypatch, systems) -> list:
    """The (ideal, components, budget) of each coverage test that the
    decomposition of these (generator text, variables) systems makes."""
    calls = spy(monkeypatch, dreg.dmod, "_covers")
    for text, variables in systems:
        decompose_symbol_ideal(characteristic_ideal(parse_weyl_generators(text, variables)),
                               len(variables))
    return calls


def pool_charvar_systems() -> list:
    return [(request.argv[3], tuple(request.argv[2].split(",")))
            for request in WORKLOADS.weyl(dreg.corpus).pool
            if request.argv[0] == "charvar" and not request.exit_code]


class TestCoverage:
    # the exponential module and the dropped-candidate case of test_dmod.py
    DMOD_SYSTEMS = [("y*dx - 1 ; y^2*dy + x", ("x", "y")), ("x ; dy", ("x", "y"))]

    def test_lazy_products_match_the_eager_ones(self, monkeypatch):
        inputs = covers_inputs(monkeypatch, pool_charvar_systems() + self.DMOD_SYSTEMS)
        assert len(inputs) == 42
        verdicts = [_covers(*args) for args in inputs]
        assert verdicts == [reference_covers(*args) for args in inputs]
        assert verdicts == [False] * 40 + [True, True]

    # the unresolved-remainder defect of ROADMAP and small cases either way
    MORE_SYSTEMS = [("x*dx + 1 ; dy", ("x", "y")), ("x*dx + 1 ; y*dy + 1 ; dz", ("x", "y", "z")),
                    ("x^2*y*dx + 1 ; x*y^2*dy + 1", ("x", "y")), ("dx - 1 ; dy", ("x", "y"))]

    def test_leading_monomials_refute_only_products_outside_the_radical(self, monkeypatch):
        systems = pool_charvar_systems() + self.DMOD_SYSTEMS + self.MORE_SYSTEMS
        inputs = covers_inputs(monkeypatch, systems)
        assert len(inputs) == 46
        tested = refuted = inside = 0
        for ideal, comps, budget in inputs:
            order = ideal.basis_order
            leads = [leading_term(g, order)[0] for g in ideal.gens]
            for choice in itertools.product(*(comp.ideal.gens for comp in comps)):
                f = functools.reduce(operator.mul, choice, MPoly.const(ideal.vars, 1))
                outside = outside_radical_by_leads(leading_term(f, order)[0], leads)
                member = radical_membership(f, ideal, budget)
                assert not (outside and member)
                tested, refuted, inside = tested + 1, refuted + outside, inside + member
        assert (tested, refuted, inside) == (611, 122, 57)
        assert [_covers(*args) for args in inputs] == [reference_covers(*args) for args in inputs]

    def test_only_an_unrefuted_variety_takes_a_radical_test(self, monkeypatch):
        # the 40 pool ideals are refuted with no driver run on the ring
        # extended by the Rabinowitsch variable; the covered two still run one
        inputs = covers_inputs(monkeypatch, pool_charvar_systems() + self.DMOD_SYSTEMS)
        runs = spy(monkeypatch, dreg.ideals, "buchberger_loop")
        extended = []
        for args in inputs:
            runs.clear()
            _covers(*args)
            extended.append(sum("_t" in pk.like.vars for _, pk, *_ in runs))
        assert extended[:40] == [0] * 40
        assert all(extended[40:]) and len(extended) == 42

    def test_uncovered_ideal_builds_only_the_tested_product(self, monkeypatch):
        # Appell F1: 4 components of 2 generators give 16 products; the
        # first is outside the radical, as on every pool charvar request,
        # and its leading monomial shows it: no product is built and no
        # radical test runs
        [(ideal, comps, budget)] = covers_inputs(monkeypatch, pool_charvar_systems()[:1])
        assert [len(comp.ideal.gens) for comp in comps] == [2, 2, 2, 2]
        tested, built, testing = [], 0, False
        member, mul = dreg.dmod.radical_membership, MPoly.__mul__

        def counted_member(*args):
            nonlocal testing
            tested.append(args[0])
            testing = True
            try:
                return member(*args)
            finally:
                testing = False

        def counted_mul(self, other):
            nonlocal built
            built += not testing
            return mul(self, other)

        monkeypatch.setattr(dreg.dmod, "radical_membership", counted_member)
        monkeypatch.setattr(MPoly, "__mul__", counted_mul)
        assert not _covers(ideal, comps, budget)
        assert (len(tested), built) == (0, 0)


class TestRecordedReports:
    def test_weyl_pool_matches_recorded_digests(self, monkeypatch, tmp_path):
        # every charvar and holonomic request of the benchmark's weyl pool,
        # the unit-ideal cliff included
        recorded = json.loads((PERFBENCH / "expected.json").read_text())
        recorded = recorded["workloads"]["weyl"]["requests"]
        pool = WORKLOADS.weyl(dreg.corpus).pool
        monkeypatch.chdir(tmp_path)
        mismatches = recorded_mismatches(pool, recorded, tmp_path)
        assert len(pool) == len(recorded) == 81
        assert mismatches == []
