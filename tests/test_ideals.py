import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dreg.ideals import (BudgetExceeded, DEGREVLEX, LEX, Ideal, NotMonomialIdeal,
                         buchberger, groebner_basis, ideal_contains,
                         is_radical_squarefree_monomial, krull_dimension,
                         leading_term, normal_form, radical_membership,
                         symbol_weight_order)
from dreg.polynomials import MPoly
from dreg.weyl import WeylElement, weyl_groebner

from conftest import random_mpoly


def ring(*names):
    return tuple(names)


def V(vars_, name):
    return MPoly.var(vars_, name)


class TestBuchberger:
    def test_principal_already_basis(self):
        vs = ring("x")
        I = Ideal(vs, [V(vs, "x")])
        gb = groebner_basis(I)
        assert gb == [V(vs, "x")]

    def test_monomial_ideal_is_its_own_basis(self):
        vs = ring("x", "y")
        x, y = V(vs, "x"), V(vs, "y")
        gb = groebner_basis(Ideal(vs, [x * x, x * y]))
        assert gb == [x * y, x * x] or gb == [x * x, x * y]

    def test_mixed_ideal_reduction(self):
        vs = ring("x", "y", "xi")
        x, y, xi = (V(vs, n) for n in vs)
        I = Ideal(vs, [x * xi, y * xi, x - y])
        gb = groebner_basis(I)
        # normal form of y*xi is 0 and the linear generator survives
        assert normal_form(y * xi, gb).is_zero()
        assert normal_form(x * xi, gb).is_zero()
        assert any(g == x - y or g == y - x for g in gb)

    def test_idempotence(self):
        vs = ring("x", "y", "xi")
        x, y, xi = (V(vs, n) for n in vs)
        I = Ideal(vs, [x * xi - y, y * xi + x, x * y - 1])
        gb1 = groebner_basis(I)
        gb2 = groebner_basis(Ideal(vs, gb1))
        assert gb1 == gb2

    def test_membership_matches_divisibility_on_principal_ideals(self):
        rng = random.Random(23)
        vs = ring("x",)
        for _ in range(30):
            g = random_mpoly(rng, vs, 3, 3)
            f = random_mpoly(rng, vs, 3, 3)
            if g.is_zero():
                continue
            I = Ideal(vs, [g])
            gb = groebner_basis(I)
            divisible = f.univar_divmod(g)[1].is_zero()
            assert normal_form(f, gb).is_zero() == divisible

    def test_budget_error(self):
        vs = ring("x", "y", "xi")
        x, y, xi = (V(vs, n) for n in vs)
        I = Ideal(vs, [x * xi - y, y * xi + x, x * y - 1])
        with pytest.raises(BudgetExceeded):
            groebner_basis(I, budget=1)

    def test_buchberger_returns_ideal(self):
        vs = ring("x", "xi")
        x, xi = V(vs, "x"), V(vs, "xi")
        out = buchberger(Ideal(vs, [x * xi, x * x * xi]))
        assert out.gens == (x * xi,)

    def test_weighted_symbol_order(self):
        order = symbol_weight_order(4)
        # xi-degree dominates total degree
        assert order.key((3, 0, 0, 0)) < order.key((0, 0, 1, 0))


def brute_force_monomial_dimension(gens_exps, n):
    """Largest coordinate subspace missing every generator's support."""
    best = -1
    for mask in range(1 << n):
        ok = True
        for e in gens_exps:
            if all(e[i] == 0 or (mask >> i) & 1 for i in range(n)):
                ok = False
                break
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


class TestKrullDimension:
    def test_examples(self):
        vs = ring("x", "xi")
        x, xi = V(vs, "x"), V(vs, "xi")
        assert krull_dimension(Ideal(vs, [xi])) == 1
        assert krull_dimension(Ideal(vs, [])) == 2
        assert krull_dimension(Ideal(vs, [x * xi])) == 1
        # both components of V(x xi) have dimension 1
        assert krull_dimension(Ideal(vs, [x])) == 1
        assert krull_dimension(Ideal(vs, [xi])) == 1

    def test_unit_ideal_convention(self):
        vs = ring("x",)
        assert krull_dimension(Ideal(vs, [MPoly.const(vs, 1)])) == -1

    def test_exhaustive_monomial_oracle(self):
        # every monomial ideal in <= 3 variables with <= 4 generators drawn
        # from the low-degree monomial pool
        vs = ring("x", "y", "z")
        pool = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
                (2, 0, 0), (1, 0, 1)]
        combos = itertools.chain.from_iterable(
            itertools.combinations(pool, k) for k in (1, 2, 3, 4))
        count = 0
        for exps in combos:
            gens = [MPoly.monomial(vs, e) for e in exps]
            expected = brute_force_monomial_dimension(exps, 3)
            assert krull_dimension(Ideal(vs, gens)) == expected
            count += 1
        assert count == 98


class TestRadicalMembership:
    def test_examples(self):
        vs = ring("x", "y")
        x, y = V(vs, "x"), V(vs, "y")
        assert radical_membership(x, Ideal(vs, [x * x]))
        assert not radical_membership(x, Ideal(vs, [y]))
        vs2 = ring("x", "xi")
        x2, xi2 = V(vs2, "x"), V(vs2, "xi")
        f = x2 * xi2
        I = Ideal(vs2, [f ** 3, xi2 * f])
        assert radical_membership(f, I)

    def test_zero_always_member(self):
        vs = ring("x",)
        assert radical_membership(MPoly.zero(vs), Ideal(vs, [V(vs, "x")]))


class TestSquarefreeMonomial:
    def test_examples(self):
        vs = ring("x", "xi", "eta")
        x, xi, eta = (V(vs, n) for n in vs)
        assert is_radical_squarefree_monomial(Ideal(vs, [x * xi, eta]))
        assert not is_radical_squarefree_monomial(Ideal(vs, [x * x * xi]))
        vs6 = ring("x1", "x2", "x3", "xi1", "xi2", "xi3")
        gens = [V(vs6, "x1") * V(vs6, "xi1"),
                V(vs6, "x2") * V(vs6, "xi2"), V(vs6, "xi3")]
        assert is_radical_squarefree_monomial(Ideal(vs6, gens))

    def test_redundant_generator_is_minimalized(self):
        vs = ring("x",)
        x = V(vs, "x")
        assert is_radical_squarefree_monomial(Ideal(vs, [x, x * x]))

    def test_non_monomial_error(self):
        vs = ring("x", "y")
        with pytest.raises(NotMonomialIdeal):
            is_radical_squarefree_monomial(
                Ideal(vs, [V(vs, "x") + V(vs, "y")]))


COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


def flat_terms(nvars, degree, max_terms):
    return st.dictionaries(st.tuples(*[st.integers(0, degree)] * nvars), COEFFS,
                           min_size=1, max_size=max_terms)


@st.composite
def polynomial_generators(draw):
    vs = ring("x", "y", "z")
    terms = draw(st.lists(flat_terms(3, 2, 3), min_size=1, max_size=3))
    return vs, [MPoly(vs, t) for t in terms]


@st.composite
def weyl_generators(draw):
    n = draw(st.integers(1, 2))
    terms = draw(st.lists(flat_terms(2 * n, 3 - n, 2), min_size=1, max_size=3))
    return [WeylElement(n, {(e[:n], e[n:]): c for e, c in t.items()}) for t in terms]


@st.composite
def permuted_and_rescaled(draw, gens):
    perm = draw(st.permutations(gens))
    scales = draw(st.lists(COEFFS, min_size=len(gens), max_size=len(gens)))
    return [g.scale(c) for g, c in zip(perm, scales)]


def to_sympy(g, symbols, sympy):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
               for exps, c in g.terms.items())


class TestSharedDriver:
    """The one Buchberger driver, checked on the polynomial and Weyl rings."""

    def test_s_polynomials_reduce_to_zero_post_hoc(self):
        rng = random.Random(59)
        vs = ring("x", "y", "z")
        pairs = 0
        for _ in range(6):
            gens = [random_mpoly(rng, vs, 2, 3) for _ in range(3)]
            gb = groebner_basis(Ideal(vs, gens), budget=20000)
            assert all(normal_form(g, gb).is_zero() for g in gens)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    fe, fc = leading_term(gb[i], DEGREVLEX)
                    ge, gc = leading_term(gb[j], DEGREVLEX)
                    lcm = tuple(max(p, q) for p, q in zip(fe, ge))
                    mi = MPoly.monomial(vs, tuple(p - q for p, q in zip(lcm, fe)),
                                        Fraction(1) / fc)
                    mj = MPoly.monomial(vs, tuple(p - q for p, q in zip(lcm, ge)),
                                        Fraction(1) / gc)
                    assert normal_form(mi * gb[i] - mj * gb[j], gb).is_zero()
                    pairs += 1
        assert pairs > 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_polynomial_basis_ignores_generator_order_and_scale(self, data):
        vs, gens = data.draw(polynomial_generators())
        again = data.draw(permuted_and_rescaled(gens))
        assert groebner_basis(Ideal(vs, again)) == groebner_basis(Ideal(vs, gens))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_weyl_basis_ignores_generator_order_and_scale(self, data):
        gens = data.draw(weyl_generators())
        again = data.draw(permuted_and_rescaled(gens))
        assert weyl_groebner(again) == weyl_groebner(gens)

    @pytest.mark.parametrize("order, name", [(DEGREVLEX, "grevlex"), (LEX, "lex")],
                             ids=["grevlex", "lex"])
    def test_matches_sympy(self, order, name):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        vs = ring("x", "y", "z")
        symbols = sympy.symbols(vs)
        for _ in range(8):
            gens = [random_mpoly(rng, vs, 2, 4) for _ in range(3)]
            ours = groebner_basis(Ideal(vs, gens), order)
            theirs = sympy.groebner([to_sympy(g, symbols, sympy) for g in gens],
                                    *symbols, order=name)
            expected = [MPoly(vs, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})
                        for p in theirs.polys]
            assert sorted(ours, key=str) == sorted(expected, key=str)
