import random
from fractions import Fraction

import pytest

from dreg.ideals import Ideal, krull_dimension, normal_form, groebner_basis
from dreg.polynomials import MPoly
from dreg.weyl import (WeylElement, characteristic_ideal, format_weyl,
                       weyl_groebner, weyl_mul, weyl_ring)

from conftest import random_mpoly, random_weyl


def a1():
    return WeylElement.x(1, 0), WeylElement.d(1, 0)


class TestNormalOrdering:
    def test_defining_relation(self):
        x, d = a1()
        assert d * x == x * d + WeylElement.const(1, 1)

    def test_dd_xx(self):
        x, d = a1()
        lhs = (d ** 2) * (x ** 2)
        expected = x ** 2 * d ** 2 + (x * d).scale(4) + WeylElement.const(1, 2)
        assert lhs == expected

    def test_theta_squared(self):
        x, d = a1()
        theta = x * d
        assert theta * theta == x ** 2 * d ** 2 + x * d

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
            assert weyl_mul(a, b).apply(p) == a.apply(b.apply(p))

    def test_theta_action_on_monomials(self):
        x, d = a1()
        theta2 = (x * d) ** 2
        for k in range(5):
            xk = MPoly.monomial(("x",), (k,))
            assert theta2.apply(xk) == xk.scale(k * k)


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
        # x and d generate the unit left ideal: the S-pair is the constant 1
        x, d = a1()
        gb = weyl_groebner([x, d])
        assert gb == [WeylElement.const(1, 1)]

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
            ring = weyl_ring(n)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    fe, fc = ring.leading(gb[i])
                    ge, gc = ring.leading(gb[j])
                    lcm = tuple(max(p, q) for p, q in zip(fe, ge))
                    ei = tuple(p - q for p, q in zip(lcm, fe))
                    ej = tuple(p - q for p, q in zip(lcm, ge))
                    mi = WeylElement(n, {(ei[:n], ei[n:]): Fraction(1) / fc})
                    mj = WeylElement(n, {(ej[:n], ej[n:]): Fraction(1) / gc})
                    s = weyl_mul(mi, gb[i]) - weyl_mul(mj, gb[j])
                    assert normal_form(s, gb, ring).is_zero()
