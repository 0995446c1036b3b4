import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dreg.operators import (ThetaOperator, UnivarOperator, lah, stirling_first_signed,
                            to_theta_form)
from dreg.polynomials import MPoly, RatFun, denominator_lcm
from dreg.weyl import WeylElement

from conftest import (apply_operator, from_theta_form, is_monic, random_operator,
                      random_operator_with_poles, random_point, random_ratfun_with_poles,
                      reference_at_infinity, stirling_second, to_weyl)


def x():
    return RatFun.x("x")


def D():
    return UnivarOperator.derivation("x")


class TestThetaForm:
    def test_first_order(self):
        # x * d = theta
        t = to_theta_form(D())
        assert t.coeff(1) == RatFun.const("x", 1)
        assert t.coeff(0).is_zero()

    def test_second_order(self):
        # x^2 d^2 = theta(theta - 1)
        t = to_theta_form(D() ** 2)
        assert t.coeff(2) == RatFun.const("x", 1)
        assert t.coeff(1) == RatFun.const("x", -1)

    def test_euler_shift(self):
        # x*(x d - 5) = x*theta - 5x
        p = UnivarOperator.from_entries("x", [-5, x()])
        t = to_theta_form(p)
        assert t.coeff(1) == x()
        assert t.coeff(0) == -5 * x()

    def test_round_trip_exact(self):
        rng = random.Random(61)
        for _ in range(60):
            p = random_operator(rng, order=3, degree=3, pole=2)
            n = p.order()
            back = from_theta_form(to_theta_form(p))
            assert back == p.scale(x() ** n)

    def test_verified_on_monomial_actions(self):
        # theta-form of x^2 d^2 acts like k(k-1) on x^k
        p = D() ** 2
        t = to_theta_form(p)
        for k in range(5):
            xk = RatFun(MPoly.monomial(("x",), (k,)))
            acted = apply_operator(p.scale(x() ** 2), xk)
            assert acted == xk * Fraction(k * (k - 1))


class TestStirling:
    def test_collapse_expand_identity(self):
        # expanding theta^m into x^k d^k and collapsing back is the identity
        for m in range(9):
            coeffs = [RatFun.zero("x")] * m + [RatFun.const("x", 1)]
            t = ThetaOperator("x", coeffs)
            p = from_theta_form(t)
            # p has polynomial coefficients; its theta form (of x^m p) is
            # x^m * theta^m read through the two Stirling triangles
            t2 = to_theta_form(p)
            xm = x() ** m
            for i in range(m + 1):
                assert t2.coeff(i) == xm * t.coeff(i)

    def test_triangles_invert(self):
        for n in range(9):
            for k in range(9):
                total = sum(stirling_first_signed(n, j) * stirling_second(j, k)
                            for j in range(10))
                assert total == (1 if n == k else 0)


class TestLah:
    def test_powers_of_minus_t2_d(self):
        # (-t^2 d)^i = (-1)^i sum_k L(i,k) t^(i+k) d^k, against Leibniz products
        t = RatFun.x("t")
        step = UnivarOperator.from_entries("t", [0, -t ** 2])
        power = UnivarOperator.from_entries("t", [1])
        for i in range(1, 7):
            power = power.mul(step)
            assert power == UnivarOperator.from_entries(
                "t", [0] + [(-1) ** i * lah(i, k) * t ** (i + k) for k in range(1, i + 1)])
        assert [lah(4, k) for k in range(6)] == [0, 24, 36, 12, 1, 0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_at_infinity_matches_the_leibniz_powers(self, seed):
        rng = random.Random(seed)
        c = random_point(rng)
        p = random_operator_with_poles(rng, c, order=4, degree=3, pole=2)
        lead = random_ratfun_with_poles(rng, c, degree=2, pole=2)
        if lead:
            p = p.scale(lead)
        assert p.at_infinity() == reference_at_infinity(p)
        assert p.at_infinity("s") == reference_at_infinity(p, "s")


class TestCharts:
    def test_translate(self):
        p = UnivarOperator.from_entries("x", [-5, x()])
        q = p.shift(2)
        assert q.coeff(0) == RatFun.const("x", -5)
        assert q.coeff(1) == x() + 2

    def test_infinity_examples(self):
        # d -> -t^2 d_t
        q = D().at_infinity()
        t = RatFun.x("t")
        assert q.coeff(1) == -(t ** 2)
        # x d -> -t d_t
        euler = UnivarOperator("x", [RatFun.zero("x"), x()])
        q2 = euler.at_infinity()
        assert q2.coeff(1) == -t
        assert q2.coeff(0).is_zero()
        # airy: t^4 d^2 + 2 t^3 d - 1/t
        airy = UnivarOperator.from_entries("x", [-x(), 0, 1])
        q3 = airy.at_infinity()
        assert q3.coeff(2) == t ** 4
        assert q3.coeff(1) == 2 * t ** 3
        assert q3.coeff(0) == -1 / t

    def test_double_infinity_is_unit_multiple(self):
        rng = random.Random(67)
        for _ in range(25):
            p = random_operator(rng, order=2, degree=2, pole=2)
            twice = p.at_infinity().at_infinity("x")
            assert twice.monic() == p.monic()

    def test_order_and_symbol_at_infinity(self):
        airy = UnivarOperator.from_entries("x", [-x(), 0, 1])
        q = airy.at_infinity()
        assert q.order() == airy.order()
        assert to_weyl(q).order() == 2
        assert denominator_lcm(q.coeffs) == (0, 1)


class TestOperatorAlgebra:
    def test_leibniz_product(self):
        # d . x = x d + 1 at the operator level
        xop = UnivarOperator.from_entries("x", [x()])
        prod = D().mul(xop)
        assert prod.coeff(1) == x()
        assert prod.coeff(0) == RatFun.const("x", 1)

    def test_apply(self):
        p = UnivarOperator.from_entries("x", [1, x()])  # x d + 1
        f = RatFun(MPoly.monomial(("x",), (3,)))
        assert apply_operator(p, f) == f * 4

    def test_mul_consistent_with_apply(self):
        rng = random.Random(71)
        for _ in range(40):
            a = random_operator(rng, order=2, degree=2, pole=1)
            b = random_operator(rng, order=2, degree=2, pole=1)
            f = RatFun(MPoly.monomial(("x",), (rng.randint(0, 3),)))
            assert apply_operator(a.mul(b), f) == apply_operator(a, apply_operator(b, f))

    def test_to_weyl_clears_denominators(self):
        p = UnivarOperator.from_entries("x", [RatFun.const("x", 1) / x(), 1])
        assert denominator_lcm(p.coeffs) == (0, 1)
        xe, de = WeylElement.x(1, 0), WeylElement.d(1, 0)
        assert to_weyl(p) == xe * de + WeylElement.const(1, 1)

    def test_monic(self):
        p = UnivarOperator.from_entries("x", [-1, x() * x()])
        m = p.monic()
        assert is_monic(m)
        assert m.coeff(0) == -1 / (x() * x())
