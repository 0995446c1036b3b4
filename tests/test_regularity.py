import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dreg import polynomials, regularity
from dreg.dmod import kashiwara_regular_at
from dreg.parser import parse_operator
from dreg.polynomials import INF, MPoly, RatFun
from dreg.regularity import (GLOBAL_IRREGULAR, GLOBAL_REGULAR,
                             GLOBAL_REGULAR_TESTED, INFINITY, IRREGULAR,
                             REGULAR, fuchs_regular_at, newton_polygon,
                             regular_on_projective_line, theta_regular_at_zero)

from conftest import (evaluate_mpoly, random_operator, random_operator_with_poles,
                      random_point, random_ratfun_with_poles, reference_monic_orders, spy,
                      univar_divmod)


def op(text):
    return parse_operator(text)


HYP = "x*(1 - x)*d^2 + (1 - 2*x)*d - 1/4"


class TestFuchs:
    def test_euler(self):
        cert = fuchs_regular_at(op("x*d - 5"), 0)
        assert cert.verdict == REGULAR
        assert [(r.index, r.order, r.bound) for r in cert.rows] == [(0, -1, -1)]

    def test_irregular_twist(self):
        cert = fuchs_regular_at(op("d - 1/x^2"), 0)
        assert cert.verdict == IRREGULAR
        assert cert.rows[0].order == -2 and cert.rows[0].bound == -1
        # oracle: the theta-form coefficient has a pole
        ok, witness = theta_regular_at_zero(op("d - 1/x^2"))
        assert not ok
        assert witness.coeff(0).ord_at(0) < 0

    def test_hypergeometric_three_points(self):
        p = op(HYP)
        for point in (Fraction(0), Fraction(1), INFINITY):
            assert fuchs_regular_at(p, point).verdict == REGULAR

    def test_zero_coefficient_rows_pass(self):
        cert = fuchs_regular_at(op("d^2 - x"), 0)
        assert cert.verdict == REGULAR
        inf_rows = [r for r in cert.rows if r.order == INF]
        assert len(inf_rows) == 1 and inf_rows[0].satisfied  # b1 = 0

    def test_unit_left_multiple_invariance(self):
        rng = random.Random(83)
        for _ in range(25):
            p = random_operator(rng, order=2, degree=2, pole=2)
            # (x + 1) is a unit of the local ring at 0
            unit = RatFun(MPoly.from_univar_coeffs("x", [1, 1]))
            q = p.scale(unit)
            assert (fuchs_regular_at(p, 0).verdict
                    == fuchs_regular_at(q, 0).verdict)

    def test_translate_then_test_at_zero(self):
        rng = random.Random(89)
        for _ in range(25):
            p = random_operator(rng, order=2, degree=2, pole=2)
            c = Fraction(rng.randint(-3, 3))
            direct = fuchs_regular_at(p, c).verdict
            moved = fuchs_regular_at(p.shift(c), 0).verdict
            assert direct == moved


class TestThetaCriterion:
    def test_euler_first_order(self):
        # d + a/x has Euler form theta + a
        p = op("d + 5/x")
        ok, witness = theta_regular_at_zero(p)
        assert ok
        assert witness.coeff(0) == RatFun.const("x", 5)

    def test_irregular(self):
        ok, witness = theta_regular_at_zero(op("x^2*d + 1"))
        assert not ok

    def test_smooth_point(self):
        ok, witness = theta_regular_at_zero(op("d^2"))
        assert ok
        assert witness.coeff(2) == RatFun.const("x", 1)
        assert witness.coeff(1) == RatFun.const("x", -1)

    def test_agrees_with_fuchs(self):
        rng = random.Random(97)
        for _ in range(120):
            p = random_operator(rng, order=3, degree=4, pole=3)
            fuchs = fuchs_regular_at(p, 0).verdict == REGULAR
            theta, _ = theta_regular_at_zero(p)
            assert fuchs == theta


class TestNewtonPolygon:
    def test_euler(self):
        np_ = newton_polygon(op("x*d - 5"), 0)
        assert list(np_.slopes) == [Fraction(0)]

    def test_irregular_twist(self):
        np_ = newton_polygon(op("d - 1/x^2"), 0)
        assert (0, 2) in np_.points and (1, 1) in np_.points
        assert Fraction(1) in np_.slopes

    def test_airy_at_infinity(self):
        np_ = newton_polygon(op("d^2 - x"), INFINITY)
        assert any(s > 0 for s in np_.slopes)
        assert Fraction(3, 2) in np_.slopes

    def test_slope_zero_iff_fuchs(self):
        rng = random.Random(101)
        for _ in range(120):
            p = random_operator(rng, order=3, degree=3, pole=3)
            slopes = list(newton_polygon(p, 0).slopes)
            fuchs = fuchs_regular_at(p, 0).verdict == REGULAR
            assert (slopes == [Fraction(0)]) == fuchs


class TestProjectiveLine:
    def test_euler(self):
        rep = regular_on_projective_line(op("x*d - 5"))
        assert rep.verdict == GLOBAL_REGULAR
        tested = [str(e.location) for e in rep.points]
        assert tested == ["0", "inf"]

    def test_airy(self):
        rep = regular_on_projective_line(op("d^2 - x"))
        assert rep.verdict == GLOBAL_IRREGULAR
        assert [str(e.location) for e in rep.points] == ["inf"]

    def test_hypergeometric(self):
        rep = regular_on_projective_line(op(HYP))
        assert rep.verdict == GLOBAL_REGULAR
        assert [str(e.location) for e in rep.points] == ["0", "1", "inf"]

    def test_untested_factor_never_silently_passes(self):
        # leading coefficient x^2 - 2 has no rational roots
        p = op("(x^2 - 2)*d^2 + d + 1")
        rep = regular_on_projective_line(p)
        assert rep.verdict in (GLOBAL_REGULAR_TESTED, GLOBAL_IRREGULAR)
        untested = [e for e in rep.points if not e.tested]
        assert len(untested) == 1
        assert untested[0].location.total_degree() == 2

    def test_untested_factor_sweep(self):
        # x^2 + 1 in a denominator is reported untested; x - c is tested at c
        rng = random.Random(113)
        quadratic = MPoly.from_univar_coeffs("x", [1, 0, 1])
        seen = set()
        for _ in range(60):
            c = random_point(rng)
            p = random_operator_with_poles(rng, c, order=3, degree=3, pole=2)
            dens = [a.den for a in p.monic().coeffs]
            has_quadratic = any(univar_divmod(d, quadratic)[1].is_zero() for d in dens)
            has_c = any(evaluate_mpoly(d, {"x": c}) == 0 for d in dens)
            rep = regular_on_projective_line(p)
            untested = [e for e in rep.points if not e.tested]
            assert bool(untested) == has_quadratic
            for e in untested:
                assert e.to_dict()["verdict"] == "requires extension field"
                assert univar_divmod(e.location, quadratic)[1].is_zero()
            if untested:
                assert rep.verdict in (GLOBAL_REGULAR_TESTED, GLOBAL_IRREGULAR)
            assert (c in [e.location for e in rep.points if e.tested]) == has_c
            seen.add((has_quadratic, has_c))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


class TestOrdersWithoutDivision:
    """Fuchs rows and Newton points read ord b_i - ord b_n where the point
    is, by synthetic division; the reference translates the point to the
    origin and divides by b_n first."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_rows_and_points_match_the_monic_division(self, seed):
        rng = random.Random(seed)
        c = random_point(rng)
        p = random_operator_with_poles(rng, c, order=3, degree=3, pole=2)
        # a left factor with zeros and poles makes the leading coefficient matter
        lead = random_ratfun_with_poles(rng, c, degree=2, pole=2)
        if lead:
            p = p.scale(lead)
        for point in (c, Fraction(0), INFINITY):
            orders = reference_monic_orders(p, point)
            n = len(orders) - 1
            rows = [(r.index, r.order, r.bound, r.satisfied)
                    for r in fuchs_regular_at(p, point).rows]
            assert rows == [(i, orders[i], i - n, orders[i] >= i - n) for i in range(n)]
            assert newton_polygon(p, point).points == tuple(
                (i, i - int(o)) for i, o in enumerate(orders) if o != INF)

    def test_finite_point_runs_no_taylor_shift(self, monkeypatch):
        shifts = spy(monkeypatch, polynomials, "_taylor_shift")
        p = op(HYP)
        for point in (Fraction(1), Fraction(-2, 3)):
            fuchs_regular_at(p, point)
            newton_polygon(p, point)
        regular_on_projective_line(p)
        assert not shifts
        # the graded-annihilator test still translates, and the spy sees it
        kashiwara_regular_at(p, Fraction(1))
        assert shifts

    def test_one_factorisation_per_report(self, monkeypatch):
        calls = spy(monkeypatch, regularity, "factor_rational")
        rep = regular_on_projective_line(op("(x^2 + 1)*(x - 1)*d - 1"))
        assert len(calls) == 1
        assert [e.to_dict()["point"] for e in rep.points] == ["1", "inf", "x^2 + 1"]
        assert rep.verdict == GLOBAL_REGULAR_TESTED
