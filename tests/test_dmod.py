import random
from fractions import Fraction

import pytest

from dreg.corpus import OPERATORS
from dreg.dmod import (CurveModule, CyclicFiltration, ZeroModuleError,
                       characteristic_variety_univar, check_good_filtration,
                       decompose_symbol_ideal, dimension_report,
                       fuchs_kashiwara_equivalence, kashiwara_regular_at,
                       kashiwara_regular_at_zero,
                       require_agreement, singular_points,
                       trivial_filtration_annihilator,
                       verify_components_both_ways, CONORMAL_DIVISOR,
                       CONORMAL_POINT, ZERO_SECTION)
from dreg.ideals import Ideal, krull_dimension, radical_membership
from dreg.parser import parse_operator
from dreg.polynomials import MPoly, RatFun
from dreg.regularity import INFINITY, IRREGULAR, REGULAR
from dreg.weyl import WeylElement, characteristic_ideal, symbol_names

from conftest import random_operator


def op(text):
    return parse_operator(text)


class TestKashiwara:
    def test_euler(self):
        cert = kashiwara_regular_at_zero(op("x*d - 5"))
        assert cert.regular
        assert cert.matrix_repr == (("5",),)

    def test_exp_inverse(self):
        cert = kashiwara_regular_at_zero(op("x^2*d - 1"))
        assert not cert.regular
        assert cert.matrix_repr == (("1/x",),)

    def test_second_derivative(self):
        cert = kashiwara_regular_at_zero(op("d^2"))
        assert cert.regular
        # theta e1 = e1: the last column is (0, 1)
        assert cert.matrix_repr[0][1] == "0"
        assert cert.matrix_repr[1][1] == "1"

    def test_scaling_invariance(self):
        rng = random.Random(103)
        for _ in range(40):
            p = random_operator(rng, order=3, degree=3, pole=3)
            c = Fraction(rng.choice([1, 2, -1, 3, -5]), rng.choice([1, 2, 7]))
            scaled = p.scale_var(c)
            assert (kashiwara_regular_at_zero(p).regular
                    == kashiwara_regular_at_zero(scaled).regular)


class TestEquivalence:
    def test_named_corpus_all_points(self):
        for entry in OPERATORS:
            p = op(entry.expression)
            from dreg.regularity import regular_on_projective_line
            rep = regular_on_projective_line(p)
            points = [e.location for e in rep.points if e.tested]
            for point in points:
                eq = require_agreement(fuchs_kashiwara_equivalence(p, point))
                assert eq.agree

    def test_examples(self):
        assert fuchs_kashiwara_equivalence(op("x*d - 5"), 0).verdicts == \
            (REGULAR, REGULAR)
        assert fuchs_kashiwara_equivalence(op("d - 1/x^2"), 0).verdicts == \
            (IRREGULAR, IRREGULAR)

    def test_randomized_sweep(self):
        rng = random.Random(107)
        for _ in range(80):
            p = random_operator(rng, order=3, degree=3, pole=3)
            rep = fuchs_kashiwara_equivalence(p, 0)
            assert rep.agree, rep.to_dict()


class TestGoodFiltration:
    def test_second_derivative(self):
        ok, transcript = check_good_filtration(op("d^2"), 6)
        assert ok and transcript

    def test_euler(self):
        ok, _ = check_good_filtration(op("x*d - 5"), 6)
        assert ok

    def test_irregular_module_still_good(self):
        ok, _ = check_good_filtration(op("x^2*d - 1"), 5)
        assert ok


class TestRadicalIndependence:
    """Two good filtrations of the same module have the same radical."""

    @pytest.mark.parametrize("expr", ["x*d - 5", "d^2", "x^2*d - 1", "d^2 + 1"])
    def test_cyclic_vs_coarse(self, expr):
        p = op(expr).monic()
        module = CurveModule.from_operator(p)
        bound = 3
        fine = module.annihilator_monomials(bound)
        coarse = module.annihilator_monomials(bound, start=[module.frame()[0]])
        ring = ("x", symbol_names(1)[0])
        def ideal_of(monos):
            gens = [MPoly.monomial(ring, e) for e in monos]
            return Ideal(ring, gens)
        fine_ideal, coarse_ideal = ideal_of(fine), ideal_of(coarse)
        assert fine and coarse
        for a, b in fine:
            assert radical_membership(MPoly.monomial(ring, (a, b)), coarse_ideal)
        for a, b in coarse:
            assert radical_membership(MPoly.monomial(ring, (a, b)), fine_ideal)


class TestCharVarietyUnivar:
    def test_airy_zero_section_only(self):
        cv = characteristic_variety_univar(op("d^2 - x"))
        assert [c.kind for c in cv.components] == [ZERO_SECTION]
        assert singular_points(op("d^2 - x")) == []

    def test_euler(self):
        cv = characteristic_variety_univar(op("x*d - 5"))
        kinds = [c.kind for c in cv.components]
        assert kinds == [ZERO_SECTION, CONORMAL_POINT]
        pts = singular_points(op("x*d - 5"))
        assert len(pts) == 1 and pts[0].degree_in("x") == 1

    def test_hypergeometric_fibers(self):
        cv = characteristic_variety_univar(
            op("x*(1 - x)*d^2 + (1 - 2*x)*d - 1/4"))
        points = [c for c in cv.components if c.kind == CONORMAL_POINT]
        assert len(points) == 2
        assert cv.conical

    def test_zero_operator_error(self):
        with pytest.raises(ValueError):
            characteristic_variety_univar(op("x - x"))


class TestExponentialModule:
    def setup_method(self):
        X, Y = WeylElement.x(2, 0), WeylElement.x(2, 1)
        DX, DY = WeylElement.d(2, 0), WeylElement.d(2, 1)
        self.gens = [Y * DX - WeylElement.const(2, 1), Y * Y * DY + X]
        self.ideal = characteristic_ideal(self.gens)

    def test_three_components(self):
        cv = decompose_symbol_ideal(self.ideal, 2)
        assert cv.covered and cv.conical
        kinds = sorted(c.kind for c in cv.components)
        assert kinds == [CONORMAL_DIVISOR, CONORMAL_POINT, ZERO_SECTION]
        divisor = next(c for c in cv.components if c.kind == CONORMAL_DIVISOR)
        assert "y" in divisor.label
        point = next(c for c in cv.components if c.kind == CONORMAL_POINT)
        assert "x" in point.label and "y" in point.label

    def test_membership_both_directions(self):
        cv = decompose_symbol_ideal(self.ideal, 2)
        assert verify_components_both_ways(self.ideal, cv)

    def test_holonomic(self):
        assert krull_dimension(self.ideal) == 2
        assert dimension_report(self.ideal, 2).holonomic
        assert dimension_report(self.ideal, 2).bernstein


class TestHolonomicity:
    def test_structure_sheaf(self):
        vs = ("x", "xi")
        I = Ideal(vs, [MPoly.var(vs, "xi")])
        assert dimension_report(I, 1).holonomic and dimension_report(I, 1).bernstein

    def test_full_module_not_holonomic(self):
        vs = ("x", "xi")
        I = Ideal(vs, [])
        assert not dimension_report(I, 1).holonomic
        assert dimension_report(I, 1).bernstein
        assert krull_dimension(I) == 2

    def test_unit_ideal_error(self):
        vs = ("x", "xi")
        I = Ideal(vs, [MPoly.const(vs, 1)])
        with pytest.raises(ZeroModuleError):
            dimension_report(I, 1)

    def test_every_univar_char_ideal(self):
        rng = random.Random(109)
        for _ in range(20):
            p = random_operator(rng, order=3, degree=3, pole=2)
            cv = characteristic_variety_univar(p)
            assert dimension_report(cv.ideal, 1).bernstein
            assert dimension_report(cv.ideal, 1).holonomic


class TestTrivialFiltration:
    def test_rank_one_curve(self):
        ideal = trivial_filtration_annihilator(1, 1)
        assert [str(g) for g in ideal.gens] == ["xi"]
        assert krull_dimension(ideal) == 1

    def test_rank_three_surface(self):
        ideal = trivial_filtration_annihilator(2, 3)
        assert [str(g) for g in ideal.gens] == ["xi", "eta"]

    def test_holonomic_consistency(self):
        for n in (1, 2, 3):
            ideal = trivial_filtration_annihilator(n, 2)
            assert dimension_report(ideal, n).holonomic
            assert krull_dimension(ideal) == n


class TestInfinityPoint:
    def test_kashiwara_at_infinity(self):
        cert = kashiwara_regular_at(op("d^2 - x"), INFINITY)
        assert not cert.regular
        cert2 = kashiwara_regular_at(op("x*d - 5"), INFINITY)
        assert cert2.regular
