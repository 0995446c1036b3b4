import random
from fractions import Fraction

import pytest

from dreg import polynomials
from dreg.corpus import OPERATORS
from dreg.dmod import (ZeroModuleError, decompose_symbol_ideal, dimension_report,
                       fuchs_kashiwara_equivalence, kashiwara_regular_at,
                       kashiwara_regular_at_zero,
                       verify_components_both_ways, CONORMAL_DIVISOR,
                       CONORMAL_POINT, ZERO_SECTION)
from dreg.ideals import Ideal, radical_membership
from dreg.parser import parse_operator, parse_weyl_generators
from dreg.polynomials import MPoly
from dreg.regularity import INFINITY, IRREGULAR, REGULAR
from dreg.weyl import characteristic_ideal, symbol_names

import conftest
from conftest import (CurveModule, characteristic_variety_univar, degree_in, frame,
                      krull_dimension, polar_contains, polar_generators, random_operator,
                      random_operator_with_poles, random_point,
                      reference_annihilator_monomials, reference_check_good_filtration,
                      reference_filtration, require_agreement, scale_operator_var,
                      trivial_filtration_annihilator, weyl_const, weyl_d, weyl_product, weyl_x)


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
            scaled = scale_operator_var(p, c)
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

    def test_randomized_sweep_at_nonzero_points(self):
        # poles at a nonzero rational c and at the roots of x^2 + 1
        rng = random.Random(109)
        verdicts = set()
        for _ in range(80):
            c = random_point(rng)
            p = random_operator_with_poles(rng, c, order=3, degree=3, pole=2)
            rep = fuchs_kashiwara_equivalence(p, c)
            assert rep.agree, rep.to_dict()
            verdicts.add(rep.verdicts)
        assert verdicts == {(REGULAR, REGULAR), (IRREGULAR, IRREGULAR)}


class TestGoodFiltration:
    """F^1 D . F^j = F^(j+1) for j >= n, the lemma that needs no certificate:
    the frozen check exhibits each generator of F^(j+1) inside the span of
    the F^j generators and their images under d."""

    def test_second_derivative(self):
        ok, transcript = reference_check_good_filtration(op("d^2"), 6)
        assert ok and transcript

    def test_euler(self):
        ok, _ = reference_check_good_filtration(op("x*d - 5"), 6)
        assert ok

    def test_irregular_module_still_good(self):
        ok, _ = reference_check_good_filtration(op("x^2*d - 1"), 5)
        assert ok

    # the corpus holds x*d - 5 and x^2*d - 1 already
    @pytest.mark.parametrize("expr", [entry.expression for entry in OPERATORS] + ["d^2"])
    def test_closed_form_matches_reference(self, expr):
        p = op(expr)
        n = p.order()
        for point in (0, 1, INFINITY):
            for bound in range(9):
                assert reference_check_good_filtration(p, bound, point) == (
                    True, [{"degree": j + 1, "generator": idx, "inside": True}
                           for j in range(n, bound + 1) for idx in range(n)])

    @pytest.mark.parametrize("expr, message", [("0", "zero operator"),
                                               ("x^2 + 1", "order-zero")])
    def test_zero_module_refused(self, expr, message):
        for point in (0, 1, INFINITY):
            with pytest.raises(ValueError, match=message):
                reference_check_good_filtration(op(expr), 4, point)


class TestEchelonFiltration:
    """Each level grows from the echelon of the last, not from its whole list."""

    def test_annihilator_monomials_unchanged(self):
        module = CurveModule.from_operator(op("x^2*d - 1").monic())
        expected = [(2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (2, 3)]
        sizes = {1: 0, 2: 0, 3: 1, 4: 3, 5: 6}
        for bound, size in sizes.items():
            assert module.annihilator_monomials(bound) == expected[:size]

    def test_derived_bases_computed_once(self, monkeypatch):
        # d is applied once per frame vector and per row a level adds (3 + 2 +
        # 1 here: the levels hold 0, 2, 3, 3, ... rows), and d^b of each
        # level's basis once per (level, b): at most 5 levels * 4 values of b
        # * 3 vectors
        module = CurveModule.from_operator(op("d^3 - x"))
        calls = 0
        action = conftest.column_theta_terms

        def counted(*args):
            nonlocal calls
            calls += 1
            return action(*args)

        monkeypatch.setattr(conftest, "column_theta_terms", counted)
        found = module.annihilator_monomials(4)
        assert calls <= 6 + 5 * 4 * 3
        assert found == [(1, 1), (2, 1), (1, 2), (0, 3), (3, 1), (2, 2), (1, 3), (0, 4)]
        assert found == reference_annihilator_monomials(module, 4)

    @pytest.mark.parametrize("expr", ["x^2*d - 1", "d^2 + 1", "x*(1 - x)*d^2 + d - 1/4",
                                      "d^3 - x"])
    def test_at_most_rank_generators_per_level(self, expr):
        module = CurveModule.from_operator(op(expr).monic())
        coarse = [lattice.generators()
                  for lattice in reference_filtration(module, 8, [frame(module)[0]])]
        polar = [polar_generators(lattice, module.var) for lattice in module.filtration_lattices(8)]
        for levels in (polar, coarse):
            assert len(levels) == 9
            assert all(len(gens) <= module.dim for gens in levels)

    @pytest.mark.parametrize("expr", ["d^3 - x", "x^2*d - 1", "x*(1 - x)*d^2 + d - 1/4"])
    def test_scan_runs_no_gcd(self, expr, monkeypatch):
        # the scan works on polar dicts and normalises no rational function
        module = CurveModule.from_operator(op(expr).monic())
        calls = 0
        gcd = polynomials.univar_gcd

        def counted(a, b):
            nonlocal calls
            calls += 1
            return gcd(a, b)

        monkeypatch.setattr(polynomials, "univar_gcd", counted)
        found = module.annihilator_monomials(4)
        assert calls == 0
        monkeypatch.undo()
        assert found == reference_annihilator_monomials(module, 4)


class TestPolarFiltration:
    """The polar filtration against the LocalLattice reference from the frame."""

    def test_matches_reference_on_random_operators(self):
        rng = random.Random(5)
        deep = 0
        for i in range(24):
            module = CurveModule.from_operator(random_operator(rng, degree=2, pole=2))
            bound = 1 + i % 3
            polar = module.filtration_lattices(2 * bound)
            reference = reference_filtration(module, 2 * bound)
            for lattice, ref in zip(polar, reference, strict=True):
                gens = polar_generators(lattice, module.var)
                assert len(gens) == module.dim
                assert all(ref.contains(g) for g in gens)
                assert all(polar_contains(lattice, g) for g in ref.generators())
            assert (module.annihilator_monomials(bound)
                    == reference_annihilator_monomials(module, bound))
            deep += len(polar[-1].rows) > module.dim
        assert deep > 5

    def test_scan_matches_reference_on_deep_poles(self):
        # poles of order 0 .. 4 at bounds 1 .. 4: the scan keeps only the polar
        # part of each d^j(g), and the reference derives d^j(g) in Q(x)
        rng = random.Random(26)
        found = []
        for i in range(40):
            module = CurveModule.from_operator(random_operator(rng, degree=2, pole=i % 5))
            bound = 1 + i // 5 % 4
            found.append(module.annihilator_monomials(bound))
            assert found[-1] == reference_annihilator_monomials(module, bound)
        assert any(found) and not all(found)


class TestRadicalIndependence:
    """Two good filtrations of the same module have the same radical."""

    @pytest.mark.parametrize("expr", ["x*d - 5", "d^2", "x^2*d - 1", "d^2 + 1"])
    def test_cyclic_vs_coarse(self, expr):
        p = op(expr).monic()
        module = CurveModule.from_operator(p)
        bound = 3
        fine = module.annihilator_monomials(bound)
        coarse = reference_annihilator_monomials(module, bound, [frame(module)[0]])
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
        assert [c.ideal.gens[0] for c in cv.components if c.kind == CONORMAL_POINT] == []

    def test_euler(self):
        cv = characteristic_variety_univar(op("x*d - 5"))
        kinds = [c.kind for c in cv.components]
        assert kinds == [ZERO_SECTION, CONORMAL_POINT]
        pts = [c.ideal.gens[0] for c in cv.components if c.kind == CONORMAL_POINT]
        assert len(pts) == 1 and degree_in(pts[0], "x") == 1

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
        X, Y = weyl_x(2, 0), weyl_x(2, 1)
        DX, DY = weyl_d(2, 0), weyl_d(2, 1)
        self.gens = [weyl_product(Y, DX) - weyl_const(2, 1),
                     weyl_product(weyl_product(Y, Y), DY) + X]
        self.ideal = characteristic_ideal(self.gens)

    def test_three_components(self):
        cv = decompose_symbol_ideal(self.ideal)
        assert cv.covered and cv.conical
        kinds = sorted(c.kind for c in cv.components)
        assert kinds == [CONORMAL_DIVISOR, CONORMAL_POINT, ZERO_SECTION]
        divisor = next(c for c in cv.components if c.kind == CONORMAL_DIVISOR)
        assert "y" in divisor.label
        point = next(c for c in cv.components if c.kind == CONORMAL_POINT)
        assert "x" in point.label and "y" in point.label

    def test_membership_both_directions(self):
        cv = decompose_symbol_ideal(self.ideal)
        assert verify_components_both_ways(self.ideal, cv)

    def test_holonomic(self):
        assert krull_dimension(self.ideal) == 2
        assert dimension_report(self.ideal).holonomic
        assert dimension_report(self.ideal).bernstein


class TestSymbolDecomposition:
    def test_candidate_not_containing_the_variety_is_dropped(self):
        # x lies in the symbol ideal but not in the zero section's (xi, eta)
        ideal = characteristic_ideal(parse_weyl_generators("x ; dy", ("x", "y")))
        cv = decompose_symbol_ideal(ideal)
        assert [(c.kind, c.label) for c in cv.components] == [(CONORMAL_DIVISOR, "V(x)")]
        assert cv.covered


class TestHolonomicity:
    def test_structure_sheaf(self):
        vs = ("x", "xi")
        I = Ideal(vs, [MPoly.var(vs, "xi")])
        assert dimension_report(I).holonomic and dimension_report(I).bernstein

    def test_full_module_not_holonomic(self):
        vs = ("x", "xi")
        I = Ideal(vs, [])
        assert not dimension_report(I).holonomic
        assert dimension_report(I).bernstein
        assert krull_dimension(I) == 2

    def test_unit_ideal_error(self):
        vs = ("x", "xi")
        I = Ideal(vs, [MPoly.const(vs, 1)])
        with pytest.raises(ZeroModuleError):
            dimension_report(I)

    def test_every_univar_char_ideal(self):
        rng = random.Random(109)
        for _ in range(20):
            p = random_operator(rng, order=3, degree=3, pole=2)
            cv = characteristic_variety_univar(p)
            assert dimension_report(cv.ideal).bernstein
            assert dimension_report(cv.ideal).holonomic


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
            assert dimension_report(ideal).holonomic
            assert krull_dimension(ideal) == n


class TestInfinityPoint:
    def test_kashiwara_at_infinity(self):
        cert = kashiwara_regular_at(op("d^2 - x"), INFINITY)
        assert not cert.regular
        cert2 = kashiwara_regular_at(op("x*d - 5"), INFINITY)
        assert cert2.regular
