import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dreg.cli
import dreg.corpus
import dreg.polelattice
from dreg.cli import _read_chart_file
from dreg.ideals import (groebner_basis, is_radical_squarefree_monomial,
                         minimal_monomial_generators)
from dreg.parser import parse_operator
from dreg.polelattice import (LogLattice, NCChart, _apply_lift, _compositions,
                              _outside_annihilators, _outside_monomials,
                              _symbol_monomials, _window, _window_size, goodness_scan,
                              pole_filtration_annihilator, prop21_inclusion,
                              theorem_backward_extraction,
                              theorem_forward_filtration, theta_XZ_ideal)
from dreg.polynomials import MPoly, RatFun
from dreg.regularity import IRREGULAR, REGULAR
from dreg.weyl import WeylElement, characteristic_ideal, coordinate_names

from conftest import (PERFBENCH, WORKLOADS, curve_inclusion, in_ideal, lattice_inclusion,
                      normal_form, poly_degree, recorded_mismatches, reference_apply_derivation,
                      reference_bare_inclusion, reference_goodness_scan,
                      reference_lattice_inclusion, spy)

ALL_CHARTS = [(n, r) for n in (1, 2, 3) for r in range(1, n + 1)]
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def op(text):
    return parse_operator(text)


class TestThetaIdeal:
    def test_curve(self):
        ideal = theta_XZ_ideal(NCChart(1, 1))
        assert [str(g) for g in ideal.gens] == ["x*xi"]

    def test_surface_one_component(self):
        ideal = theta_XZ_ideal(NCChart(2, 1))
        assert [str(g) for g in ideal.gens] == ["x*xi", "eta"]

    def test_threefold_two_components(self):
        ideal = theta_XZ_ideal(NCChart(3, 2))
        assert [str(g) for g in ideal.gens] == ["x*xi", "y*eta", "zeta"]

    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_always_radical(self, n, r):
        assert is_radical_squarefree_monomial(theta_XZ_ideal(NCChart(n, r)))

    def test_invalid_chart(self):
        with pytest.raises(ValueError):
            NCChart(4, 1)
        with pytest.raises(ValueError):
            NCChart(2, 3)


class TestPoleModule:
    def test_pole_order_convention(self):
        chart = NCChart(2, 2)
        assert chart.pole_order((-1, -1)) == 2
        assert chart.pole_order((-3, 2)) == 3
        assert chart.pole_order((0, 0)) == 0

    def test_pole_order_subadditive_exact_on_pole_monomials(self):
        chart = NCChart(2, 2)
        pure = [(-1, 0), (0, -2), (-2, -1), (0, 0)]
        for a in pure:
            for b in pure:
                ab = tuple(x + y for x, y in zip(a, b))
                assert chart.pole_order(ab) == chart.pole_order(a) + chart.pole_order(b)
        # mixed signs only satisfy the inequality
        a, b = (-1, 1), (1, -1)
        ab = (0, 0)
        assert chart.pole_order(ab) <= chart.pole_order(a) + chart.pole_order(b)

    def test_derivation_action(self):
        chart = NCChart(1, 1)
        # x d x^-3 = -3 x^-3: pole order preserved
        assert _apply_lift(chart, (1,), (1,), (-3,)) == (-3, (-3,))
        # d x^-3 = -3 x^-4: pole order raised by exactly one
        assert _apply_lift(chart, (0,), (1,), (-3,)) == (-3, (-4,))

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_monomials_with_pole_match_product_filter(self, n):
        for r in range(1, n + 1):
            chart = NCChart(n, r)
            for pole in range(9):
                for max_poly in range(8):
                    ranges = [range(-pole if i < r else 0, max_poly + 1)
                              for i in range(n)]
                    reference = [alpha for alpha in itertools.product(*ranges)
                                 if chart.pole_order(alpha) == pole
                                 and poly_degree(alpha) <= max_poly]
                    assert list(chart.monomials_with_pole(pole, max_poly)) == reference


class TestSymbolIdealMembership:
    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_divisibility_matches_groebner_normal_form(self, n, r):
        chart = NCChart(n, r)
        ideal = theta_XZ_ideal(chart)
        generators = minimal_monomial_generators(ideal)
        gb = groebner_basis(ideal)
        for a, b in _symbol_monomials(chart, 6):
            mono = MPoly.monomial(chart.ring, a + b)
            assert in_ideal(generators, a + b) == normal_form(mono, gb).is_zero()


def reference_outside_monomials(generators, n, bound):
    """Every symbol monomial up to the bound, filtered by divisibility."""
    return [(a, b) for a, b in _symbol_monomials(NCChart(n, 1), bound)
            if not in_ideal(generators, a + b)]


class TestOutsideMonomials:
    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_log_symbol_ideals_match_the_filter(self, n, r):
        chart = NCChart(n, r)
        generators = minimal_monomial_generators(theta_XZ_ideal(chart))
        for bound in range(9):
            assert list(_outside_monomials(chart, bound)) == \
                reference_outside_monomials(generators, n, bound)

    def test_compositions_in_product_order(self):
        for parts in range(1, 8):
            for total in range(9):
                reference = [head + (total - sum(head),) for head in
                             itertools.product(range(total + 1), repeat=parts - 1)
                             if sum(head) <= total]
                assert list(_compositions(total, parts)) == reference


class TestAnnihilatorScan:
    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_matches_ideal_to_degree_six(self, n, r):
        report = pole_filtration_annihilator(NCChart(n, r), 6)
        assert report.matches_ideal
        assert not report.to_dict()["failures"]

    def test_row_texts(self):
        # the certificates keep check counts and the texts of failures only
        report = pole_filtration_annihilator(NCChart(2, 1), 3)
        assert (report.stability_checks, report.witness_checks, report.failures) == (
            44, 15, ())
        name, chart, lattice = lattice_catalog()[4]
        forward = theorem_forward_filtration(lattice, 2).to_dict()
        assert (forward["checks"], forward["generators_stabilize"], forward["failures"]) == (
            144, True, [])
        backward = theorem_backward_extraction(op("x^2*d - 1"), 2)
        assert backward.to_dict()["certified"] == ["x^2*T[0][0] is pole-free"]

    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_stability_rows_match_lift_reference(self, n, r):
        # the report counts these checks without running them: the reference
        # applies the full lift of each generator, takes the pole order, and
        # finds every check ok
        chart = NCChart(n, r)
        for bound in range(7):
            expected = []
            for i in range(n):
                b = tuple(int(k == i) for k in range(n))
                a = b if i < r else (0,) * n
                for k in range(bound + 1):
                    for alpha in chart.monomials_with_pole(k, bound):
                        coeff, exp = _apply_lift(chart, a, b, alpha)
                        expected.append(coeff == 0 or chart.pole_order(exp) <= k)
            assert all(expected)
            assert len(expected) == pole_filtration_annihilator(chart, bound).stability_checks

    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_window_size_counts_the_window(self, n, r):
        chart = NCChart(n, r)
        for level in range(10):
            for max_poly in range(10):
                assert _window_size(chart, level, max_poly) == len(
                    _window(chart, level, max_poly))

    def test_annihilator_builds_no_window(self, monkeypatch):
        # stability_checks comes from the closed-form count
        monkeypatch.setattr(dreg.polelattice, "_window", None)
        report = pole_filtration_annihilator(NCChart(3, 3), 6)
        assert report.stability_checks == 3 * 923

    def test_witness_direction_example(self):
        # xi_1 does not annihilate: d_1 deepens the pole on the witness 1/x_1
        chart = NCChart(2, 1)
        report = pole_filtration_annihilator(chart, 3)
        generators = minimal_monomial_generators(theta_XZ_ideal(chart))
        outside = [(a, b) for a, b in _symbol_monomials(chart, 3)
                   if not in_ideal(generators, a + b)]
        assert ((0, 0), (1, 0)) in outside
        assert _apply_lift(chart, (0, 0), (1, 0), (-1, 0)) == (-1, (-2, 0))
        assert (report.witness_checks, report.failures) == (len(outside), ())

    def test_dropped_generator_fails_the_witness_check(self, monkeypatch):
        # a walk that misses x1*xi1 lists monomials the window says annihilate
        chart = NCChart(2, 1)
        dropped = [g for g in minimal_monomial_generators(theta_XZ_ideal(chart))
                   if g != (1, 0, 1, 0)]
        monkeypatch.setattr(dreg.polelattice, "_outside_monomials", lambda chart, bound: iter(
            reference_outside_monomials(dropped, chart.n, bound)))
        report = pole_filtration_annihilator(chart, 3)
        assert not report.matches_ideal
        assert report.to_dict()["failures"][0] == \
            "x^(1, 0) xi^(1, 0) acts nonzero on x^(-1, 0)"
        assert len(report.failures) == 4

    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_theta_ideal_is_the_weyl_characteristic_ideal(self, n, r):
        # Saito, Sturmfels & Takayama (2000): the symbol ideal of
        # D/D(x_i d_i + 1 (i <= r), d_j (j > r)) by a left Groebner basis,
        # a path that shares nothing with theta_XZ_ideal
        chart = NCChart(n, r)
        gens = []
        for i in range(n):
            unit = tuple(int(k == i) for k in range(n))
            terms = {unit + unit: 1, (0,) * (2 * n): 1} if i < r else {(0,) * n + unit: 1}
            gens.append(WeylElement(n, terms))
        assert {str(g) for g in characteristic_ideal(gens).gens} == \
            {str(g) for g in theta_XZ_ideal(chart).gens}


class TestGoodness:
    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_from_level_r_on(self, n, r):
        ok, transcript = goodness_scan(NCChart(n, r), 6)
        assert ok
        assert all(row["ok"] for row in transcript)

    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_closed_form_matches_reference(self, n, r):
        chart = NCChart(n, r)
        for bound in range(13):
            ok, transcript = goodness_scan(chart, bound)
            assert (ok, list(transcript)) == reference_goodness_scan(chart, bound)

    def test_report_builds_only_the_printed_entries(self, monkeypatch, capsys):
        # chart (3, 3) at bound 12 has 540 entries, and the report prints 50
        drawn = 0

        def counted(chart, bound):
            ok, transcript = goodness_scan(chart, bound)

            def entries():
                nonlocal drawn
                for entry in transcript:
                    drawn += 1
                    yield entry
            return ok, entries()

        monkeypatch.setattr(dreg.polelattice, "goodness_scan", counted)
        assert dreg.cli.main(["polelattice", "--n", "3", "--r", "3", "--bound", "12",
                              "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)["transcripts"][0]["goodness"]
        _, full = reference_goodness_scan(NCChart(3, 3), 12)
        assert len(full) == 540
        assert printed == full[:50] and drawn == 50

    def test_failure_below_r_for_two_components(self):
        # at level r the pigeonhole needs j >= r: for j = r - 1 the
        # all-minus-one generator is not a single derivation image
        chart = NCChart(2, 2)
        beta = (-1, -1)
        assert chart.pole_order(beta) == 2
        assert all(beta[i] > -2 for i in range(2))


def lattice_catalog():
    c1 = coordinate_names(1)
    c2 = coordinate_names(2)
    z1, o1 = MPoly.zero(c1), MPoly.const(c1, 1)
    z2 = MPoly.zero(c2)
    return [
        ("trivial-rank1", NCChart(1, 1), LogLattice(NCChart(1, 1), 1, [[[z1]]])),
        ("euler-rank1", NCChart(1, 1),
         LogLattice(NCChart(1, 1), 1, [[[MPoly.const(c1, Fraction(1, 2))]]])),
        ("nilpotent-rank2", NCChart(1, 1),
         LogLattice(NCChart(1, 1), 2, [[[z1, o1], [z1, z1]]])),
        ("plane-rank1", NCChart(2, 2),
         LogLattice(NCChart(2, 2), 1,
                    [[[MPoly.const(c2, Fraction(1, 2))]], [[MPoly.const(c2, 3)]]])),
        ("halfplane-rank2", NCChart(2, 1),
         LogLattice(NCChart(2, 1), 2,
                    [[[MPoly.const(c2, 1), z2], [z2, MPoly.const(c2, 2)]],
                     [[z2, z2], [z2, z2]]])),
        ("poly-gamma-rank1", NCChart(2, 2),
         LogLattice(NCChart(2, 2), 1,
                    [[[MPoly.var(c2, "x")]], [[MPoly.const(c2, 5)]]])),
    ]


class TestForwardTheorem:
    def test_catalog_certifies(self):
        for name, chart, lat in lattice_catalog():
            report = theorem_forward_filtration(lat, 4)
            assert report.certified, (name, report.to_dict())
            assert report.radical

    def test_forward_stability_matches_lift_reference(self):
        # the report counts these checks without running them: every
        # generator's lift keeps each window monomial at each level that
        # contains it
        lattices = [(chart, lat) for _name, chart, lat in lattice_catalog()]
        for name in ("euler_lattice.chart", "nilpotent_lattice.chart", "plane_lattice.chart"):
            lattice = _read_chart_file(str(CORPUS / name))
            lattices.append((lattice.chart, lattice))
        for chart, lattice in lattices:
            for bound in range(5):
                expected = []
                for i in range(chart.n):
                    b = tuple(int(k == i) for k in range(chart.n))
                    a = b if i < chart.r else (0,) * chart.n
                    for level in range(chart.r, chart.r + bound + 1):
                        for pole in range(level + 1):
                            for alpha in chart.monomials_with_pole(pole, bound):
                                for j in range(lattice.rank):
                                    order = lattice.lift_pole_order(a, b, alpha, j)
                                    expected.append(order is None or order <= level)
                assert all(expected)
                report = theorem_forward_filtration(lattice, bound)
                assert len(expected) == report.checks

    def test_non_integrable_rejected(self):
        c2 = coordinate_names(2)
        bad = LogLattice(NCChart(2, 2), 1,
                         [[[MPoly.var(c2, "y")]], [[MPoly.zero(c2)]]])
        with pytest.raises(ValueError, match="not integrable"):
            theorem_forward_filtration(bad, 2)

    def test_integrability_detects_commutator(self):
        c2 = coordinate_names(2)
        bad = LogLattice(NCChart(2, 2), 1,
                         [[[MPoly.var(c2, "y")]], [[MPoly.zero(c2)]]])
        fail = bad.integrability_failure()
        assert fail is not None
        l, k, mat = fail
        assert (l, k) == (0, 1)


class TestProp21:
    def test_pole_module_equality(self):
        for n, r in ALL_CHARTS[:4]:
            report = prop21_inclusion(pole_filtration_annihilator(NCChart(n, r), 4), 4)
            assert report.holds
            assert not report.violations

    def test_euler_twist_annihilator_is_theta_ideal(self):
        report = curve_inclusion(op("x*d - 5"), NCChart(1, 1), 4)
        assert report.holds
        assert "x*xi" in report.annihilating

    def test_irregular_twist_strictly_smaller(self):
        report = curve_inclusion(op("x^2*d - 1"), NCChart(1, 1), 4)
        assert report.holds
        assert "x*xi" not in report.annihilating
        assert "x^2*xi" in report.annihilating

    def test_log_lattices_never_violate(self):
        for name, chart, lat in lattice_catalog():
            report = lattice_inclusion(lat, 3)
            assert report.holds, (name, report.violations)
            assert theorem_forward_filtration(lat, 3).inclusion_holds, name

    @pytest.mark.parametrize("n,r", ALL_CHARTS)
    def test_bare_chart_matches_direct_enumeration(self, n, r):
        chart = NCChart(n, r)
        for bound in range(8):
            report = prop21_inclusion(pole_filtration_annihilator(chart, bound), bound)
            assert (report.holds, report.violations) == (True, ())
            assert report.annihilating == reference_bare_inclusion(chart, bound)

    def test_scan_read_up_to_its_own_bound_only(self):
        # a lower inclusion bound lists its own monomials; a higher one
        # would go past the degree the scan certified
        chart = NCChart(2, 1)
        scan = pole_filtration_annihilator(chart, 5)
        for bound in range(6):
            assert prop21_inclusion(scan, bound).annihilating == \
                reference_bare_inclusion(chart, bound)
        with pytest.raises(ValueError, match="exceeds the scan bound 5"):
            prop21_inclusion(scan, 6)

    def test_listing_reads_the_scanned_chart(self):
        # both charts share one ring; the (2, 1) scan lists eta, eta^2,
        # xi*eta, ... where the (2, 2) chart's own scan gives y*eta, x*xi
        for chart in (NCChart(2, 1), NCChart(2, 2)):
            assert prop21_inclusion(pole_filtration_annihilator(chart, 2), 2).annihilating == \
                reference_bare_inclusion(chart, 2)


class TestBackwardExtraction:
    def test_euler_stable_at_zero(self):
        report = theorem_backward_extraction(op("x*d - 5"), 0)
        assert report.verdict == REGULAR
        assert not report.failing_entries

    def test_irregular_with_bound_two(self):
        report = theorem_backward_extraction(op("x^2*d - 1"), 2)
        assert report.verdict == IRREGULAR
        assert report.failing_entries
        # the s-level stability is still certified entrywise
        assert report.certified == ("x^2*T[0][0] is pole-free",)

    def test_hypergeometric_with_bound_one(self):
        report = theorem_backward_extraction(
            op("x*(1 - x)*d^2 + (1 - 2*x)*d - 1/4"), 1)
        assert report.verdict == REGULAR

    def test_pole_bound_enforced(self):
        with pytest.raises(ValueError, match="pole order"):
            theorem_backward_extraction(op("x^3*d - 1"), 1)

    def test_matrix_input_refused(self):
        with pytest.raises(TypeError):
            theorem_backward_extraction([[RatFun.x("x") ** -1]], 2)

    def test_agrees_with_kashiwara(self):
        from dreg.dmod import kashiwara_regular_at_zero
        for expr in ("x*d - 5", "x^2*d - 1", "d^2", "d^2 + 1"):
            p = op(expr)
            report = theorem_backward_extraction(p, 3)
            assert (report.verdict == REGULAR) == kashiwara_regular_at_zero(p).regular


# -- the memoized window scan against a direct reference -----------------------


def reference_symbol_monomials(chart, bound):
    n = chart.n
    for total in range(1, bound + 1):
        for exps in itertools.product(range(total + 1), repeat=2 * n):
            if sum(exps) == total:
                yield exps[:n], exps[n:]


class SpoiledLattice(LogLattice):
    """A log lattice whose action along coordinate `spoilt` is broken: zeroed
    (cutoff None), or with its terms of pole order above `cutoff` dropped.
    Only supports change, so the integer action and the reference agree."""

    def __init__(self, lattice, spoilt, cutoff):
        super().__init__(lattice.chart, lattice.rank, lattice.gammas)
        self.spoilt, self.cutoff = spoilt, cutoff

    def spoil(self, l, elem):
        if l != self.spoilt:
            return elem
        return {key: c for key, c in elem.items() if self.cutoff is not None
                and self.chart.pole_order(key[0]) <= self.cutoff}

    def apply_derivation(self, l, elem):
        return self.spoil(l, super().apply_derivation(l, elem))


def reference_action(lattice, l, elem):
    """reference_apply_derivation, spoiled as a SpoiledLattice spoils its own
    action."""
    out = reference_apply_derivation(lattice, l, elem)
    return lattice.spoil(l, out) if isinstance(lattice, SpoiledLattice) else out


def reference_lift_image(lattice, a, b, alpha, j):
    """x^a d^b on x^alpha e_j: d^b by repeated derivations, coordinate by
    coordinate, d_l = x_l^(-1) (x_l d_l) on a dividing coordinate, then the
    x^a shift."""
    chart = lattice.chart
    work = {(tuple(alpha), j): Fraction(1)}
    for l in range(chart.n):
        for _ in range(b[l]):
            work = reference_action(lattice, l, work)
            if l < chart.r:
                work = {(tuple(e - (i == l) for i, e in enumerate(beta)), k): c
                        for (beta, k), c in work.items()}
    return {(tuple(e + s for e, s in zip(beta, a)), k): c
            for (beta, k), c in work.items()}


def element_pole_order(chart, elem):
    if not elem:
        return 0
    return max(chart.pole_order(alpha) for (alpha, _j) in elem)


def reference_annihilates(lattice, chart, a, b, bound, twist):
    """Every level of every window, each checked on its own."""
    d = sum(b)
    for k in range(bound + 1):
        level = twist + k
        for pole in range(level + 1):
            for alpha in chart.monomials_with_pole(pole, bound):
                for j in range(lattice.rank):
                    image = reference_lift_image(lattice, a, b, alpha, j)
                    if not image:
                        continue
                    if k + d - 1 < 0:
                        return False
                    if element_pole_order(chart, image) > level + d - 1:
                        return False
    return True


def reference_prop21(lattice, chart, bound):
    gb = groebner_basis(theta_XZ_ideal(chart))
    found, violations = [], []
    for a, b in reference_symbol_monomials(chart, bound):
        if reference_annihilates(lattice, chart, a, b, bound, chart.r):
            mono = MPoly.monomial(chart.ring, a + b)
            (found if normal_form(mono, gb).is_zero() else violations).append(str(mono))
    return not violations, tuple(found), tuple(violations)


def assert_matches_reference(lattice, chart, bound):
    report = lattice_inclusion(lattice, bound)
    assert (report.holds, report.annihilating, report.violations) == \
        reference_prop21(lattice, chart, bound)
    assert report == reference_lattice_inclusion(lattice, chart, bound)
    return report


SMALL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                         Fraction(-2, 3), Fraction(5, 2)])


@st.composite
def integrable_charts(draw):
    """Commuting constant gammas g_l = p_l * g + q_l * I."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, n))
    rank = draw(st.integers(1, 2))
    g = [[draw(SMALL) for _ in range(rank)] for _ in range(rank)]
    gammas = []
    for _ in range(n):
        p, q = draw(SMALL), draw(SMALL)
        gammas.append([[p * g[i][j] + (q if i == j else 0) for j in range(rank)]
                       for i in range(rank)])
    chart = NCChart(n, r)
    return chart, LogLattice(chart, rank, gammas), draw(st.integers(1, 3))


def assert_integer_images(lattice, alpha, j, b):
    """The integer image of d^b is D^|b| times the Fraction reference."""
    image = lattice.derivation_image(alpha, j, b)
    reference = reference_lift_image(lattice, (0,) * lattice.chart.n, b, alpha, j)
    scale = lattice.denominator ** sum(b)
    assert all(type(c) is int for c in image.values())
    assert image == {key: c * scale for key, c in reference.items()}
    return image


@st.composite
def frame_monomials(draw, chart, rank):
    """(alpha, j, b): a window exponent, a frame index and a d^b."""
    alpha = tuple(draw(st.integers(-3 if i < chart.r else 0, 3)) for i in range(chart.n))
    b = tuple(draw(st.integers(0, 2)) for _ in range(chart.n))
    return alpha, draw(st.integers(0, rank - 1)), b


@st.composite
def polynomial_gamma_charts(draw):
    """Any polynomial gammas: the images need no integrability."""
    n = draw(st.integers(1, 3))
    chart = NCChart(n, draw(st.integers(1, n)))
    rank = draw(st.integers(1, 2))
    coords = coordinate_names(n)
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    gammas = [[[MPoly(coords, draw(st.dictionaries(exponents, SMALL, max_size=3)))
                for _ in range(rank)] for _ in range(rank)] for _ in range(n)]
    return chart, LogLattice(chart, rank, gammas)


class TestIntegerImages:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_integrable_charts(self, data):
        chart, lattice, _bound = data.draw(integrable_charts())
        alpha, j, b = data.draw(frame_monomials(chart, lattice.rank))
        assert_integer_images(lattice, alpha, j, b)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_polynomial_gammas(self, data):
        chart, lattice = data.draw(polynomial_gamma_charts())
        alpha, j, b = data.draw(frame_monomials(chart, lattice.rank))
        assert_integer_images(lattice, alpha, j, b)

    @settings(max_examples=40, deadline=None)
    @given(c=st.integers(-4, 4), extra=st.integers(0, 3), n=st.integers(1, 2))
    def test_rank_one_cancellation(self, c, extra, n):
        # x_1 d_1 + c kills x_1^-c: the alpha_1 and gamma terms cancel
        chart = NCChart(n, 1)
        gammas = [[[c]]] + [[[0]]] * (n - 1)
        lattice = LogLattice(chart, 1, gammas)
        assert lattice.denominator == 1
        alpha = (-c,) + (extra,) * (n - 1)
        assert assert_integer_images(lattice, alpha, 0, (1,) + (0,) * (n - 1)) == {}
        assert assert_integer_images(lattice, alpha, 0, (2,) + (1,) * (n - 1)) == {}
        assert lattice.lift_pole_order((0,) * n, (1,) + (0,) * (n - 1), alpha, 0) is None


class TestMemoizedScan:
    @pytest.mark.parametrize("name, bound", [("euler_lattice.chart", 6),
                                             ("nilpotent_lattice.chart", 6),
                                             ("plane_lattice.chart", 3)])
    def test_corpus_charts_match_reference(self, name, bound):
        lattice = _read_chart_file(str(CORPUS / name))
        assert_matches_reference(lattice, lattice.chart, bound)

    @settings(max_examples=25, deadline=None)
    @given(case=integrable_charts())
    def test_integrable_charts_match_reference(self, case):
        chart, lattice, bound = case
        assert_matches_reference(lattice, chart, bound)

    def test_catalog_and_polynomial_gammas_match_reference(self):
        for _name, chart, lattice in lattice_catalog():
            assert_matches_reference(lattice, chart, 3)
        c1 = coordinate_names(1)
        x = MPoly.var(c1, "x")
        chart = NCChart(1, 1)
        lattice = LogLattice(chart, 2, [[[x, MPoly.const(c1, 1)],
                                         [x * x, MPoly.zero(c1)]]])
        assert_matches_reference(lattice, chart, 4)

    def test_failed_scans_skip_dominated_monomials(self, monkeypatch):
        # only the 24 symbol monomials outside the ideal are walked, from the
        # top degree down; x^a' d^b failing makes every x^a d^b with a <= a'
        # fail, so those are not scanned: 13 scans, one per maximal a for
        # each b
        scans = 0
        scan = dreg.polelattice._breaking_element

        def counted(*args):
            nonlocal scans
            scans += 1
            return scan(*args)

        monkeypatch.setattr(dreg.polelattice, "_breaking_element", counted)
        lattice = _read_chart_file(str(CORPUS / "plane_lattice.chart"))
        report = theorem_forward_filtration(lattice, 3)
        assert report.certified
        assert report.checks == 344
        assert scans <= 13

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_symbol_monomials_in_product_order(self, n):
        chart = NCChart(n, 1)
        for bound in range(7):
            assert list(_symbol_monomials(chart, bound)) == \
                list(reference_symbol_monomials(chart, bound))

    @staticmethod
    def counted_plane_forward_theorem(monkeypatch):
        """The forward theorem on the plane chart at bound 3, with the number
        of apply_derivation calls it made."""
        lattice = _read_chart_file(str(CORPUS / "plane_lattice.chart"))
        calls = 0
        apply = LogLattice.apply_derivation

        def counted(self, l, elem):
            nonlocal calls
            calls += 1
            return apply(self, l, elem)

        monkeypatch.setattr(LogLattice, "apply_derivation", counted)
        report = theorem_forward_filtration(lattice, 3)
        return report, calls

    def test_forward_theorem_derivation_count(self, monkeypatch):
        # each scan walks the window deepest pole first and stops at its
        # breaking element; recomputing at every level took 3,474 calls
        report, calls = self.counted_plane_forward_theorem(monkeypatch)
        assert report.certified
        assert report.checks == 344
        assert calls <= 25

    def test_forward_rows_share_the_lattice_memo(self, monkeypatch):
        # the inclusion scan derives each d^b image once, into the
        # lattice's memo
        report, calls = self.counted_plane_forward_theorem(monkeypatch)
        assert report.certified
        assert calls <= 25


@st.composite
def spoiled_lattices(draw):
    chart, lattice, bound = draw(integrable_charts())
    spoilt = draw(st.integers(0, chart.n - 1))
    cutoff = draw(st.none() | st.integers(0, chart.r + bound))
    return SpoiledLattice(lattice, spoilt, cutoff), bound


def forward_inclusion_matches_reference(lattice, bound):
    """The forward walk's verdict, checked against reference_prop21 and, on
    an integrable lattice, against the forward theorem's report."""
    chart = lattice.chart
    generators = minimal_monomial_generators(theta_XZ_ideal(chart))
    standard = tuple(_outside_monomials(chart, bound))
    found = next(_outside_annihilators(lattice, _window(chart, chart.r + bound, bound),
                                       standard), None)
    holds = found is None
    assert holds == reference_prop21(lattice, chart, bound)[0]
    if found is not None:
        assert not in_ideal(generators, found[0] + found[1])
    if lattice.integrability_failure() is None:
        assert theorem_forward_filtration(lattice, bound).inclusion_holds == holds
    return holds


class TestForwardInclusion:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=integrable_charts())
    def test_integrable_charts(self, case):
        chart, lattice, bound = case
        assert forward_inclusion_matches_reference(lattice, bound)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=polynomial_gamma_charts(), bound=st.integers(1, 2))
    def test_polynomial_gammas(self, case, bound):
        _chart, lattice = case
        forward_inclusion_matches_reference(lattice, bound)

    def test_spoiled_lattices_reach_both_verdicts(self):
        verdicts = set()

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(case=spoiled_lattices())
        def check(case):
            verdicts.add(forward_inclusion_matches_reference(*case))

        check()
        assert verdicts == {True, False}

    def test_zeroed_action_breaks_the_theorem(self):
        # d_1 kills everything, so xi_1, outside the ideal, annihilates
        lattice = _read_chart_file(str(CORPUS / "plane_lattice.chart"))
        report = theorem_forward_filtration(SpoiledLattice(lattice, 0, None), 3)
        assert report.radical and not report.inclusion_holds and not report.certified


class TestSpoiledInclusion:
    def test_spoiled_lattices_match_reference(self):
        # the in-ideal listing is the closed form, the violations come from
        # the outside walk: both against the scans of every symbol monomial
        verdicts = set()

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(case=spoiled_lattices())
        def check(case):
            lattice, bound = case
            verdicts.add(assert_matches_reference(lattice, lattice.chart, bound).holds)

        check()
        assert verdicts == {True, False}


class TestPolelatticeCommand:
    def test_one_scan_per_request_and_inclusion_unchanged(self, monkeypatch, capsys):
        # the CLI hands its scan to prop21_inclusion, whose own scan at
        # min(bound, 4) gives the same report: both match the ideal
        scans = 0
        scan = dreg.polelattice.pole_filtration_annihilator

        def counted(*args, **kwargs):
            nonlocal scans
            scans += 1
            return scan(*args, **kwargs)

        monkeypatch.setattr(dreg.polelattice, "pole_filtration_annihilator", counted)
        for n, r in ALL_CHARTS:
            for bound in range(8):
                scans = 0
                code = dreg.cli.main(["polelattice", "--n", str(n), "--r", str(r),
                                      "--bound", str(bound), "--format", "json"])
                assert (code, scans) == (0, 1)
                transcript = json.loads(capsys.readouterr().out)["transcripts"][1]
                expected = prop21_inclusion(
                    pole_filtration_annihilator(NCChart(n, r), min(bound, 4)), min(bound, 4))
                assert transcript == expected.to_dict()
                assert expected.annihilating == \
                    reference_bare_inclusion(NCChart(n, r), min(bound, 4))

    @staticmethod
    def count(monkeypatch, name):
        """The list that gets one entry per call of dreg.polelattice.name."""
        calls = []
        fn = getattr(dreg.polelattice, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(dreg.polelattice, name, counted)
        return calls

    def test_one_symbol_walk_per_request(self, monkeypatch, capsys):
        # the annihilator scan lists only the monomials outside the ideal;
        # the inclusion walks every symbol monomial, up to its own bound
        calls = self.count(monkeypatch, "_symbol_monomials")
        assert dreg.cli.main(["polelattice", "--n", "3", "--r", "2", "--bound", "6"]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        assert all(bound <= min(6, 4) for _chart, bound in calls)

    def test_listing_merges_against_the_scan_walk(self, monkeypatch, capsys):
        # a request walks the standard monomials once, in its scan; the
        # listing reads that walk back and writes each text from its
        # exponents, with no MPoly
        walks = self.count(monkeypatch, "_outside_monomials")
        for n, r in ALL_CHARTS:
            chart = NCChart(n, r)
            for bound in range(8):
                walks.clear()
                assert dreg.cli.main(["polelattice", "--n", str(n), "--r", str(r),
                                      "--bound", str(bound), "--format", "json"]) == 0
                transcript = json.loads(capsys.readouterr().out)["transcripts"][1]
                assert transcript["annihilating_monomials"] == \
                    list(reference_bare_inclusion(chart, min(bound, 4)))
                assert len(walks) == 1
        monomials = spy(monkeypatch, MPoly, "monomial")
        for n, r in ALL_CHARTS:
            chart = NCChart(n, r)
            for bound in range(8):
                scan = pole_filtration_annihilator(chart, bound)
                monomials.clear()
                listed = prop21_inclusion(scan, min(bound, 4)).annihilating
                assert monomials == []
                assert listed == reference_bare_inclusion(chart, min(bound, 4))

    def test_lattice_inclusion_walks_once(self, monkeypatch):
        # the forward theorem's inclusion scan reads one walk of the
        # standard monomials
        lattice = _read_chart_file(str(CORPUS / "plane_lattice.chart"))
        walks = self.count(monkeypatch, "_outside_monomials")
        assert theorem_forward_filtration(lattice, 3).inclusion_holds
        assert len(walks) == 1
        report = lattice_inclusion(lattice, 3)
        assert report.holds and report.annihilating == reference_bare_inclusion(lattice.chart, 3)

    def test_one_window_per_forward_theorem(self, monkeypatch, capsys):
        # the check count and the inclusion scan read one window
        calls = self.count(monkeypatch, "_window")
        assert dreg.cli.main(["theorem", "--file", str(CORPUS / "plane_lattice.chart"),
                              "--bound", "3"]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestRecordedReports:
    def test_polelattice_pool_matches_recorded_digests(self, monkeypatch, tmp_path):
        recorded = json.loads((PERFBENCH / "expected.json").read_text())
        recorded = recorded["workloads"]["polelattice"]["requests"]
        pool = WORKLOADS.polelattice(dreg.corpus).pool
        monkeypatch.chdir(tmp_path)
        mismatches = recorded_mismatches(pool, recorded, tmp_path)
        assert len(pool) == len(recorded) == 69
        assert mismatches == []

    def test_backward_theorem_requests_match_recorded_digests(self, monkeypatch, tmp_path):
        # every theorem --backward request of the benchmark's curves pool
        recorded = json.loads((PERFBENCH / "expected.json").read_text())
        recorded = recorded["workloads"]["curves"]["requests"]
        pool = [request for request in WORKLOADS.curves(dreg.corpus).pool
                if request.argv[:2] == ("theorem", "--backward")]
        monkeypatch.chdir(tmp_path)
        mismatches = recorded_mismatches(pool, recorded, tmp_path)
        assert len(pool) == len([key for key in recorded if key.endswith("/backward")]) == 148
        assert mismatches == []
