"""Acceptance suite: every criterion prints one line and runs at its stated
tolerance (exact equality unless noted)."""

import json
import random
import time
from fractions import Fraction

from dreg.cli import main
from dreg.corpus import OPERATORS
from dreg.dmod import (decompose_symbol_ideal, dimension_report, fuchs_kashiwara_equivalence,
                       verify_components_both_ways, CONORMAL_DIVISOR,
                       CONORMAL_POINT, ZERO_SECTION)
from dreg.ideals import Ideal, is_radical_squarefree_monomial
from dreg.parser import format_operator, parse_operator, parse_weyl_generators
from dreg.polelattice import (LogLattice, NCChart, goodness_scan,
                              pole_filtration_annihilator, prop21_inclusion,
                              theorem_forward_filtration)
from dreg.polynomials import MPoly
from dreg.regularity import REGULAR, regular_on_projective_line
from dreg.systems import (ConnectionSystem, EXCEEDED_BOUND, regular_system_report,
                          saturate_lattice)
from dreg.weyl import (WeylElement, characteristic_ideal, coordinate_names,
                       weyl_mul)

from conftest import (apply_weyl, characteristic_variety_univar, krull_dimension, polar_contains,
                      polar_generators, random_mpoly, random_operator, random_weyl,
                      trivial_filtration_annihilator)


def report(num, detail):
    print(f"\n[acceptance] criterion {num}: PASS — {detail}")


def test_criterion_1_weyl_arithmetic():
    x, d = WeylElement.x(1, 0), WeylElement.d(1, 0)
    assert d * x == x * d + WeylElement.const(1, 1)
    rng = random.Random(1001)
    for _ in range(1000):
        n = rng.choice((1, 2))
        a, b, c = (random_weyl(rng, n, 4, 2) for _ in range(3))
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))
    for _ in range(1000):
        n = rng.choice((1, 2))
        a = random_weyl(rng, n, 3, 2)
        b = random_weyl(rng, n, 3, 2)
        p = random_mpoly(rng, coordinate_names(n), 3, 2)
        assert apply_weyl(weyl_mul(a, b), p) == apply_weyl(a, apply_weyl(b, p))
    report(1, "d*x = x*d + 1; 1000 associativity and 1000 action triples exact")


def test_criterion_2_fuchs_kashiwara_equivalence():
    disagreements = 0
    corpus_points = 0
    assert len(OPERATORS) >= 10
    for entry in OPERATORS:
        p = parse_operator(entry.expression)
        rep = regular_on_projective_line(p)
        assert rep.verdict == entry.global_verdict, entry.name
        for point in [e.location for e in rep.points if e.tested]:
            eq = fuchs_kashiwara_equivalence(p, point)
            corpus_points += 1
            if not eq.agree:
                disagreements += 1
    rng = random.Random(2002)
    randomized = 0
    while randomized < 200:
        p = random_operator(rng, order=3, degree=3, pole=3)
        eq = fuchs_kashiwara_equivalence(p, 0)
        randomized += 1
        if not eq.agree:
            disagreements += 1
    assert disagreements == 0
    report(2, f"AGREE on {corpus_points} corpus points "
              f"({len(OPERATORS)} named operators) and {randomized} randomized; "
              f"0 disagreements")


def test_criterion_3_annihilator_identity():
    start = time.monotonic()
    charts = [(n, r) for n in (1, 2, 3) for r in range(1, n + 1)]
    for n, r in charts:
        chart = NCChart(n, r)
        rep = pole_filtration_annihilator(chart, 6)
        assert rep.matches_ideal, (n, r)
        assert is_radical_squarefree_monomial(rep.ideal)
        ok, _ = goodness_scan(chart, 6)
        assert ok
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"annihilator = squarefree ideal to degree 6 on all "
              f"{len(charts)} charts (n <= 3) in {elapsed:.2f}s")


def test_criterion_4_exponential_module_components():
    gens = parse_weyl_generators("y*dx - 1 ; y^2*dy + x", ("x", "y"))
    ideal = characteristic_ideal(gens)
    cv = decompose_symbol_ideal(ideal, 2)
    assert cv.covered and cv.conical
    kinds = sorted(c.kind for c in cv.components)
    assert kinds == [CONORMAL_DIVISOR, CONORMAL_POINT, ZERO_SECTION]
    zero = next(c for c in cv.components if c.kind == ZERO_SECTION)
    divisor = next(c for c in cv.components if c.kind == CONORMAL_DIVISOR)
    point = next(c for c in cv.components if c.kind == CONORMAL_POINT)
    assert [str(g) for g in zero.ideal.gens] == ["xi", "eta"]
    assert [str(g) for g in divisor.ideal.gens] == ["y", "xi"]
    assert sorted(str(g) for g in point.ideal.gens) == ["x", "y"]
    assert verify_components_both_ways(ideal, cv)
    report(4, "Ch = V(xi,eta) + V(y,xi) + V(x,y) exactly, membership "
              "verified by radical membership both ways")


def test_criterion_5_bernstein_and_holonomicity():
    checked = 0
    for entry in OPERATORS:
        p = parse_operator(entry.expression)
        cv = characteristic_variety_univar(p)
        assert dimension_report(cv.ideal, 1).bernstein
        assert krull_dimension(cv.ideal) == 1
        assert dimension_report(cv.ideal, 1).holonomic
        checked += 1
    gens = parse_weyl_generators("y*dx - 1 ; y^2*dy + x", ("x", "y"))
    exy = characteristic_ideal(gens)
    assert krull_dimension(exy) == 2
    assert dimension_report(exy, 2).holonomic and dimension_report(exy, 2).bernstein
    zero_ideal = Ideal(("x", "xi"), [])
    assert krull_dimension(zero_ideal) == 2
    assert not dimension_report(zero_ideal, 1).holonomic
    assert dimension_report(zero_ideal, 1).bernstein
    report(5, f"dim = n for {checked} cyclic modules and the e^(x/y) module; "
              f"dim = 2n for the full algebra; Bernstein bound everywhere")


def test_criterion_6_forward_theorem():
    c1 = coordinate_names(1)
    c2 = coordinate_names(2)
    z1, o1 = MPoly.zero(c1), MPoly.const(c1, 1)
    z2 = MPoly.zero(c2)
    catalog = [
        ("trivial-rank1-n1", NCChart(1, 1), LogLattice(NCChart(1, 1), 1, [[[z1]]])),
        ("euler-rank1-n1", NCChart(1, 1),
         LogLattice(NCChart(1, 1), 1, [[[MPoly.const(c1, Fraction(1, 2))]]])),
        ("nilpotent-rank2-n1", NCChart(1, 1),
         LogLattice(NCChart(1, 1), 2, [[[z1, o1], [z1, z1]]])),
        ("plane-rank1-n2r2", NCChart(2, 2),
         LogLattice(NCChart(2, 2), 1,
                    [[[MPoly.const(c2, Fraction(1, 2))]], [[MPoly.const(c2, 3)]]])),
        ("halfplane-rank2-n2r1", NCChart(2, 1),
         LogLattice(NCChart(2, 1), 2,
                    [[[MPoly.const(c2, 1), z2], [z2, MPoly.const(c2, 2)]],
                     [[z2, z2], [z2, z2]]])),
        ("poly-rank1-n2r2", NCChart(2, 2),
         LogLattice(NCChart(2, 2), 1,
                    [[[MPoly.var(c2, "x")]], [[MPoly.const(c2, 5)]]])),
    ]
    assert len(catalog) >= 5
    violations = 0
    for name, chart, lat in catalog:
        fr = theorem_forward_filtration(lat, chart, 4)
        assert fr.certified, name
        assert fr.radical
        p21 = prop21_inclusion(lat, chart, 3)
        violations += len(p21.violations)
        assert p21.holds, name
    assert violations == 0
    report(6, f"{len(catalog)} log lattices certified to bound 4 with radical "
              f"annihilator; inclusion held with 0 violations")


def test_criterion_7_saturation_vs_fuchs():
    stabilized_points = 0
    irregular_exceeded = 0
    for entry in OPERATORS:
        p = parse_operator(entry.expression).monic()
        system = ConnectionSystem.companion(p)
        rep = regular_system_report(system)
        for pt in rep.points:
            if pt.saturation.stabilized:
                assert pt.fuchs.verdict == REGULAR, (entry.name, str(pt.point))
                stabilized_points += 1
                lattice = pt.saturation.lattice
                assert lattice is not None
            else:
                assert pt.saturation.status == EXCEEDED_BOUND
                if pt.fuchs.verdict != REGULAR:
                    irregular_exceeded += 1
    # every irregular corpus point returned ExceededBound (checked above via
    # the contradiction trap); idempotence of a stabilized lattice:
    sysm = ConnectionSystem.companion(parse_operator("x*d - 5").monic())
    res = saturate_lattice(sysm, 0)
    assert res.stabilized
    from dreg.polynomials import RatFun
    shift = RatFun.x("x")
    for g in polar_generators(res.lattice):
        image = tuple(shift * e for e in sysm.functional_derivative(g))
        assert polar_contains(res.lattice, image)
    assert stabilized_points > 0 and irregular_exceeded > 0
    report(7, f"stabilized => Fuchs-regular on {stabilized_points} points; "
              f"{irregular_exceeded} irregular points all exceeded the bound; "
              f"stabilized lattices are theta-stable")


def test_criterion_8_coherent_case():
    for n in (1, 2, 3):
        ideal = trivial_filtration_annihilator(n, 2)
        names = [str(g) for g in ideal.gens]
        assert names == ["xi", "eta", "zeta"][:n]
        assert is_radical_squarefree_monomial(ideal)
        assert krull_dimension(ideal) == n
        assert dimension_report(ideal, n).holonomic
    report(8, "stationary filtration annihilator is (xi_1..xi_n), radical, "
              "dimension n, for n = 1, 2, 3")


def test_criterion_9_cli(capsys, tmp_path):
    rng = random.Random(9009)
    count = 0
    for _ in range(1000):
        p = random_operator(rng, order=3, degree=3, pole=3)
        assert parse_operator(format_operator(p)) == p
        count += 1
    # byte-identical reports
    code1 = main(["compare", "x*d - 5", "--point", "0", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = main(["compare", "x*d - 5", "--point", "0", "--format", "json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2
    rep = json.loads(out1)
    assert rep["summary"] == {"fuchs": "regular", "kashiwara": "regular",
                              "agree": True}
    code = main(["charvar", "--vars", "x,y", "y*dx - 1 ; y^2*dy + x",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["certificates"][0]["components"]) == 3
    code = main(["corpus", "--emit", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    code = main(["system", "--file", str(tmp_path / "airy.sys"),
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    inf_fuchs = [v for v in verdicts
                 if v.get("point") == "inf" and v["method"] == "fuchs"]
    assert inf_fuchs[0]["verdict"] == "irregular"
    report(9, f"{count} print/parse round trips; byte-identical JSON; all "
              f"three documented invocations exit 0 with documented verdicts")
