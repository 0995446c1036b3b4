import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dreg import regularity, systems as systems_mod
from dreg.errors import ContradictionError
from dreg.lattices import laurent_rows
from dreg.operators import UnivarOperator
from dreg.parser import parse_operator
from dreg.polynomials import MPoly, RatFun, as_rat, denominator_lcm
from dreg.regularity import (GLOBAL_IRREGULAR, GLOBAL_REGULAR, INFINITY,
                             IRREGULAR, REGULAR, fuchs_regular_at, singular_locus)
from dreg.systems import (ConnectionSystem, EXCEEDED_BOUND,
                          STABILIZED, SaturationResult, _candidate_schedule, cyclic_vector,
                          regular_system_report, saturate_lattice)

from conftest import (LocalLattice, conjugate, den_of, num_of, polar_contains, polar_generators,
                      polar_part, random_gauged_euler, random_operator, random_ratfun_with_poles,
                      random_system, ratfun, spy, system_at_infinity)

SRC = Path(__file__).resolve().parent.parent / "src"


def rat(text):
    from dreg.parser import parse_ratfun
    return parse_ratfun(text)


def system(rows):
    return ConnectionSystem([[rat(e) for e in row] for row in rows])


def verdict_points(sysm: ConnectionSystem) -> list:
    """The rational poles of A, ascending, then infinity."""
    return singular_locus(denominator_lcm(e for row in sysm.matrix for e in row), sysm.var)[0]


class TestCyclicVector:
    def test_rank_one_euler(self):
        res = cyclic_vector(system([["-5/x"]]))
        assert res.operator == parse_operator("d - 5/x")
        assert not res.determinant.is_zero()

    def test_companion_round_trip(self):
        for expr in ("d^2 - x", "x*d - 5", "x*(1 - x)*d^2 + (1 - 2*x)*d - 1/4"):
            p = parse_operator(expr).monic()
            res = cyclic_vector(ConnectionSystem.companion(p))
            assert res.operator == p

    def test_diagonal_example(self):
        res = cyclic_vector(system([["0", "0"], ["0", "-1/x"]]))
        assert res.operator.order() == 2
        # singularities only at 0 and infinity, Fuchs-regular at both
        for point in (Fraction(0), INFINITY):
            assert fuchs_regular_at(res.operator, point).verdict == REGULAR

    def test_scalar_system_passes_every_constant_functional(self):
        # B = -I/x: a constant functional c has derivative -c/x, so no 0/1
        # candidate is cyclic, and the schedule reaches its exponent grid
        sysm = system([["1/x", "0"], ["0", "1/x"]])
        schedule = list(_candidate_schedule(sysm))
        assert len(set(schedule)) == len(schedule)
        assert [tuple(map(str, c)) for c in schedule[:4]] == \
            [("1", "0"), ("0", "1"), ("1", "1"), ("x", "1")]
        res = cyclic_vector(sysm)
        assert [str(e) for e in res.cyclic_vector] == ["x", "1"]
        assert not res.determinant.is_zero()
        assert res.operator == parse_operator("d^2 + 2/x*d")
        report = regular_system_report(sysm)
        assert [(p.point, p.fuchs.verdict, p.saturation.status) for p in report.points] == \
            [(0, REGULAR, STABILIZED), (INFINITY, REGULAR, STABILIZED)]

    def test_gauge_invariant_verdicts(self):
        p = parse_operator("d^2 - x")
        base = ConnectionSystem.companion(p)
        for g in ([[1, 1], [0, 1]], [[2, 0], [3, 1]], [[0, 1], [1, 0]]):
            conj = conjugate(base, g)
            res = cyclic_vector(conj)
            for point in (Fraction(0), INFINITY):
                assert (fuchs_regular_at(res.operator, point).verdict
                        == fuchs_regular_at(p, point).verdict)


class TestSaturation:
    def test_euler_immediately_stable(self):
        res = saturate_lattice(system([["-5/x"]]), 0)
        assert res.status == STABILIZED and res.steps == 0

    def test_irregular_never_stabilizes(self):
        res = saturate_lattice(system([["1/x^2"]]), 0)
        assert res.status == EXCEEDED_BOUND

    def test_hypergeometric_stabilizes_quickly(self):
        p = parse_operator("x*(1 - x)*d^2 + (1 - 2*x)*d - 1/4")
        res = saturate_lattice(ConnectionSystem.companion(p), 0)
        assert res.status == STABILIZED and res.steps <= 2

    def test_stabilized_lattice_idempotent(self):
        sysm = system([["-5/x"]])
        res = saturate_lattice(sysm, 0)
        lattice = res.lattice
        shift = RatFun.x("x")
        for g in polar_generators(lattice):
            image = tuple(shift * e for e in sysm.functional_derivative(g))
            assert polar_contains(lattice, image)

    def test_exceeded_bound_is_no_verdict(self):
        res = saturate_lattice(system([["1/x^2"]]), 0, max_steps=2)
        assert res.status == EXCEEDED_BOUND
        assert res.lattice is None


def reference_saturation(sysm, point, max_steps):
    """L -> L + theta L by whole LocalLattice echelons: the reference loop.

    Returns (status, steps, lattice or None), the lattice at the origin of
    the moved chart, as saturate_lattice leaves its own.
    """
    if point is INFINITY:
        return reference_saturation(system_at_infinity(sysm), Fraction(0), max_steps)
    point = as_rat(point)
    if point:
        return reference_saturation(sysm.shifted(point), Fraction(0), max_steps)
    m = sysm.rank
    shift = RatFun.x(sysm.var)
    lattice = LocalLattice.standard(m, sysm.var)
    for step in range(max_steps + 1):
        images = [tuple(shift * e for e in sysm.functional_derivative(g))
                  for g in lattice.generators()]
        new = [v for v in images if not lattice.contains(v)]
        if not new:
            return STABILIZED, step, lattice
        lattice = lattice.extended(new)
    return EXCEEDED_BOUND, max_steps, None


class TestPolarSaturation:
    """saturate_lattice on polar parts against the LocalLattice loop."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([1, 2]),
           st.integers(0, 6))
    def test_matches_reference_loop(self, rng, rank, max_steps):
        sysm = random_system(rng, rank)
        for pt in verdict_points(sysm):
            res = saturate_lattice(sysm, pt, max_steps)
            status, steps, ref = reference_saturation(sysm, pt, max_steps)
            assert (res.status, res.steps) == (status, steps), str(pt)
            if ref is not None:
                polar = res.lattice
                var = "t" if pt is INFINITY else sysm.var      # the chart variable at infinity
                assert all(polar_contains(polar, g) for g in ref.generators())
                assert all(ref.contains(g) for g in polar_generators(polar, var))

    def test_matches_reference_loop_on_gauged_euler_systems(self):
        rng = random.Random(41)
        deep = 0
        for _ in range(40):
            sysm = random_gauged_euler(rng, 3)
            res = saturate_lattice(sysm, 0, 6)
            status, steps, ref = reference_saturation(sysm, 0, 6)
            assert (res.status, res.steps) == (status, steps) == (STABILIZED, steps)
            assert all(polar_contains(res.lattice, g) for g in ref.generators())
            assert all(ref.contains(g) for g in polar_generators(res.lattice))
            deep += steps >= 2
        assert deep > 10

    def test_generators_are_p_over_x_power(self):
        res = saturate_lattice(system([["0", "-1"], ["1/x^2", "-1/x"]]), 0)
        gens = polar_generators(res.lattice)
        assert res.stabilized and len(gens) == 2
        assert any(polar_part(g) for g in gens)  # at least one has a pole
        for g in gens:
            assert all(den_of(e).is_monomial() for e in g)
            assert polar_contains(res.lattice, g)

    def test_d3_companion_default_bound_finishes(self, tmp_path):
        sys_file = tmp_path / "d3.sys"
        sys_file.write_text("rank 3\n0 ; -1 ; 0\n0 ; 0 ; -1\n"
                            "2/3/x^2 ; 3/4*x^2 ; 0\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "dreg.cli", "system", "--file", str(sys_file),
             "--format", "json"],
            capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 0, done.stderr
        points = json.loads(done.stdout)["certificates"][0]["points"]
        assert [(p["point"], p["saturation"]) for p in points] == [
            ("0", {"status": STABILIZED, "steps": 1, "max_steps": 2}),
            ("inf", {"status": EXCEEDED_BOUND, "steps": 2, "max_steps": 2})]


def direct_sum(a, b):
    """The block-diagonal system a (+) b."""
    zero = RatFun.zero(a.var)
    return ConnectionSystem([list(r) + [zero] * b.rank for r in a.matrix]
                            + [[zero] * a.rank + list(r) for r in b.matrix])


def cliff_rows(m, p):
    """Companion-shaped: -1 on the superdiagonal, last row (j+1)/x^((m-j)p)."""
    rows = [["-1" if j == i + 1 else "0" for j in range(m)] for i in range(m - 1)]
    return rows + [[f"{j + 1}/x^{(m - j) * p}" for j in range(m)]]


def cliff_text(m, p):
    return f"rank {m}\n" + "".join(" ; ".join(row) + "\n" for row in cliff_rows(m, p))


def run_system(tmp_path, text, *argv):
    """dreg system --format json on a .sys text in a fresh interpreter."""
    sys_file = tmp_path / "cliff.sys"
    sys_file.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "dreg.cli", "system", "--file", str(sys_file),
         "--format", "json", *argv],
        capture_output=True, text=True, timeout=60, env=env)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)["certificates"][0]["points"], elapsed


def test_rank_six_random_system_reports_in_seconds(tmp_path):
    # the cyclic vector's gcds take GCDHEU: this draw took over 30 s on the
    # PRS alone, and a fraction of a second with it
    system = random_system(random.Random(6), 6)
    text = "rank 6\n" + "".join(" ; ".join(map(str, row)) + "\n" for row in system.matrix)
    before = os.times()
    points, _ = run_system(tmp_path, text)
    after = os.times()
    assert after.children_user + after.children_system \
        - before.children_user - before.children_system < 3
    assert len(points) == 3


class TestGerardLevelt:
    """Saturation ends after step m - 1 once L_(m-1) is not theta-stable."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(-1, 1),
           st.booleans())
    def test_matches_reference_loop_around_m_minus_one(self, rng, rank, offset, gauged):
        if gauged:
            # regular, and often stable only at step m - 1
            sysm = random_gauged_euler(rng, rank)
        elif rank < 4:
            sysm = random_system(rng, rank, degree=1)
        else:
            # the reference loop swells on coupled rank-4 systems; two blocks keep it cheap
            sysm = direct_sum(random_system(rng, 2, degree=1), random_system(rng, 2, degree=1))
        max_steps = max(0, rank - 1 + offset)
        operator = cyclic_vector(sysm).operator
        for pt in verdict_points(sysm):
            res = saturate_lattice(sysm, pt, max_steps)
            status, steps, _ = reference_saturation(sysm, pt, max_steps)
            assert (res.status, res.steps) == (status, steps), str(pt)
            if max_steps >= rank - 1:
                # Gerard-Levelt: regular exactly when L_(m-1) is theta-stable
                assert res.stabilized == fuchs_regular_at(operator, pt).regular, str(pt)
                assert not res.stabilized or res.steps <= rank - 1

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.integers(1, 4))
    def test_verdict_is_settled_at_m_minus_one(self, rng, rank):
        sysm = random_system(rng, rank)
        operator = cyclic_vector(sysm).operator
        for pt in verdict_points(sysm):
            at = saturate_lattice(sysm, pt, rank - 1)
            above = saturate_lattice(sysm, pt, rank + 3)
            assert at.stabilized == above.stabilized == fuchs_regular_at(operator, pt).regular
            assert at.steps == (above.steps if above.stabilized else rank - 1)

    def test_loop_ends_after_step_m_minus_one(self, monkeypatch):
        from dreg.lattices import PolarLattice
        calls = []
        real = PolarLattice.insert
        monkeypatch.setattr(PolarLattice, "insert",
                            lambda self, row: calls.append(row) or real(self, row))
        res = saturate_lattice(system([["1/x^2"]]), 0, max_steps=50)
        assert (res.status, res.steps, res.max_steps) == (EXCEEDED_BOUND, 50, 50)
        assert len(calls) == 1
        calls.clear()
        res = saturate_lattice(system([["0", "-1"], ["1/x^3", "0"]]), 0, max_steps=50)
        assert (res.status, res.steps) == (EXCEEDED_BOUND, 50)
        assert 2 < len(calls) <= 4  # steps 0 and 1 only

    def test_bound_below_m_minus_one_is_honoured(self):
        sysm = system(cliff_rows(3, 2))
        for max_steps in (0, 1):
            res = saturate_lattice(sysm, 0, max_steps)
            assert (res.status, res.steps) == (EXCEEDED_BOUND, max_steps)
            assert (res.status, res.steps) == reference_saturation(sysm, 0, max_steps)[:2]

    def test_disagreeing_saturation_is_a_contradiction(self, monkeypatch, capsys,
                                                        tmp_path):
        from dreg.cli import main
        real = systems_mod.saturate_lattice

        def flipped(sysm, point, max_steps=None):
            res = real(sysm, point, max_steps)
            if res.stabilized:
                return SaturationResult(EXCEEDED_BOUND, res.max_steps, res.max_steps, None)
            return SaturationResult(STABILIZED, 0, res.max_steps, res.lattice)

        monkeypatch.setattr(systems_mod, "saturate_lattice", flipped)
        for entry, fuchs, said in (
                ("-5/x", REGULAR, "exceeded_bound at 0 but the Fuchs test is regular"),
                ("1/x^2", IRREGULAR, "stabilized at 0 but the Fuchs test is irregular")):
            with pytest.raises(ContradictionError, match=said) as caught:
                regular_system_report(system([[entry]]))
            assert caught.value.details["fuchs"]["verdict"] == fuchs
        sys_file = tmp_path / "euler.sys"
        sys_file.write_text("rank 1\n-5/x\n")
        assert main(["system", "--file", str(sys_file), "--format", "json"]) == 3
        message, details = capsys.readouterr().err.split("\n", 1)
        assert "exceeded_bound at 0" in message
        details = json.loads(details)
        assert details["saturation"] == {"status": EXCEEDED_BOUND, "steps": 0,
                                         "max_steps": 0}
        assert details["fuchs"]["verdict"] == REGULAR

    def test_bound_below_m_minus_one_is_no_contradiction(self):
        rng = random.Random(41)
        while True:
            sysm = random_gauged_euler(rng, 3)
            if saturate_lattice(sysm, 0, 6).steps >= 2:
                break
        rep = regular_system_report(sysm, max_steps=1)
        origin = rep.points[0]
        assert str(origin.point) == "0" and origin.fuchs.verdict == REGULAR
        assert origin.saturation.to_dict() == {"status": EXCEEDED_BOUND, "steps": 1,
                                               "max_steps": 1}

    def test_rank_five_cliff_finishes(self, tmp_path):
        points, elapsed = run_system(tmp_path, cliff_text(5, 3))
        assert [(p["point"], p["fuchs"], p["saturation"]) for p in points] == [
            ("0", IRREGULAR, {"status": EXCEEDED_BOUND, "steps": 4, "max_steps": 4}),
            ("inf", REGULAR, {"status": STABILIZED, "steps": 4, "max_steps": 4})]
        assert elapsed < 1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_euler_companion_is_stable_exactly_at_m_minus_one(self, m):
        # p = 1 makes the operator Fuchsian at 0, of Euler type
        sysm = system(cliff_rows(m, 1))
        for max_steps in range(max(0, m - 2), m + 1):
            res = saturate_lattice(sysm, 0, max_steps)
            assert (res.status, res.steps) == reference_saturation(sysm, 0, max_steps)[:2]
        assert saturate_lattice(sysm, 0, m + 3).to_dict() == {
            "status": STABILIZED, "steps": m - 1, "max_steps": m + 3}

    def test_rank_three_cliff_matches_reference(self, tmp_path):
        sysm = system(cliff_rows(3, 2))
        text = cliff_text(3, 2)
        for max_steps in (1, 2, 6):
            points, _ = run_system(tmp_path, text, "--max-steps", str(max_steps))
            assert [p["point"] for p in points] == ["0", "inf"]
            for p, pt in zip(points, (0, INFINITY)):
                status, steps, _ = reference_saturation(sysm, pt, max_steps)
                assert p["saturation"] == {"status": status, "steps": steps,
                                           "max_steps": max_steps}
        points, _ = run_system(tmp_path, text)
        assert [p["saturation"] for p in points] == [
            {"status": EXCEEDED_BOUND, "steps": 2, "max_steps": 2},
            {"status": STABILIZED, "steps": 2, "max_steps": 2}]


class TestReports:
    def test_euler(self):
        rep = regular_system_report(system([["-5/x"]]))
        assert rep.verdict == GLOBAL_REGULAR
        assert [(str(p.point), p.fuchs.verdict, p.saturation.status)
                for p in rep.points] == [
            ("0", REGULAR, STABILIZED), ("inf", REGULAR, STABILIZED)]
        assert all(p.saturation.stabilized for p in rep.points)

    def test_airy_companion(self):
        p = parse_operator("d^2 - x")
        rep = regular_system_report(ConnectionSystem.companion(p))
        assert rep.verdict == GLOBAL_IRREGULAR
        inf = rep.points[-1]
        assert str(inf.point) == "inf"
        assert inf.fuchs.verdict == IRREGULAR
        assert inf.saturation.status == EXCEEDED_BOUND
        assert not inf.saturation.stabilized

    def test_one_factorisation_per_report(self, monkeypatch):
        calls = spy(monkeypatch, regularity, "factor_rational")
        rep = regular_system_report(system([["0", "-1"], ["1/((x^2 + 1)*(x - 1))", "0"]]))
        assert len(calls) == 1
        assert [str(p.point) for p in rep.points] == ["1", "inf"]
        assert [str(f) for f in rep.untested] == ["x^2 + 1"]

    def test_exp_twist(self):
        rep = regular_system_report(system([["1/x^2"]]))
        origin = rep.points[0]
        assert origin.fuchs.verdict == IRREGULAR
        assert origin.saturation.status == EXCEEDED_BOUND
        assert rep.verdict == GLOBAL_IRREGULAR

    def test_stabilized_implies_regular_sweep(self):
        rng = random.Random(113)
        checked = 0
        for _ in range(15):
            p = random_operator(rng, order=2, degree=2, pole=2).monic()
            sysm = ConnectionSystem.companion(p)
            rep = regular_system_report(sysm)
            for pt in rep.points:
                if pt.saturation.stabilized:
                    assert pt.fuchs.verdict == REGULAR
                    checked += 1
        assert checked > 10

    def test_stabilized_implies_regular_rank_three_sweep(self):
        rng = random.Random(331)
        checked = 0
        for _ in range(24):
            c = rng.choice((Fraction(0), Fraction(rng.randint(1, 3))))
            coeffs = [random_ratfun_with_poles(rng, c, degree=2, pole=2)
                      for _ in range(3)]
            p = UnivarOperator("x", coeffs + [RatFun.const("x", 1)])
            rep = regular_system_report(ConnectionSystem.companion(p), max_steps=6)
            for pt in rep.points:
                if pt.saturation.stabilized:
                    assert pt.fuchs.verdict == REGULAR
                    checked += 1
        assert checked > 10

    def test_infinity_chart(self):
        sysm = system([["-5/x"]])
        inf_sys = system_at_infinity(sysm)
        assert inf_sys.var == "t"
        res = cyclic_vector(inf_sys)
        assert fuchs_regular_at(res.operator, 0).verdict == REGULAR

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([1, 2]))
    def test_infinity_chart_matches_gcd_formula(self, rng, rank):
        sysm = random_system(rng, rank)
        t2 = MPoly.monomial(("t",), (2,))
        inverted = [[e.invert_var() for e in row] for row in sysm.matrix]
        assert system_at_infinity(sysm).matrix == tuple(
            tuple(ratfun(-num_of(f), den_of(f) * t2) for f in row) for row in inverted)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3))
    def test_laurent_rows_at_infinity_match_the_chart(self, rng, rank):
        # the chart keeps leading zeros where a numerator vanishes at t = 0,
        # so the rows are compared as {exponent: coefficient}, not by start
        sysm = random_system(rng, rank)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy(mp, systems_mod, "theta_terms")
            saturate_lattice(sysm, INFINITY)
        chart = laurent_rows(system_at_infinity(sysm).flow_matrix())

        def expansions(rows):
            return [{j: {f.start + k: c for k, c in enumerate(f.terms(4)) if c} for j, f in row}
                    for row in rows]

        assert expansions(calls[0][1]) == expansions(chart)

    def test_infinity_chart_carries_solutions(self):
        # d^2 - 2/x^2 has the solution x^2, so its companion has (x^2, 2x);
        # in the chart t = 1/x that is (t^-2, 2/t), and y' + A y = 0 there
        sysm = ConnectionSystem.companion(parse_operator("d^2 - 2/x^2"))
        inf_sys = system_at_infinity(sysm)
        t = RatFun.x("t")
        y = (RatFun.const("t", 1) / t ** 2, RatFun.const("t", 2) / t)
        residual = [f.derivative() + sum((a * g for a, g in zip(row, y)), RatFun.zero("t"))
                    for f, row in zip(y, inf_sys.matrix)]
        assert all(r.is_zero() for r in residual)
