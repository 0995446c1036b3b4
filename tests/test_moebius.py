"""Verdicts move with a change of coordinate on P^1.

Regularity at a point does not depend on the coordinate (Deligne, LNM 163,
II.1).  A Moebius map phi(t) = (a t + b)/(c t + d) pulls a system back to
A'(t) = A(phi(t)) phi'(t) and an operator back by the chain rule,
d_x = (1/phi'(t)) d_t, and carries the point p of the old coordinate to
phi^-1(p).  With c != 0, infinity trades places with the finite point
-d/c, and the old point a/c goes to infinity, so the verdicts read at
infinity in place are checked against the finite-point code and back.
The pull-back is composed here on integer coefficient lists and shares
nothing with src/ beyond RatFun arithmetic and the operator product.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from dreg.dmod import fuchs_kashiwara_equivalence
from dreg.operators import UnivarOperator
from dreg.parser import parse_operator
from dreg.polynomials import RatFun, denominator_lcm
from dreg.regularity import INFINITY, fuchs_regular_at, newton_polygon, singular_locus
from dreg.systems import ConnectionSystem, cyclic_vector, saturate_lattice

from conftest import (apply_operator, op_add, op_scale, random_operator_with_poles,
                      random_point, random_system)


def _mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def homogenized(p, phi) -> list:
    """(c t + d)^n p(phi(t)) for an integer polynomial p of degree n:
    sum p_j (a t + b)^j (c t + d)^(n - j), without trailing zeros."""
    a, b, c, d = phi
    n = len(p) - 1
    out = [0] * (n + 1)
    for j, pj in enumerate(p):
        term = [pj]
        for _ in range(j):
            term = _mul(term, [b, a])
        for _ in range(n - j):
            term = _mul(term, [d, c])
        out = [u + v for u, v in zip(out, term)]
    while not out[-1]:
        out.pop()
    return out


def pull_back(f: RatFun, phi) -> RatFun:
    """f(phi(t)) for f = s num/den: s (c t + d)^(deg den - deg num) times
    the homogenized num over the homogenized den."""
    if f.is_zero():
        return f
    a, b, c, d = phi
    linear = RatFun.x("x") * c + d
    return (RatFun.quotient("x", homogenized(f.numer, phi), homogenized(f.denom, phi))
            * f.scale * linear ** (len(f.denom) - len(f.numer)))


def derivative(phi) -> RatFun:
    """phi'(t) = (a d - b c)/(c t + d)^2."""
    a, b, c, d = phi
    return RatFun.const("x", a * d - b * c) / (RatFun.x("x") * c + d) ** 2


def pull_back_system(system: ConnectionSystem, phi) -> ConnectionSystem:
    """y(phi(t)) solves z' + A(phi(t)) phi'(t) z = 0 when y solves y' + A y = 0."""
    dphi = derivative(phi)
    return ConnectionSystem([[pull_back(e, phi) * dphi for e in row] for row in system.matrix])


def pull_back_operator(p: UnivarOperator, phi) -> UnivarOperator:
    """sum b_i(phi(t)) ((1/phi'(t)) d_t)^i."""
    step = UnivarOperator("x", [RatFun.zero("x"), 1 / derivative(phi)])
    power = UnivarOperator.from_entries("x", [1])
    total = UnivarOperator("x", [])
    for b in p.coeffs:
        total = op_add(total, op_scale(pull_back(b, phi), power))
        power = power.mul(step)
    return total


def image(point, phi):
    """phi(point)."""
    a, b, c, d = phi
    if point is INFINITY:
        return INFINITY if c == 0 else Fraction(a, c)
    den = c * point + d
    return INFINITY if den == 0 else (a * point + b) / den


def preimage(point, phi):
    """phi^-1(point): the t with a t + b = point (c t + d)."""
    a, b, c, d = phi
    if point is INFINITY:
        return INFINITY if c == 0 else Fraction(-d, c)
    den = a - c * point
    return INFINITY if den == 0 else (d * point - b) / den


def verdict_points(coeffs) -> list:
    return singular_locus(denominator_lcm(coeffs), "x")[0]


def point_pairs(old, new, phi) -> set:
    """(p, phi^-1(p)) for the verdict points of both coordinates."""
    return ({(p, preimage(p, phi)) for p in verdict_points(old)}
            | {(image(q, phi), q) for q in verdict_points(new)})


# phi with a d - b c != 0 and c != 0, so that infinity always moves
MAPS = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([-2, -1, 1, 2]),
                 st.integers(-3, 3)).filter(lambda phi: phi[0] * phi[3] != phi[1] * phi[2])


class TestPullBack:
    """The test's own transform carries solutions."""

    def test_system_carries_solutions(self):
        # d^2 - 2/x^2 has the solution x^2, so its companion has (x^2, 2x)
        phi = (2, 1, 1, -3)
        system = ConnectionSystem.companion(parse_operator("d^2 - 2/x^2"))
        moved = pull_back_system(system, phi)
        x = pull_back(RatFun.x("x"), phi)
        z = (x ** 2, 2 * x)
        residual = [f.derivative() + sum((a * g for a, g in zip(row, z)), RatFun.zero("x"))
                    for f, row in zip(z, moved.matrix)]
        assert all(r.is_zero() for r in residual)

    def test_operator_carries_solutions(self):
        phi = (2, 1, 1, -3)
        x = pull_back(RatFun.x("x"), phi)
        for text, solution in (("x*d - 5", x ** 5), ("x^2*d^2 - 2", x ** 2),
                               ("(x - 1)*d^2 - x*d + 1", x)):
            moved = pull_back_operator(parse_operator(text), phi)
            assert apply_operator(moved, solution).is_zero(), text


class TestMoebius:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), MAPS)
    @example(random.Random(5), 3, (2, 1, 1, -3))
    def test_system_verdicts_move_with_the_point(self, rng, rank, phi):
        old = random_system(rng, rank)
        new = pull_back_system(old, phi)
        old_op, new_op = cyclic_vector(old).operator, cyclic_vector(new).operator
        pairs = point_pairs([e for row in old.matrix for e in row],
                            [e for row in new.matrix for e in row], phi)
        assert any(INFINITY in pair for pair in pairs)
        for p, q in pairs:
            assert (fuchs_regular_at(old_op, p).verdict, saturate_lattice(old, p).stabilized) \
                == (fuchs_regular_at(new_op, q).verdict, saturate_lattice(new, q).stabilized), \
                (str(p), str(q))

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), MAPS)
    def test_operator_verdicts_move_with_the_point(self, rng, phi):
        old = random_operator_with_poles(rng, random_point(rng), order=3, degree=2, pole=2)
        new = pull_back_operator(old, phi)

        def verdicts(p, point):
            return (fuchs_regular_at(p, point).verdict, newton_polygon(p, point).slopes,
                    fuchs_kashiwara_equivalence(p, point).verdicts)

        for p, q in point_pairs(old.monic().coeffs, new.monic().coeffs, phi):
            assert verdicts(old, p) == verdicts(new, q), (str(p), str(q))
