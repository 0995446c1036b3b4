"""Shared builders for randomized exact-arithmetic tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dreg.linalg import mat_mul
from dreg.operators import UnivarOperator
from dreg.polynomials import MPoly, RatFun
from dreg.systems import ConnectionSystem
from dreg.weyl import WeylElement


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_mpoly(rng: random.Random, variables, degree: int = 3,
                 terms: int = 3) -> MPoly:
    variables = tuple(variables)
    out = {}
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, degree) for _ in variables)
        out[exps] = random_fraction(rng)
    return MPoly(variables, out)


def random_weyl(rng: random.Random, n: int, degree: int = 4,
                terms: int = 3) -> WeylElement:
    out = {}
    for _ in range(rng.randint(1, terms)):
        alpha = tuple(rng.randint(0, degree) for _ in range(n))
        beta = tuple(rng.randint(0, degree) for _ in range(n))
        out[(alpha, beta)] = random_fraction(rng)
    return WeylElement(n, out)


def random_ratfun(rng: random.Random, var: str = "x", degree: int = 3,
                  pole: int = 3) -> RatFun:
    num = random_mpoly(rng, (var,), degree, terms=degree + 1)
    k = rng.randint(0, pole)
    den = MPoly.monomial((var,), (k,))
    return RatFun(num, den)


def random_operator(rng: random.Random, var: str = "x", order: int = 3,
                    degree: int = 3, pole: int = 3) -> UnivarOperator:
    n = rng.randint(1, order)
    coeffs = [random_ratfun(rng, var, degree, pole) for _ in range(n)]
    coeffs.append(RatFun.const(var, 1))
    return UnivarOperator(var, coeffs)


def random_point(rng: random.Random, span: int = 6) -> Fraction:
    """A nonzero rational point."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, span), rng.randint(1, span))


def random_ratfun_with_poles(rng: random.Random, c: Fraction, var: str = "x",
                             degree: int = 3, pole: int = 2) -> RatFun:
    """Denominator (x - c)^k (x^2 + 1)^m: poles at c and off the rationals."""
    num = random_mpoly(rng, (var,), degree, terms=degree + 1)
    linear = MPoly.from_univar_coeffs(var, [-c, Fraction(1)])
    quadratic = MPoly.from_univar_coeffs(var, [1, 0, 1])
    den = linear ** rng.randint(0, pole) * quadratic ** rng.randint(0, 1)
    return RatFun(num, den)


def random_operator_with_poles(rng: random.Random, c: Fraction, var: str = "x",
                               order: int = 3, degree: int = 3,
                               pole: int = 2) -> UnivarOperator:
    n = rng.randint(1, order)
    coeffs = [random_ratfun_with_poles(rng, c, var, degree, pole) for _ in range(n)]
    coeffs.append(RatFun.const(var, 1))
    return UnivarOperator(var, coeffs)


def random_system(rng: random.Random, rank: int, var: str = "x",
                  degree: int = 2, pole: int = 2) -> ConnectionSystem:
    """A connection matrix with poles at 0, at a nonzero rational and at
    the roots of x^2 + 1; about a quarter of the entries are zero."""
    points = (Fraction(0), random_point(rng))
    rows = [[RatFun.zero(var) if rng.random() < 0.25
             else random_ratfun_with_poles(rng, rng.choice(points), var, degree, pole)
             for _ in range(rank)] for _ in range(rank)]
    return ConnectionSystem(rows, var)


def random_gauged_euler(rng: random.Random, rank: int, var: str = "x") -> ConnectionSystem:
    """An Euler system diag(a_i / x) moved by the gauge T = I + U, U strictly
    upper triangular with entries c / x^k: regular at 0 by construction, and
    its saturated lattice mixes exponents across components."""
    x = RatFun.x(var)
    zero, one = RatFun.zero(var), RatFun.const(var, 1)
    ident = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
    euler = [[RatFun.const(var, rng.randint(-3, 3)) / x if i == j else zero
              for j in range(rank)] for i in range(rank)]
    u = [[RatFun.const(var, rng.randint(-2, 2)) / x ** rng.randint(1, 2) if j > i else zero
          for j in range(rank)] for i in range(rank)]
    t = [[a + b for a, b in zip(r, s)] for r, s in zip(ident, u)]
    # T^-1 = I - U + U^2 - ..., since U is nilpotent
    t_inv, power = ident, ident
    for k in range(1, rank):
        power = mat_mul(power, u)
        t_inv = [[a + (-1) ** k * b for a, b in zip(r, s)] for r, s in zip(t_inv, power)]
    conj = mat_mul(mat_mul(t_inv, euler), t)
    drift = mat_mul(t_inv, [[e.derivative() for e in row] for row in t])
    # flow matrix T^-1 B T - T^-1 T', so A = T^-1 T' - T^-1 B T
    return ConnectionSystem([[d - c for c, d in zip(r, s)] for r, s in zip(conj, drift)], var)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
