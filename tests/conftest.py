"""Shared builders for randomized exact-arithmetic tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dreg.operators import UnivarOperator
from dreg.polynomials import MPoly, RatFun
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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
