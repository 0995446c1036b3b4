"""The Weyl algebra A_n over Q in normal-ordered canonical form.

Elements are finite sums c * x^alpha * d^beta with all x's to the left of
all d's; multiplication normal-orders immediately through the closed form

    d^a x^b = sum_k k! C(a,k) C(b,k) x^(b-k) d^(a-k)

so equality of elements is equality of term maps.  Left Gröbner bases come
from the Buchberger driver in `dreg.ideals`; this module only describes A_n
to it (`weyl_ring`).  Its term order compares total d-degree first, which
makes the principal symbols of a basis generate a well-defined graded ideal
in Q[x, xi].
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .ideals import (DEFAULT_BUDGET, Ideal, Ring, buchberger_basis,
                     symbol_weight_order)
from .polynomials import MPoly, _exact, as_rat

_COORD_NAMES = ("x", "y", "z")
_SYMBOL_NAMES = ("xi", "eta", "zeta")
_DERIV_NAMES = ("dx", "dy", "dz")


def coordinate_names(n: int) -> tuple:
    if n <= 3:
        return _COORD_NAMES[:n]
    return tuple(f"x{i+1}" for i in range(n))


def symbol_names(n: int) -> tuple:
    if n <= 3:
        return _SYMBOL_NAMES[:n]
    return tuple(f"xi{i+1}" for i in range(n))


def deriv_names(n: int) -> tuple:
    if n == 1:
        return ("d",)
    if n <= 3:
        return _DERIV_NAMES[:n]
    return tuple(f"d{i+1}" for i in range(n))


class WeylElement:
    """A normal-ordered element of A_n; terms map (alpha, beta) to Q*."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        self.n = n
        clean: dict[tuple, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                alpha, beta = key
                if len(alpha) != n or len(beta) != n:
                    raise ValueError(f"multi-index {key} has wrong length for A_{n}")
                c = as_rat(coeff)
                if c:
                    clean[(tuple(alpha), tuple(beta))] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "WeylElement":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, value) -> "WeylElement":
        z = (0,) * n
        return cls(n, {(z, z): as_rat(value)})

    @classmethod
    def x(cls, n: int, i: int, power: int = 1) -> "WeylElement":
        alpha = tuple(power if j == i else 0 for j in range(n))
        return cls(n, {(alpha, (0,) * n): 1})

    @classmethod
    def d(cls, n: int, i: int, power: int = 1) -> "WeylElement":
        beta = tuple(power if j == i else 0 for j in range(n))
        return cls(n, {((0,) * n, beta): 1})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def order(self) -> int | float:
        """Maximal total d-degree (the order filtration level)."""
        if not self.terms:
            return -math.inf
        return max(sum(beta) for _, beta in self.terms)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "WeylElement") -> None:
        if self.n != other.n:
            raise ValueError("elements of different Weyl algebras")

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        res = dict(self.terms)
        for key, c in other.terms.items():
            s = res.get(key)
            if s is None:
                res[key] = c
                continue
            s += c
            if s:
                res[key] = _exact(s)
            else:
                del res[key]
        out = WeylElement.__new__(WeylElement)
        out.n = self.n
        out.terms = res
        return out

    def __neg__(self) -> "WeylElement":
        out = WeylElement.__new__(WeylElement)
        out.n = self.n
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, c) -> "WeylElement":
        c = as_rat(c)
        if not c:
            return WeylElement.zero(self.n)
        out = WeylElement.__new__(WeylElement)
        out.n = self.n
        out.terms = {k: _exact(c * v) for k, v in self.terms.items()}
        return out

    def __mul__(self, other) -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return weyl_mul(self, other)

    def __rmul__(self, other) -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "WeylElement":
        if k < 0:
            raise ValueError("negative power in the Weyl algebra")
        result = WeylElement.const(self.n, 1)
        for _ in range(k):
            result = weyl_mul(result, self)
        return result

    # -- symbol and action -----------------------------------------------------

    def principal_symbol(self, variables: Sequence[str] | None = None) -> MPoly:
        """Image of the top-order part in Gr A_n = Q[x, xi]."""
        if self.is_zero():
            raise ValueError("no symbol of zero")
        top = self.order()
        if variables is None:
            variables = coordinate_names(self.n) + symbol_names(self.n)
        variables = tuple(variables)
        if len(variables) != 2 * self.n:
            raise ValueError("need one coordinate and one symbol name per variable")
        terms = {}
        for (alpha, beta), c in self.terms.items():
            if sum(beta) == top:
                terms[alpha + beta] = c
        return MPoly(variables, terms)

    def apply(self, p: MPoly) -> MPoly:
        """Act on a polynomial in the coordinates."""
        if len(p.vars) != self.n:
            raise ValueError("polynomial has wrong number of variables")
        result = MPoly.zero(p.vars)
        for (alpha, beta), c in self.terms.items():
            q = p
            for i, b in enumerate(beta):
                for _ in range(b):
                    q = q.diff(p.vars[i])
                    if q.is_zero():
                        break
            if q.is_zero():
                continue
            result = result + MPoly.monomial(p.vars, alpha, c) * q
        return result

    def __str__(self) -> str:
        return format_weyl(self)

    def __repr__(self) -> str:
        return f"WeylElement({format_weyl(self)!r})"


@functools.cache
def _leibniz(b: int, g: int) -> tuple:
    """The integers k! C(b, k) C(g, k), k = 0 .. min(b, g): the coefficients
    of d^b x^g in normal order."""
    return tuple(math.factorial(k) * math.comb(b, k) * math.comb(g, k)
                 for k in range(min(b, g) + 1))


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product in A_n.

    A left factor c * x^alpha with no d is an exponent shift and a scale,
    under which no two terms collide.  Otherwise each term pair contracts
    d_i^beta_i against x_i^gamma_i for the variables where both are
    nonzero, with the integer factors of `_leibniz`, so each product term
    costs one coefficient multiply.
    """
    a._check(b)
    n = a.n
    out = WeylElement.__new__(WeylElement)
    out.n = n
    if len(a.terms) == 1:
        (((alpha, beta), c),) = a.terms.items()
        if not any(beta):
            out.terms = {(tuple(map(add, alpha, gamma)), delta): _exact(c * cb)
                         for (gamma, delta), cb in b.terms.items()}
            return out
    res: dict[tuple, Fraction] = {}
    for (alpha, beta), ca in a.terms.items():
        dvars = [i for i in range(n) if beta[i]]
        for (gamma, delta), cb in b.terms.items():
            terms = [(tuple(map(add, alpha, gamma)), tuple(map(add, beta, delta)), ca * cb)]
            for i in dvars:
                if gamma[i]:
                    row = _leibniz(beta[i], gamma[i])
                    terms = [(x[:i] + (x[i] - k,) + x[i + 1:], d[:i] + (d[i] - k,) + d[i + 1:],
                              c * f if f != 1 else c)
                             for x, d, c in terms for k, f in enumerate(row)]
            for x, d, c in terms:
                key = (x, d)
                s = res.get(key, 0) + c
                if s:
                    res[key] = s
                else:
                    del res[key]
    out.terms = {key: _exact(c) for key, c in res.items()}
    return out


# -- printing ---------------------------------------------------------------


def format_weyl(w: WeylElement,
                coord: Sequence[str] | None = None,
                deriv: Sequence[str] | None = None) -> str:
    if w.is_zero():
        return "0"
    coord = tuple(coord) if coord else coordinate_names(w.n)
    deriv = tuple(deriv) if deriv else deriv_names(w.n)
    order = symbol_weight_order(2 * w.n)
    items = sorted(w.terms.items(), key=lambda kv: order.key(kv[0][0] + kv[0][1]),
                   reverse=True)
    parts = []
    for (alpha, beta), c in items:
        factors = []
        for name, e in zip(coord, alpha):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        for name, e in zip(deriv, beta):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        elif mag == 1:
            body = "*".join(factors)
        else:
            mags = str(mag) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            body = "*".join([mags] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# -- left Gröbner bases -------------------------------------------------------


def weyl_ring(n: int) -> Ring:
    """A_n for the Buchberger driver in `dreg.ideals`.

    The exponents of x^alpha d^beta flatten to alpha + beta.  The term order
    compares total d-degree first, then degrevlex, so it is compatible with
    the order filtration.  Monomial times element goes through `weyl_mul`.
    """
    def element(w: WeylElement, terms: dict) -> WeylElement:
        out = WeylElement.__new__(WeylElement)
        out.n = n
        out.terms = terms
        return out

    return Ring(symbol_weight_order(2 * n), lambda t: t[0] + t[1],
                lambda w, exps, c: element(w, {(exps[:n], exps[n:]): c}), element,
                commutative=False)


def weyl_groebner(gens: Iterable[WeylElement],
                  budget: int = DEFAULT_BUDGET) -> list[WeylElement]:
    """Reduced left Gröbner basis of the left ideal sum A_n * g."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    return buchberger_basis(gens, weyl_ring(gens[0].n), budget)


def characteristic_ideal(gens: Iterable[WeylElement],
                         variables: Sequence[str] | None = None,
                         budget: int = DEFAULT_BUDGET) -> Ideal:
    """Ideal of principal symbols of the reduced left Gröbner basis of the
    input.

    The basis' term order refines the weight (0, 1) of the order
    filtration, so the symbols are a reduced Gröbner basis of the symbol
    ideal under `symbol_weight_order(2n)` (Saito, Sturmfels & Takayama
    2000, Thm 1.1.6), and the ideal records that order.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("characteristic ideal of the empty generator list")
    n = gens[0].n
    gb = weyl_groebner(gens, budget)
    if variables is None:
        variables = coordinate_names(n) + symbol_names(n)
    symbols = [g.principal_symbol(variables) for g in gb]
    return Ideal(tuple(variables), symbols, basis_order=symbol_weight_order(2 * n))
