"""The Weyl algebra A_n over Q in normal-ordered canonical form.

Elements are finite sums c * x^alpha * d^beta with all x's to the left of
all d's; multiplication normal-orders immediately through the closed form

    d^a x^b = sum_k k! C(a,k) C(b,k) x^(b-k) d^(a-k)

so equality of elements is equality of term maps.  A normal-ordered
element has the basis of a polynomial in x and d, so `WeylElement` is the
`MPoly` of those 2n variables with the term alpha + beta for x^alpha d^beta;
it inherits sums, scaling, equality and printing and brings its own
product.  Left Gröbner bases come from the Buchberger driver in
`dreg.ideals` under a term order that compares total d-degree first, which
makes the principal symbols of a basis generate a well-defined graded ideal
in Q[x, xi].
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import DEFAULT_BUDGET
from .ideals import Ideal, _leibniz, buchberger_basis, symbol_weight_order
from .polynomials import MPoly, _exact, as_rat, format_mpoly

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


@functools.cache
def _weyl_vars(n: int) -> tuple:
    if n < 1:
        raise ValueError("A_n needs n >= 1")
    return coordinate_names(n) + deriv_names(n)


class WeylElement(MPoly):
    """A normal-ordered element of A_n: an MPoly in x_1..x_n, d_1..d_n whose
    term alpha + beta stands for x^alpha d^beta, with the Weyl product."""

    __slots__ = ()
    commutative = False

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        super().__init__(_weyl_vars(n), terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "WeylElement":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, value) -> "WeylElement":
        value = as_rat(value)
        return cls._from_terms(n, {(0,) * (2 * n): value} if value else {})

    @classmethod
    def x(cls, n: int, i: int) -> "WeylElement":
        return cls._from_terms(n, {tuple(1 if j == i else 0 for j in range(2 * n)): 1})

    @classmethod
    def d(cls, n: int, i: int) -> "WeylElement":
        return cls._from_terms(n, {tuple(1 if j == n + i else 0 for j in range(2 * n)): 1})

    @classmethod
    def _from_terms(cls, n: int, terms: dict) -> "WeylElement":
        """The element of A_n with this term map, taken as given: what the
        constructors above build, without the checks of `MPoly.__init__`."""
        out = object.__new__(cls)
        out.vars = _weyl_vars(n)
        out.terms = terms
        return out

    # -- structure -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vars) // 2

    def order(self) -> int | float:
        """Maximal total d-degree (the order filtration level)."""
        n = self.n
        return max((sum(e[n:]) for e in self.terms), default=-math.inf)

    # -- arithmetic -----------------------------------------------------------

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
        if k == 0:
            return WeylElement.const(self.n, 1)
        result = self
        for _ in range(k - 1):
            result = weyl_mul(result, self)
        return result

    # -- symbol ----------------------------------------------------------------

    def principal_symbol(self, variables: Sequence[str] | None = None) -> MPoly:
        """Image of the top-order part in Gr A_n = Q[x, xi]."""
        if self.is_zero():
            raise ValueError("no symbol of zero")
        n, top = self.n, self.order()
        if variables is None:
            variables = coordinate_names(n) + symbol_names(n)
        variables = tuple(variables)
        if len(variables) != 2 * n:
            raise ValueError("need one coordinate and one symbol name per variable")
        return MPoly(variables, {e: c for e, c in self.terms.items() if sum(e[n:]) == top})

    def __str__(self) -> str:
        return format_mpoly(self, symbol_weight_order(len(self.vars)).key)


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
    if len(a.terms) == 1:
        ((e, c),) = a.terms.items()
        if not any(e[n:]):
            return b._mul_term(e, c)
    res: dict[tuple, Fraction] = {}
    for ea, ca in a.terms.items():
        dvars = [i for i in range(n) if ea[n + i]]
        for eb, cb in b.terms.items():
            terms = [(tuple(map(add, ea, eb)), ca * cb)]
            for i in dvars:
                if eb[i]:
                    row, j = _leibniz(ea[n + i], eb[i]), n + i
                    terms = [(e[:i] + (e[i] - k,) + e[i + 1:j] + (e[j] - k,) + e[j + 1:],
                              c * f if f != 1 else c)
                             for e, c in terms for k, f in enumerate(row)]
            for e, c in terms:
                s = res.get(e, 0) + c
                if s:
                    res[e] = s
                else:
                    del res[e]
    return a._with({e: _exact(c) for e, c in res.items()})


# -- left Gröbner bases -------------------------------------------------------


def weyl_groebner(gens: Iterable[WeylElement],
                  budget: int = DEFAULT_BUDGET) -> list[WeylElement]:
    """Reduced left Gröbner basis of the left ideal sum A_n * g."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    return buchberger_basis(gens, symbol_weight_order(2 * gens[0].n), budget)


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
