"""The Weyl algebra A_n over Q in normal-ordered canonical form.

Elements are finite sums c * x^alpha * d^beta with all x's to the left of
all d's, so equality of elements is equality of term maps.  A
normal-ordered element has the basis of a polynomial in x and d, so
`WeylElement` is the `MPoly` of those 2n variables with the term
alpha + beta for x^alpha d^beta; it inherits sums, scaling, equality and
printing, but not the commutative product: `*` between two elements raises
TypeError.  A_n has one product, the left-monomial product of the
Buchberger driver on packed codes (`dreg.ideals.Packing.subtract`), which
normal-orders through the closed form

    d^a x^b = sum_k k! C(a,k) C(b,k) x^(b-k) d^(a-k).

The parser evaluates the grammar with it, and left Gröbner bases come from
the driver under a term order that compares total d-degree first, which
makes the principal symbols of a basis generate a well-defined graded ideal
in Q[x, xi].
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DEFAULT_BUDGET
from .ideals import Ideal, buchberger_basis, symbol_weight_order
from .polynomials import INF, MPoly, format_mpoly

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
    term alpha + beta stands for x^alpha d^beta."""

    __slots__ = ()
    commutative = False
    __mul__ = None      # MPoly's product would commute d past x; see dreg.ideals.Packing

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        super().__init__(_weyl_vars(n), terms)

    @classmethod
    def _from_terms(cls, n: int, terms: dict) -> "WeylElement":
        """The element of A_n with this term map, taken as given, without
        the checks of `MPoly.__init__`."""
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
        return max((sum(e[n:]) for e in self.terms), default=-INF)

    # -- symbol ----------------------------------------------------------------

    def principal_symbol(self) -> MPoly:
        """Image of the top-order part in Gr A_n = Q[x, xi]."""
        if self.is_zero():
            raise ValueError("no symbol of zero")
        n, top = self.n, self.order()
        return MPoly(coordinate_names(n) + symbol_names(n),
                     {e: c for e, c in self.terms.items() if sum(e[n:]) == top})

    def __str__(self) -> str:
        return format_mpoly(self, symbol_weight_order(len(self.vars)).key)


# -- left Gröbner bases -------------------------------------------------------


def weyl_groebner(gens: Iterable[WeylElement],
                  budget: int = DEFAULT_BUDGET) -> list[WeylElement]:
    """Reduced left Gröbner basis of the left ideal sum A_n * g."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    return buchberger_basis(gens, symbol_weight_order(2 * gens[0].n), budget)


def characteristic_ideal(gens: Iterable[WeylElement],
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
    symbols = [g.principal_symbol() for g in weyl_groebner(gens, budget)]
    return Ideal(coordinate_names(n) + symbol_names(n), symbols,
                 basis_order=symbol_weight_order(2 * n))
