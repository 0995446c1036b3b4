"""Lattices over the local ring at the origin.

The local ring O = { f in Q(x) : ord_0 f >= 0 } is a discrete valuation
ring, so membership in a finitely generated submodule of Q(x)^m reduces to
a forced triangular solve after a valuation-pivoted column echelon.
Stability questions (is theta(L) inside L?) are exactly such membership
questions, so no completion machinery is needed: ord_0 reads the same
valuation the completed lattice would.  Callers move their point to the
origin first, where ord_0 is a trailing-exponent lookup.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .polynomials import MPoly, RatFun, denominator_lcm, univar_gcd


def _unit_part(p: MPoly) -> MPoly:
    """p / x^ord_0(p) for a nonzero univariate polynomial."""
    k = min(e for (e,) in p.terms)
    return MPoly(p.vars, {(e - k,): c for (e,), c in p.terms.items()}) if k else p


def _unit_normalize(vec: tuple) -> tuple:
    """Scale a vector by a unit of O into poly/x^k shape.

    Unit scalings do not change the generated module but stop polynomial
    denominators from compounding through pivot divisions.
    """
    entries = [f for f in vec if not f.is_zero()]
    if not entries:
        return vec
    var = entries[0].var
    unit = RatFun(_unit_part(denominator_lcm(entries)))
    scaled = [f * unit for f in vec]
    # divide by the unit part of the gcd of the numerators
    g = MPoly.zero((var,))
    for f in scaled:
        if not f.is_zero():
            g = univar_gcd(g, f.num)
    g = _unit_part(g)
    if g.total_degree() > 0:
        inv = RatFun(MPoly.const((var,), 1), g)
        scaled = [f * inv for f in scaled]
    # rational content is a unit too; dividing keeps integers small
    num_gcd, den_lcm = 0, 1
    for f in scaled:
        for c in f.num.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    if num_gcd and (num_gcd > 1 or den_lcm > 1):
        content = RatFun.const(var, Fraction(den_lcm, num_gcd))
        scaled = [f * content for f in scaled]
    return tuple(scaled)


class LocalLattice:
    """An O-submodule of Q(x)^m held in column echelon form.

    `pivots` lists (row, column) pairs in row order; a pivot column vanishes
    above its row.  A column joins by walking down the rows: at a pivot row
    the pivot of smaller valuation stays and the other column, reduced by
    it, walks on (the quotient is integral, so every step is unimodular over
    O and the generated module never changes); at a free row it becomes
    the pivot.
    """

    __slots__ = ("dim", "pivots")

    def __init__(self, dim: int, columns: Iterable[Sequence[RatFun]]):
        self.dim = dim
        self.pivots: list[tuple[int, tuple]] = []
        self._build([tuple(c) for c in columns])

    @classmethod
    def standard(cls, dim: int, var: str = "x") -> "LocalLattice":
        cols = [tuple(RatFun.const(var, 1 if j == i else 0) for j in range(dim))
                for i in range(dim)]
        return cls(dim, cols)

    def _build(self, columns: list[tuple]) -> None:
        pivots = dict(self.pivots)
        for col in columns:
            col = _unit_normalize(col)
            for row in range(self.dim):
                if col[row].is_zero():
                    continue
                pivot = pivots.get(row)
                if pivot is None:
                    pivots[row] = col
                    break
                if col[row].ord_at(0) < pivot[row].ord_at(0):
                    pivots[row], col, pivot = col, pivot, col
                q = col[row] / pivot[row]
                col = _unit_normalize(tuple(a - q * b for a, b in zip(col, pivot)))
        self.pivots = sorted(pivots.items())

    def generators(self) -> list[tuple]:
        return [col for _, col in self.pivots]

    def contains(self, vec: Sequence[RatFun]) -> bool:
        v = list(vec)
        for row, col in self.pivots:
            entry = v[row]
            if entry.is_zero():
                continue
            if entry.ord_at(0) < col[row].ord_at(0):
                return False
            q = entry / col[row]
            v = [a - q * b for a, b in zip(v, col)]
        return all(f.is_zero() for f in v)

    def extended(self, vectors: Iterable[Sequence[RatFun]]) -> "LocalLattice":
        """The lattice with the vectors added, grown from this echelon, not rebuilt."""
        out = LocalLattice.__new__(LocalLattice)
        out.dim, out.pivots = self.dim, self.pivots
        out._build([tuple(v) for v in vectors])
        return out

    def same_module(self, other: "LocalLattice") -> bool:
        return (all(other.contains(c) for c in self.generators())
                and all(self.contains(c) for c in other.generators()))
