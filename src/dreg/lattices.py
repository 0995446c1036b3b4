"""Lattices over the local ring at the origin.

The local ring O = { f in Q(x) : ord_0 f >= 0 } is a discrete valuation
ring.  Callers move their point to the origin first, where ord_0 is a
trailing-exponent lookup.  Two representations live here:

- LocalLattice, any finitely generated O-submodule of Q(x)^m, held in a
  valuation-pivoted column echelon; membership is a forced triangular
  solve.  The curve filtrations use it, because their starts need not
  contain O^m.
- PolarLattice, a lattice O^m + P that contains O^m, held by the finite
  Q-space P of its polar parts.  Membership reduces a vector's Laurent
  tail in a Q-echelon, with no polynomial gcd.  theta-saturation uses
  it, since every iterate contains the standard lattice.

Stability questions (is theta(L) inside L?) are membership questions in
either form, so no completion machinery is needed.
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


class Laurent:
    """The Laurent expansion at the origin of a rational function, term by term.

    With den = x^k u and u(0) != 0, f = x^-k num/u.  The coefficients of
    num/u come on demand by power-series division by u and are kept.
    """

    __slots__ = ("start", "_num", "_unit", "_coeffs")

    def __init__(self, f: RatFun):
        k = min(e for (e,) in f.den.terms)
        self.start = -k                  # no term below x^start
        self._num = f.num.univar_coeffs()
        self._unit = f.den.univar_coeffs()[k:]
        self._coeffs: list[Fraction] = []

    def terms(self, stop: int) -> list[Fraction]:
        """The coefficients of x^start .. x^(stop - 1)."""
        num, unit, out = self._num, self._unit, self._coeffs
        while len(out) < stop - self.start:
            j = len(out)
            acc = num[j] if j < len(num) else Fraction(0)
            for t in range(1, min(j, len(unit) - 1) + 1):
                acc -= unit[t] * out[j - t]
            out.append(acc / unit[0])
        return out[:max(0, stop - self.start)]


def polar_part(vec: Sequence[RatFun]) -> dict:
    """{(exponent, component): coefficient} of the negative Laurent terms."""
    out = {}
    for j, f in enumerate(vec):
        if not f.is_zero():
            series = Laurent(f)
            for e, c in enumerate(series.terms(0), series.start):
                if c:
                    out[e, j] = c
    return out


class PolarLattice:
    """A lattice O^m + P that contains O^m, held by its polar parts.

    P is a finite Q-space of vectors in x^-1 Q[x^-1]^m, written as dicts
    {(exponent, component): coefficient}.  It is closed under the shift
    "multiply by x, drop the x^0 terms", which makes O^m + P an O-module.
    `rows` is an echelon basis of P keyed by (exponent, component), most
    polar first: each row's smallest key is its pivot, with coefficient 1,
    and no two rows share a pivot.  A vector lies in the lattice exactly
    when its polar part reduces to zero.
    """

    __slots__ = ("dim", "var", "rows")

    def __init__(self, dim: int, var: str = "x"):
        self.dim = dim
        self.var = var
        self.rows: dict[tuple, dict] = {}

    def reduce(self, v: dict) -> dict:
        """v less a combination of rows; empty exactly when v lies in P."""
        v = dict(v)
        rows = self.rows
        while v:
            key = min(v)
            row = rows.get(key)
            if row is None:
                break
            c = v[key]
            for k, a in row.items():
                s = v.get(k, 0) - c * a
                if s:
                    v[k] = s
                else:
                    del v[k]
        return v

    def insert(self, v: dict) -> list[dict]:
        """Add a polar vector and its shifts until one reduces to zero.

        If S^k r reduces to zero, every shift of the space spanned so far
        lies in it again.  Returns the rows added.
        """
        added = []
        v = self.reduce(v)
        while v:
            key = min(v)
            inv = 1 / v[key]
            row = {k: c * inv for k, c in v.items()}
            self.rows[key] = row
            added.append(row)
            v = self.reduce({(e + 1, j): c for (e, j), c in row.items() if e < -1})
        return added

    def contains(self, vec: Sequence[RatFun]) -> bool:
        return not self.reduce(polar_part(vec))

    def generators(self) -> list[tuple]:
        """e_1 .. e_m and the rows, each written as p/x^k."""
        var = (self.var,)
        gens = [tuple(RatFun.const(self.var, int(j == i)) for j in range(self.dim))
                for i in range(self.dim)]
        for row in self.rows.values():
            k = -min(e for e, _ in row)
            nums: list[dict] = [{} for _ in range(self.dim)]
            for (e, j), c in row.items():
                nums[j][(e + k,)] = c
            den = MPoly.monomial(var, (k,))
            gens.append(tuple(RatFun(MPoly(var, t), den) for t in nums))
        return gens
