"""Lattices over the local ring at the origin.

The local ring O = { f in Q(x) : ord_0 f >= 0 } is a discrete valuation
ring.  A finite point is moved to the origin by its caller, and infinity
is read at t = 0 of the chart t = 1/x straight from the reversed
coefficient lists (`laurent_rows_at_infinity`).  One representation
lives here: PolarLattice, a lattice O^m + P that contains O^m, held by the
finite Q-space P of its polar parts.  Membership reduces a vector's
Laurent tail in a Q-echelon, with no polynomial gcd.  theta-saturation
uses it, since each of its lattices contains the standard one, and grows
it by one theta-action on polar dicts, `theta_terms`.

Stability questions (is theta(L) inside L?) are membership questions, so
no completion machinery is needed.  Series coefficients and echelon rows
keep the coefficient normal form of `dreg.polynomials`: an int when
integral, else a Fraction.
"""

from __future__ import annotations

from .polynomials import _exact, _inverse, _reverse, _valuation


class Laurent:
    """The Laurent expansion x^start num/unit at the origin, term by term,
    for a list num of rationals and an integer polynomial unit with
    unit(0) != 0.  The coefficients of num/unit come on demand by
    power-series division by unit and are kept.
    """

    __slots__ = ("start", "_num", "_unit", "_inv", "_coeffs")

    def __init__(self, start: int, num: list, unit: tuple):
        self.start = start               # no term below x^start
        self._num = num
        self._unit = unit
        self._inv = _inverse(unit[0])
        self._coeffs: list = []

    @classmethod
    def at_origin(cls, f) -> "Laurent":
        """The expansion of a nonzero RatFun f = s num/den: with den = x^k u,
        u(0) != 0, f = x^-k (s num)/u."""
        k = _valuation(f.denom)
        return cls(-k, [_exact(f.scale * c) for c in f.numer], f.denom[k:])

    def terms(self, stop: int) -> list:
        """The coefficients of x^start .. x^(stop - 1)."""
        num, unit, inv, out = self._num, self._unit, self._inv, self._coeffs
        while len(out) < stop - self.start:
            j = len(out)
            acc = num[j] if j < len(num) else 0
            for t in range(1, min(j, len(unit) - 1) + 1):
                acc -= unit[t] * out[j - t]
            out.append(_exact(acc * inv))
        return out[:max(0, stop - self.start)]


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

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int):
        self.dim = dim
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
            inv = _inverse(v[key])
            row = {k: _exact(c * inv) for k, c in v.items()}
            self.rows[key] = row
            added.append(row)
            v = self.reduce({(e + 1, j): c for (e, j), c in row.items() if e < -1})
        return added


def laurent_rows(matrix) -> list[list]:
    """[(j, Laurent of matrix[i][j]) for the nonzero entries] for each row i:
    the action of a matrix from component i, in the form `theta_terms` reads."""
    return [[(j, Laurent.at_origin(e)) for j, e in enumerate(row) if not e.is_zero()]
            for row in matrix]


def laurent_rows_at_infinity(matrix) -> list[list]:
    """`laurent_rows` of t^-2 M(1/t), read off the reversed lists of each
    entry with no chart built: f = s num/den gives s t^(len den - len num)
    rev(num)/rev(den) at t = 0, and both reversals have a nonzero constant
    term."""
    rows = []
    for row in matrix:
        rows.append([])
        for j, f in enumerate(row):
            if not f.is_zero():
                (sn, num), (sd, unit) = _reverse(f.numer), _reverse(f.denom)
                s = f.scale if sn == sd else -f.scale
                rows[-1].append((j, Laurent(len(f.denom) - len(f.numer) - 2,
                                            [_exact(s * c) for c in num], unit)))
    return rows


def theta_terms(v: dict, rows: list) -> dict:
    """The polar terms of theta(v) = x (v' + M v) on row functionals, for
    v = {(exponent, component): c}.

    M comes from `laurent_rows`: rows[i] lists the entries that carry
    component i of v to a component j.
    """
    out = {}
    for (e, i), c in v.items():
        if e < 0:
            out[e, i] = out.get((e, i), 0) + e * c
        for j, f in rows[i]:
            # f's term x^t lands at x^(e + 1 + t), polar while t < -e - 1
            for n, b in enumerate(f.terms(-e - 1), e + 1 + f.start):
                if b:
                    out[n, j] = out.get((n, j), 0) + c * b
    return {k: c for k, c in out.items() if c}
