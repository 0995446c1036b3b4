"""Univariate differential operators with rational-function coefficients.

An operator P = sum b_i(x) d^i supports exact noncommutative products via
the Leibniz rule, monic normalization over Q(x), translation and
infinity-chart changes, and the conversion to Euler form

    x^n P = sum a_i(x) theta^i,   theta = x d,

computed through signed Stirling numbers of the first kind.  The chart at
infinity expands the powers of -t^2 d_t with Lah numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .polynomials import RatFun


class UnivarOperator:
    """P = sum_{i<=n} b_i(x) d^i with b_n != 0 (unless P = 0)."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence[RatFun]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        for c in coeffs:
            if c.var != var:
                raise ValueError("coefficient variable mismatch")
        self.var = var
        self.coeffs = tuple(coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "UnivarOperator":
        return cls(var, [])

    @classmethod
    def from_entries(cls, var: str, entries: Sequence) -> "UnivarOperator":
        return cls(var, [e if isinstance(e, RatFun) else RatFun.const(var, e)
                         for e in entries])

    @classmethod
    def derivation(cls, var: str) -> "UnivarOperator":
        return cls(var, [RatFun.zero(var), RatFun.one(var)])

    @classmethod
    def multiplication(cls, f: RatFun) -> "UnivarOperator":
        return cls(f.var, [f])

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero operator has no order")
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> RatFun:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFun.zero(self.var)

    def leading_coeff(self) -> RatFun:
        if not self.coeffs:
            raise ValueError("zero operator")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnivarOperator):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "UnivarOperator") -> "UnivarOperator":
        m = max(len(self.coeffs), len(other.coeffs))
        return UnivarOperator(self.var, [self.coeff(i) + other.coeff(i) for i in range(m)])

    def __neg__(self) -> "UnivarOperator":
        return UnivarOperator(self.var, [-c for c in self.coeffs])

    def __sub__(self, other: "UnivarOperator") -> "UnivarOperator":
        return self + (-other)

    def scale(self, f) -> "UnivarOperator":
        """Left multiplication by a function of x."""
        if not isinstance(f, RatFun):
            f = RatFun.const(self.var, f)
        return UnivarOperator(self.var, [f * c for c in self.coeffs])

    def mul(self, other: "UnivarOperator") -> "UnivarOperator":
        """Operator composition self . other, expanded by Leibniz."""
        if self.var != other.var:
            raise ValueError("operators in different variables")
        n = (len(self.coeffs) - 1) + (len(other.coeffs) - 1)
        out = [RatFun.zero(self.var) for _ in range(max(n + 1, 0))]
        for i, bi in enumerate(self.coeffs):
            if bi.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                if cj.is_zero():
                    continue
                # d^i (c_j d^j) = sum_k C(i,k) c_j^(k) d^(i+j-k)
                deriv = cj
                for k in range(i + 1):
                    if not deriv.is_zero():
                        out[i + j - k] = out[i + j - k] + bi * math.comb(i, k) * deriv
                    deriv = deriv.derivative()
        return UnivarOperator(self.var, out)

    def __mul__(self, other):
        if isinstance(other, UnivarOperator):
            return self.mul(other)
        if isinstance(other, (int, Fraction, RatFun)):
            # multiplication by a function from the right is an operator product
            return self.mul(UnivarOperator.multiplication(
                other if isinstance(other, RatFun) else RatFun.const(self.var, other)))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFun)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "UnivarOperator":
        terms = [(j, c) for j, c in enumerate(self.coeffs) if c]
        if len(terms) == 1 and (terms[0][0] == 0 or terms[0][1].is_constant()):
            # (c*d^j)^k = c^k*d^(jk) when c is a constant or j = 0: no Leibniz
            j, c = terms[0]
            return UnivarOperator(self.var, [RatFun.zero(self.var)] * (j * k) + [c ** k])
        if not k:
            return UnivarOperator.from_entries(self.var, [1])
        result = self
        for _ in range(k - 1):
            result = result.mul(self)
        return result

    def monic(self) -> "UnivarOperator":
        """Divide by the leading coefficient over Q(x)."""
        lead = self.leading_coeff()
        return UnivarOperator(self.var, [c / lead for c in self.coeffs])

    # -- coordinate changes ------------------------------------------------------

    def shift(self, c) -> "UnivarOperator":
        """Translate the point c to the origin: substitute x -> x + c."""
        return UnivarOperator(self.var, [b.shift(c) for b in self.coeffs])

    def at_infinity(self, new_var: str = "t") -> "UnivarOperator":
        """Image under x = 1/t, d_x = -t^2 d_t: the operator in the
        coordinate t = 1/x at infinity.  Coefficients stay rational
        functions."""
        if new_var == self.var:
            new_var = "t" if self.var != "t" else "s"
        n = self.order()
        t = RatFun.x(new_var)
        out = [RatFun.zero(new_var) for _ in range(n + 1)]
        for i, b in enumerate(self.coeffs):
            if b.is_zero():
                continue
            f = b.invert_var(new_var)
            if i == 0:
                out[0] = f
            # (-t^2 d_t)^i = (-1)^i sum_{k>=1} L(i,k) t^(i+k) d_t^k for i >= 1
            for k in range(1, i + 1):
                out[k] = out[k] + f * (t ** (i + k) * ((-1) ** i * lah(i, k)))
        return UnivarOperator(new_var, out)

    def __str__(self) -> str:
        from .parser import format_operator
        return format_operator(self)

    def __repr__(self) -> str:
        return f"UnivarOperator({self!s})"


class ThetaOperator:
    """Euler form sum a_i(x) theta^i with theta = x d."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence[RatFun]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.var = var
        self.coeffs = tuple(coeffs)

    def order(self) -> int:
        if not self.coeffs:
            raise ValueError("zero theta operator")
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> RatFun:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFun.zero(self.var)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaOperator):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"({c})")
            elif i == 1:
                parts.append(f"({c})*theta")
            else:
                parts.append(f"({c})*theta^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ThetaOperator({self!s})"


@lru_cache(maxsize=None)
def stirling_first_signed(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind: falling factorial expansion."""
    if n == k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return stirling_first_signed(n - 1, k - 1) - (n - 1) * stirling_first_signed(n - 1, k)


@lru_cache(maxsize=None)
def lah(n: int, k: int) -> int:
    """Unsigned Lah numbers: (t^2 d)^n = sum_k L(n,k) t^(n+k) d^k."""
    if n == k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


def to_theta_form(p: UnivarOperator) -> ThetaOperator:
    """Euler form of x^n P: coefficients a_i = sum_k b_k x^(n-k) s(k,i)."""
    if p.is_zero():
        raise ValueError("zero operator has no theta form")
    n = p.order()
    var = p.var
    x = RatFun.x(var)
    out = [RatFun.zero(var) for _ in range(n + 1)]
    for k in range(n + 1):
        b = p.coeff(k)
        if b.is_zero():
            continue
        scaled = b * x ** (n - k)
        for i in range(k + 1):
            s = stirling_first_signed(k, i)
            if s:
                out[i] = out[i] + scaled * s
    return ThetaOperator(var, out)
