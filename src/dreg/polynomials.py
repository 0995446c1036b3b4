"""Exact polynomial arithmetic over Q.

Everything downstream (symbol rings, operator coefficients, lattice entries)
is built from two types: MPoly, a multivariate polynomial with Fraction
coefficients keyed by exponent vectors, and RatFun, a reduced univariate
rational function with exact order-of-vanishing at every rational point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

# Base field: Q.  Kept as an alias so call sites read as field elements,
# not as "the stdlib fraction type".
Rat = Fraction

INF = math.inf


def as_rat(value) -> Fraction:
    """Coerce ints, strings and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


class MPoly:
    """Multivariate polynomial over Q with a fixed ordered variable tuple.

    Terms map exponent tuples to nonzero coefficients; zero coefficients are
    never stored, so equality of polynomials is equality of term maps.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        self.vars = tuple(variables)
        clean: dict[tuple, Fraction] = {}
        if terms:
            nv = len(self.vars)
            for exps, coeff in terms.items():
                if len(exps) != nv:
                    raise ValueError(f"exponent vector {exps} has wrong length for {self.vars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = as_rat(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MPoly":
        value = as_rat(value)
        if not value:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MPoly":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coeff=1) -> "MPoly":
        return cls(variables, {tuple(exps): as_rat(coeff)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str):
        if not self.terms:
            return -INF
        idx = self.vars.index(name)
        return max(e[idx] for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        raise TypeError(f"cannot combine MPoly with {other!r}")

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, Fraction(0)) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = res
        return out

    def __neg__(self) -> "MPoly":
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) + (-self)

    __radd__ = __add__

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        res: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, Fraction(0)) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = res
        return out

    __rmul__ = __mul__

    def scale(self, c) -> "MPoly":
        c = as_rat(c)
        if not c:
            return MPoly.zero(self.vars)
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def diff(self, name: str) -> "MPoly":
        idx = self.vars.index(name)
        res: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = list(e)
            ne[idx] -= 1
            res[tuple(ne)] = c * e[idx]
        return MPoly(self.vars, res)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        idxs = [(self.vars.index(n), as_rat(v)) for n, v in point.items()]
        if len(idxs) != len(self.vars):
            raise ValueError("evaluate needs a value for every variable")
        for e, c in self.terms.items():
            val = c
            for i, v in idxs:
                val *= v ** e[i]
            total += val
        return total

    def subs_const(self, name: str, value) -> "MPoly":
        """Substitute a rational constant for one variable; the variable
        leaves the ring."""
        value = as_rat(value)
        idx = self.vars.index(name)
        rest = self.vars[:idx] + self.vars[idx + 1:]
        res: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            ne = e[:idx] + e[idx + 1:]
            s = res.get(ne, Fraction(0)) + c * value ** e[idx]
            if s:
                res[ne] = s
            else:
                res.pop(ne, None)
        return MPoly(rest, res)

    def rename(self, variables: Sequence[str]) -> "MPoly":
        variables = tuple(variables)
        if len(variables) != len(self.vars):
            raise ValueError("rename needs the same number of variables")
        return MPoly(variables, self.terms)

    def extend(self, variables: Sequence[str]) -> "MPoly":
        """Re-express in a larger ring containing the current variables."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.vars]
        res = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for p, ev in zip(pos, e):
                ne[p] = ev
            res[tuple(ne)] = c
        return MPoly(variables, res)

    # -- univariate helpers ---------------------------------------------

    def _require_univar(self) -> None:
        if len(self.vars) != 1:
            raise ValueError("operation requires a univariate polynomial")

    def univar_coeffs(self) -> list[Fraction]:
        """Dense coefficient list c0..cd for a univariate polynomial."""
        self._require_univar()
        if not self.terms:
            return []
        d = max(e[0] for e in self.terms)
        out = [Fraction(0)] * (d + 1)
        for e, c in self.terms.items():
            out[e[0]] = c
        return out

    @classmethod
    def from_univar_coeffs(cls, var: str, coeffs: Sequence) -> "MPoly":
        return cls((var,), {(i,): as_rat(c) for i, c in enumerate(coeffs) if as_rat(c)})

    def leading_univar_coeff(self) -> Fraction:
        coeffs = self.univar_coeffs()
        if not coeffs:
            return Fraction(0)
        return coeffs[-1]

    def monic_univar(self) -> "MPoly":
        lc = self.leading_univar_coeff()
        if not lc:
            return self
        return self.scale(Fraction(1) / lc)

    def univar_divmod(self, other: "MPoly") -> tuple["MPoly", "MPoly"]:
        self._require_univar()
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = self.univar_coeffs()
        b = other.univar_coeffs()
        q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
        r = list(a)
        while len(r) >= len(b) and any(r):
            while r and not r[-1]:
                r.pop()
            if len(r) < len(b):
                break
            factor = r[-1] / b[-1]
            shift = len(r) - len(b)
            q[shift] = factor
            for i, bc in enumerate(b):
                r[shift + i] -= factor * bc
        var = self.vars[0]
        return (MPoly.from_univar_coeffs(var, q), MPoly.from_univar_coeffs(var, r))

    def compose_univar(self, inner: "MPoly") -> "MPoly":
        """Horner evaluation of self at another univariate polynomial."""
        self._require_univar()
        coeffs = self.univar_coeffs()
        result = MPoly.zero(inner.vars)
        for c in reversed(coeffs):
            result = result * inner + MPoly.const(inner.vars, c)
        return result

    def __str__(self) -> str:
        return format_mpoly(self)

    def __repr__(self) -> str:
        return f"MPoly({self.vars}, {format_mpoly(self)!r})"


def _grevlex_key(exps: tuple) -> tuple:
    return (sum(exps), tuple(-e for e in reversed(exps)))


def format_mpoly(p: MPoly) -> str:
    """Canonical text form: terms in descending graded reverse-lex order."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: _grevlex_key(kv[0]), reverse=True)
    parts: list[str] = []
    for exps, coeff in items:
        factors = []
        for name, e in zip(p.vars, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = _format_rat(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_rat(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def _format_rat(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _primitive_int_coeffs(p: MPoly) -> list[int]:
    """Dense integer coefficients with content removed."""
    coeffs = p.univar_coeffs()
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    if content > 1:
        ints = [c // content for c in ints]
    return ints


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of dense integer polynomials (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db or not a:
            return a
        la = a[-1]
        shift = len(a) - 1 - db
        a = [lb * c for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc


def univar_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Monic gcd of univariate polynomials.

    Uses the primitive pseudo-remainder sequence over Z so coefficient
    sizes stay bounded; the plain fraction Euclid blows up on the degrees
    that chart changes and lattice saturations produce.
    """
    a._require_univar()
    a._check(b)
    var = a.vars[0]
    if a.is_zero():
        return b.monic_univar() if not b.is_zero() else b
    if b.is_zero():
        return a.monic_univar()
    if a.total_degree() == 0 or b.total_degree() == 0:
        return MPoly.const(a.vars, 1)
    if a.is_monomial() or b.is_monomial():
        # gcd with x^k is x^min(k, valuation)
        val_a = min(e[0] for e in a.terms)
        val_b = min(e[0] for e in b.terms)
        return MPoly.monomial(a.vars, (min(val_a, val_b),))
    fa = _primitive_int_coeffs(a)
    fb = _primitive_int_coeffs(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        r = _pseudo_rem(fa, fb)
        if r:
            content = 0
            for c in r:
                content = math.gcd(content, abs(c))
            if content > 1:
                r = [c // content for c in r]
        fa, fb = fb, r
    return MPoly.from_univar_coeffs(var, fa).monic_univar()


def squarefree_part(p: MPoly) -> MPoly:
    """Monic squarefree part p / gcd(p, p') of a univariate polynomial."""
    p._require_univar()
    if p.is_zero() or p.total_degree() == 0:
        return MPoly.const(p.vars, 1) if not p.is_zero() else p
    g = univar_gcd(p, p.diff(p.vars[0]))
    q, r = p.univar_divmod(g)
    assert r.is_zero()
    return q.monic_univar()


def rational_roots(p: MPoly) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial, ascending."""
    p._require_univar()
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    coeffs = p.univar_coeffs()
    # strip trailing/leading structure: root 0 first
    roots = []
    low = 0
    while low < len(coeffs) and not coeffs[low]:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return sorted(roots)
    # scale to integer coefficients
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    ints = [c // content for c in ints]
    a0, an = ints[0], ints[-1]

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for pnum in divisors(a0):
        for qden in divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * pnum, qden)
                if cand in roots:
                    continue
                val = Fraction(0)
                for c in reversed(ints):
                    val = val * cand + c
                if not val:
                    roots.append(cand)
    return sorted(roots)


def factor_rational(p: MPoly) -> tuple[list[tuple[Fraction, int]], MPoly]:
    """Split off rational linear factors of a univariate polynomial.

    Returns ((root, multiplicity) pairs, monic leftover with no rational
    roots).  No factorization beyond this is attempted: the leftover may be
    reducible over Q but is reported as a single untested factor.
    """
    p._require_univar()
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    var = p.vars[0]
    rest = p.monic_univar()
    out: list[tuple[Fraction, int]] = []
    for root in rational_roots(rest):
        lin = MPoly.from_univar_coeffs(var, [-root, Fraction(1)])
        mult = 0
        while True:
            q, r = rest.univar_divmod(lin)
            if not r.is_zero():
                break
            rest = q
            mult += 1
        if mult:
            out.append((root, mult))
    return out, rest.monic_univar()


class RatFun:
    """Reduced univariate rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        num._require_univar()
        if den is None:
            den = MPoly.const(num.vars, 1)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = MPoly.const(num.vars, 1)
        elif den.total_degree() == 0:
            lc = den.constant_value()
            if lc != 1:
                num = num.scale(Fraction(1) / lc)
                den = MPoly.const(num.vars, 1)
        elif den.is_monomial():
            # denominator x^k: cancel the shared power of x directly
            (k,), dc = next(iter(den.terms.items()))
            shift = min(k, min(e[0] for e in num.terms))
            if shift:
                num = MPoly(num.vars, {(e[0] - shift,): c
                                       for e, c in num.terms.items()})
                k -= shift
            den = MPoly.monomial(num.vars, (k,))
            if dc != 1:
                num = num.scale(Fraction(1) / dc)
        else:
            g = univar_gcd(num, den)
            if g.total_degree() > 0:
                num, _ = num.univar_divmod(g)
                den, _ = den.univar_divmod(g)
            lc = den.leading_univar_coeff()
            if lc != 1:
                inv = Fraction(1) / lc
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, var: str, value) -> "RatFun":
        return cls(MPoly.const((var,), value))

    @classmethod
    def zero(cls, var: str) -> "RatFun":
        return cls(MPoly.zero((var,)))

    @classmethod
    def x(cls, var: str) -> "RatFun":
        return cls(MPoly.var((var,), var))

    @classmethod
    def from_coeffs(cls, var: str, num_coeffs: Sequence, den_coeffs: Sequence = (1,)) -> "RatFun":
        return cls(MPoly.from_univar_coeffs(var, num_coeffs),
                   MPoly.from_univar_coeffs(var, den_coeffs))

    # -- queries ----------------------------------------------------------

    @property
    def var(self) -> str:
        return self.num.vars[0]

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.total_degree() == 0

    def is_constant(self) -> bool:
        return self.is_polynomial() and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant_value()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(self.var, other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.const(self.var, other)
        if isinstance(other, MPoly):
            return RatFun(other)
        raise TypeError(f"cannot combine RatFun with {other!r}")

    def __add__(self, other) -> "RatFun":
        other = self._coerce(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        out = RatFun.__new__(RatFun)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "RatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RatFun":
        other = self._coerce(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFun":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RatFun":
        if k < 0:
            return RatFun.const(self.var, 1) / (self ** (-k))
        result = RatFun.const(self.var, 1)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self) -> "RatFun":
        x = self.var
        return RatFun(self.num.diff(x) * self.den - self.num * self.den.diff(x),
                      self.den * self.den)

    # -- valuations ---------------------------------------------------------

    def ord_at(self, c) -> int | float:
        """Order of vanishing at x = c; negative at a pole, +inf for 0."""
        if self.is_zero():
            return INF
        c = as_rat(c)
        return _mult_at(self.num, c) - _mult_at(self.den, c)

    def evaluate(self, c) -> Fraction:
        c = as_rat(c)
        dv = self.den.evaluate({self.var: c})
        if not dv:
            raise ZeroDivisionError(f"pole at {c}")
        return self.num.evaluate({self.var: c}) / dv

    # -- substitutions --------------------------------------------------------

    def shift(self, c) -> "RatFun":
        """Substitute x -> x + c."""
        c = as_rat(c)
        var = self.var
        inner = MPoly.from_univar_coeffs(var, [c, Fraction(1)])
        return RatFun(self.num.compose_univar(inner), self.den.compose_univar(inner))

    def scale_var(self, c) -> "RatFun":
        """Substitute x -> c*x for nonzero rational c."""
        c = as_rat(c)
        if not c:
            raise ValueError("scale by zero")
        var = self.var
        inner = MPoly.from_univar_coeffs(var, [0, c])
        return RatFun(self.num.compose_univar(inner), self.den.compose_univar(inner))

    def invert_var(self, new_var: str) -> "RatFun":
        """Substitute x -> 1/t, returning a rational function of t."""
        nd = self.num.total_degree() if not self.num.is_zero() else 0
        dd = self.den.total_degree()
        num_rev = _reverse_univar(self.num, new_var, int(nd) if self.num else 0)
        den_rev = _reverse_univar(self.den, new_var, int(dd))
        # num(1/t)/den(1/t) = t^(dd-nd) * rev(num)/rev(den)
        tpow = int(dd) - (int(nd) if self.num else 0)
        t = (new_var,)
        if tpow >= 0:
            return RatFun(num_rev * MPoly.monomial(t, (tpow,)), den_rev)
        return RatFun(num_rev, den_rev * MPoly.monomial(t, (-tpow,)))

    def rename_var(self, new_var: str) -> "RatFun":
        out = RatFun.__new__(RatFun)
        out.num = self.num.rename((new_var,))
        out.den = self.den.rename((new_var,))
        return out

    def __str__(self) -> str:
        if self.is_polynomial():
            return format_mpoly(self.num)
        num_s = format_mpoly(self.num)
        den_s = format_mpoly(self.den)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        if len(self.den.terms) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFun({self!s})"


def _mult_at(p: MPoly, c: Fraction) -> int:
    """Multiplicity of the root x = c in a nonzero univariate polynomial."""
    if not c:
        return min(e[0] for e in p.terms)
    var = p.vars[0]
    lin = MPoly.from_univar_coeffs(var, [-c, Fraction(1)])
    mult = 0
    while True:
        q, r = p.univar_divmod(lin)
        if not r.is_zero():
            return mult
        p = q
        mult += 1
        if p.is_zero():
            raise AssertionError("unreachable: nonzero polynomial exhausted")


def _reverse_univar(p: MPoly, new_var: str, degree: int) -> MPoly:
    coeffs = p.univar_coeffs()
    coeffs += [Fraction(0)] * (degree + 1 - len(coeffs))
    return MPoly.from_univar_coeffs(new_var, list(reversed(coeffs)))
