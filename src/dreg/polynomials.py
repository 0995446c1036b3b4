"""Exact polynomial arithmetic over Q.

Everything downstream (symbol rings, operator coefficients, lattice entries)
is built from two types: MPoly, a multivariate polynomial with rational
coefficients keyed by exponent vectors, and RatFun, a reduced univariate
rational function with exact order-of-vanishing at every rational point.

A stored coefficient has one exact normal form (`_exact`): an int when it
is integral, else a Fraction with denominator > 1, never a float or a
bool.  Python hashes and compares 3 and Fraction(3) alike, so term maps,
equality and printing do not see the difference, and integral operands run
at int speed.  An int has no true division that stays exact, so every
division of coefficients goes through Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

# Base field: Q.  Kept as an alias so call sites read as field elements,
# not as "the stdlib fraction type".
Rat = Fraction

INF = math.inf


def _exact(c):
    """The normal form of a rational: an int when integral (a bool becomes
    0 or 1), else the Fraction itself."""
    return c.numerator if c.denominator == 1 else c


def _inverse(c):
    """1/c for a nonzero rational c, in normal form: an int has no exact
    true division, so the quotient is built as a Fraction."""
    return _exact(Fraction(c.denominator, c.numerator))


def as_rat(value):
    """Coerce ints, strings and Fractions to an exact rational in normal form."""
    if isinstance(value, (int, Fraction)):
        return _exact(value)
    if isinstance(value, str):
        return _exact(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


class MPoly:
    """Multivariate polynomial over Q with a fixed ordered variable tuple.

    Terms map exponent tuples to nonzero coefficients; zero coefficients are
    never stored, so equality of polynomials is equality of term maps.  A
    subclass with its own product (`dreg.weyl.WeylElement`) is another
    ring: its elements never equal an MPoly, and sums and products with
    one raise ValueError.
    """

    __slots__ = ("vars", "terms")
    commutative = True      # a class fact: the Weyl algebra's subclass says False

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        self.vars = tuple(variables)
        clean: dict[tuple, Fraction] = {}
        if terms:
            nv = len(self.vars)
            for exps, coeff in terms.items():
                if len(exps) != nv:
                    raise ValueError(f"exponent vector {exps} has wrong length for {self.vars}")
                if min(exps, default=0) < 0:
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
        out = cls.__new__(cls)
        out.vars = tuple(variables)
        out.terms = {(0,) * len(out.vars): value} if value else {}
        return out

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MPoly":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coeff=1) -> "MPoly":
        return cls(variables, {tuple(exps): as_rat(coeff)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -INF
        return max(sum(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.__class__ is other.__class__ and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def _with(self, terms: dict) -> "MPoly":
        """The element of self's type and ring with this term map, whose
        coefficients are taken as given: nonzero and in normal form."""
        out = object.__new__(self.__class__)
        out.vars = self.vars
        out.terms = terms
        return out

    def _check(self, other: "MPoly") -> None:
        """Refuse an operand of another ring: other variables, or another
        class, whose product differs (an MPoly and a WeylElement)."""
        if self.__class__ is not other.__class__:
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            return self._with({(0,) * len(self.vars): c} if c else {})
        raise TypeError(f"cannot combine MPoly with {other!r}")

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e)
            if s is None:
                res[e] = c
                continue
            s += c
            if s:
                res[e] = _exact(s)
            else:
                del res[e]
        return self._with(res)

    def __neg__(self) -> "MPoly":
        return self._with({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) + (-self)

    __radd__ = __add__

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if len(other.terms) == 1:
            return self._mul_term(*next(iter(other.terms.items())))
        if len(self.terms) == 1:
            return other._mul_term(*next(iter(self.terms.items())))
        res: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return self._with({e: _exact(c) for e, c in res.items()})

    __rmul__ = __mul__

    def _mul_term(self, exps: tuple, c: Fraction) -> "MPoly":
        """Product with the single term c * x^exps: an exponent shift and a
        scale, neither of which can make two terms collide or cancel."""
        if not any(exps):
            return self._with({e: _exact(v * c) for e, v in self.terms.items()} if c != 1
                              else dict(self.terms))
        if c == 1:
            return self._with({tuple(map(add, e, exps)): v for e, v in self.terms.items()})
        return self._with({tuple(map(add, e, exps)): _exact(v * c) for e, v in self.terms.items()})

    def scale(self, c) -> "MPoly":
        c = as_rat(c)
        return self._with({e: _exact(c * v) for e, v in self.terms.items()} if c else {})

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return self._with({(0,) * len(self.vars): 1})
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            # a power of a non-integral rational is not integral: c^k is exact
            return self._with({tuple(a * k for a in e): c ** k})
        # square-and-multiply from the base: no product by 1, no last squaring
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

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
            s = res.get(ne, 0) + c * value ** e[idx]
            if s:
                res[ne] = s
            else:
                res.pop(ne, None)
        return MPoly(rest, res)

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

    def univar_coeffs(self) -> list:
        """Dense coefficient list c0..cd for a univariate polynomial."""
        self._require_univar()
        if not self.terms:
            return []
        d = max(e[0] for e in self.terms)
        out = [0] * (d + 1)
        for e, c in self.terms.items():
            out[e[0]] = c
        return out

    @classmethod
    def from_univar_coeffs(cls, var: str, coeffs: Sequence) -> "MPoly":
        out = cls.__new__(cls)
        out.vars = (var,)
        out.terms = {(i,): c for i, c in enumerate(map(as_rat, coeffs)) if c}
        return out

    def leading_univar_coeff(self):
        self._require_univar()
        return self.terms[max(self.terms)] if self.terms else 0

    def monic_univar(self) -> "MPoly":
        lc = self.leading_univar_coeff()
        if not lc or lc == 1:
            return self
        return self.scale(_inverse(lc))

    def univar_divmod(self, other: "MPoly") -> tuple["MPoly", "MPoly"]:
        self._require_univar()
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = self.univar_coeffs()
        b = other.univar_coeffs()
        q = [0] * max(0, len(a) - len(b) + 1)
        r = list(a)
        inv = _inverse(b[-1])
        while len(r) >= len(b) and any(r):
            while r and not r[-1]:
                r.pop()
            if len(r) < len(b):
                break
            factor = _exact(r[-1] * inv)
            shift = len(r) - len(b)
            q[shift] = factor
            for i, bc in enumerate(b):
                r[shift + i] -= factor * bc
        var = self.vars[0]
        return (MPoly.from_univar_coeffs(var, q), MPoly.from_univar_coeffs(var, r))

    def __str__(self) -> str:
        return format_mpoly(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.vars}, {str(self)!r})"


def _grevlex_key(exps: tuple) -> tuple:
    return (sum(exps), tuple(-e for e in reversed(exps)))


def format_mpoly(p: MPoly, key=_grevlex_key) -> str:
    """Canonical text form: terms in descending order of the sort key on
    exponent tuples, graded reverse-lex by default."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: key(kv[0]), reverse=True)
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
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (denom_lcm // c.denominator) for c in coeffs])


def _primitive(ints: list[int]) -> list[int]:
    """Integer coefficients divided by their content."""
    content = math.gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


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
    fa = _primitive_int_coeffs(a)
    fb = _primitive_int_coeffs(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _primitive(_pseudo_rem(fa, fb))
    return MPoly.from_univar_coeffs(var, fa).monic_univar()


def squarefree_part(p: MPoly) -> MPoly:
    """Monic squarefree part p / gcd(p, p') of a univariate polynomial."""
    p._require_univar()
    if p.total_degree() <= 0:
        return MPoly.const(p.vars, 1) if p else p
    return _quo(p, _common_factor(p, p.diff(p.vars[0]))).monic_univar()


def rational_roots(p: MPoly) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial, ascending."""
    p._require_univar()
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    ints = _primitive_int_coeffs(p)
    # root 0 first, then the candidates p/q of the polynomial divided by x^low
    low = min(p.terms)[0]
    roots = [Fraction(0)] if low else []
    ints = ints[low:]
    if len(ints) <= 1:
        return roots
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
                # den^n * P(num/den), an integer, by Horner's rule
                val, den_power = 0, 1
                for c in reversed(ints):
                    val = val * cand.numerator + c * den_power
                    den_power *= cand.denominator
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
    rest = p.monic_univar()
    out: list[tuple[Fraction, int]] = []
    for root in rational_roots(rest):
        rest, mult = _divide_out(rest, root)
        if mult:
            out.append((root, mult))
    return out, rest.monic_univar()


_ZEROS: dict = {}       # variable name -> its zero RatFun, built on first use
_ONES: dict = {}        # variable name -> its constant 1, built on first use


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
        else:
            g = _common_factor(num, den)
            num, den = _quo(num, g), _quo(den, g)
        self.num, self.den = _monic_den(num, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_coprime(cls, num: MPoly, den: MPoly) -> "RatFun":
        """num/den for a pair the caller knows to be coprime (den nonzero, and
        a unit when num is zero); only the denominator is made monic."""
        out = cls.__new__(cls)
        out.num, out.den = _monic_den(num, den)
        return out

    @classmethod
    def const(cls, var: str, value) -> "RatFun":
        return cls.from_coprime(MPoly.const((var,), value), MPoly.const((var,), 1))

    @classmethod
    def zero(cls, var: str) -> "RatFun":
        """The zero function of `var`: one shared instance per variable, which
        no operation writes to."""
        zero = _ZEROS.get(var)
        if zero is None:
            zero = _ZEROS[var] = cls.const(var, 0)
        return zero

    @classmethod
    def one(cls, var: str) -> "RatFun":
        """The constant 1 of `var`, shared like `zero`."""
        one = _ONES.get(var)
        if one is None:
            one = _ONES[var] = cls.const(var, 1)
        return one

    @classmethod
    def x(cls, var: str) -> "RatFun":
        return cls.from_coprime(MPoly.var((var,), var), MPoly.const((var,), 1))

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

    def constant_value(self):
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

    # Henrici's cross-cancellation (Knuth, TAOCP vol. 2, 4.5.1): with both
    # operands reduced, only gcds of the denominators, or of a numerator with
    # the other denominator, can be nontrivial, and a unit argument has none.

    def __add__(self, other) -> "RatFun":
        other = self._coerce(other)
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        g = _common_factor(b, d)
        if g is None:
            # gcd(b, d) = 1 makes (ad + cb)/(bd) reduced
            num, den = a * d + c * b, b * d
        else:
            b1 = _quo(b, g)
            num, den = a * _quo(d, g) + c * b1, b1 * d
        if not num.terms:
            return RatFun.zero(self.var)
        if g is not None:
            # a common factor of num and den = (b/g)(d/g) g can only divide g
            g = _common_factor(num, g)
            num, den = _quo(num, g), _quo(den, g)
        return RatFun.from_coprime(num, den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun.from_coprime(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RatFun":
        if isinstance(other, (int, Fraction)):
            # a scalar only scales the numerator: the pair stays coprime
            if not other or not self.num.terms:
                return RatFun.zero(self.var)
            return RatFun.from_coprime(self.num.scale(other), self.den)
        other = self._coerce(other)
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        return RatFun._cross(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        if not self.num.terms:
            return self
        return RatFun._cross(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other) -> "RatFun":
        return self._coerce(other) / self

    @staticmethod
    def _cross(a: MPoly, b: MPoly, c: MPoly, d: MPoly) -> "RatFun":
        """(a/b)(c/d) for coprime pairs (a, b), (c, d) and nonzero a, c."""
        g1, g2 = _common_factor(a, d), _common_factor(c, b)
        return RatFun.from_coprime(_quo(a, g1) * _quo(c, g2), _quo(b, g2) * _quo(d, g1))

    def __pow__(self, k: int) -> "RatFun":
        # powers of a coprime pair stay coprime, and den^k stays monic
        if k >= 0:
            return RatFun.from_coprime(self.num ** k, self.den ** k)
        if self.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFun.from_coprime(self.den ** -k, self.num ** -k)

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

    def _substitute(self, transform) -> "RatFun":
        """num(phi(x)) / den(phi(x)) for an automorphism phi of Q[x], given
        as a map on dense coefficient lists: the pair stays coprime."""
        var = self.var
        return RatFun.from_coprime(
            MPoly.from_univar_coeffs(var, transform(self.num.univar_coeffs())),
            MPoly.from_univar_coeffs(var, transform(self.den.univar_coeffs())))

    def shift(self, c) -> "RatFun":
        """Substitute x -> x + c."""
        c = as_rat(c)
        if not c:
            return self
        return self._substitute(lambda coeffs: _taylor_shift(coeffs, c))

    def scale_var(self, c) -> "RatFun":
        """Substitute x -> c*x for nonzero rational c."""
        c = as_rat(c)
        if not c:
            raise ValueError("scale by zero")
        return self._substitute(lambda coeffs: [a * c ** i for i, a in enumerate(coeffs)])

    def invert_var(self, new_var: str) -> "RatFun":
        """Substitute x -> 1/t, returning a rational function of t."""
        nd = self.num.total_degree() if not self.num.is_zero() else 0
        dd = self.den.total_degree()
        num_rev = _reverse_univar(self.num, new_var, int(nd) if self.num else 0)
        den_rev = _reverse_univar(self.den, new_var, int(dd))
        # num(1/t)/den(1/t) = t^(dd-nd) * rev(num)/rev(den); the reversals keep
        # their degrees, so neither has a factor t, and a common root of theirs
        # would invert to one of num and den: the pair stays coprime
        tpow = int(dd) - (int(nd) if self.num else 0)
        t = (new_var,)
        if tpow >= 0:
            return RatFun.from_coprime(num_rev * MPoly.monomial(t, (tpow,)), den_rev)
        return RatFun.from_coprime(num_rev, den_rev * MPoly.monomial(t, (-tpow,)))

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


def _common_factor(p: MPoly, q: MPoly) -> MPoly | None:
    """Monic gcd(p, q) of nonzero univariate polynomials, None standing for 1.

    With a single-term argument (a constant, a power of x) the gcd is
    x^min of the valuations, read off without `univar_gcd`.
    """
    if len(p.terms) == 1 or len(q.terms) == 1:
        k = min(min(p.terms)[0], min(q.terms)[0])
        return MPoly.monomial(p.vars, (k,)) if k else None
    g = univar_gcd(p, q)
    return g if g.total_degree() > 0 else None


def _quo(p: MPoly, g: MPoly | None) -> MPoly:
    """p / g for a monic divisor g, None standing for 1."""
    if g is None:
        return p
    if len(g.terms) == 1:
        ((k,),) = g.terms
        return MPoly.from_univar_coeffs(p.vars[0], p.univar_coeffs()[k:])
    return p.univar_divmod(g)[0]


def denominator_lcm(fs: Iterable[RatFun]) -> MPoly:
    """Monic lcm of the denominators of some rational functions in one variable."""
    dens = (f.den for f in fs)
    lcm = next(dens)
    for den in dens:
        lcm = lcm * _quo(den, _common_factor(lcm, den))
    return lcm


def _mult_at(p: MPoly, c: Fraction) -> int:
    """Multiplicity of the root x = c in a nonzero univariate polynomial."""
    if not c:
        return min(e[0] for e in p.terms)
    return _divide_out(p, c)[1]


def _divide_out(p: MPoly, c: Fraction) -> tuple[MPoly, int]:
    """(q, m) with p = (x - c)^m q and q(c) != 0, for nonzero univariate p."""
    lin = MPoly.from_univar_coeffs(p.vars[0], [-c, 1])
    mult = 0
    while True:
        q, r = p.univar_divmod(lin)
        if r:
            return p, mult
        p = q
        mult += 1


def _monic_den(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """num/den rescaled so that the nonzero denominator is monic."""
    lc = den.terms[max(den.terms)]
    if lc == 1:
        return num, den
    inv = _inverse(lc)
    return num.scale(inv), den.scale(inv)


def _taylor_shift(a: list, c: Fraction) -> list:
    """Dense coefficients of p(x + c) from those of p, in place, by repeated
    synthetic division (Taylor shift): O(d^2) products, no polynomial ones."""
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] = _exact(a[j] + c * a[j + 1])
    return a


def _reverse_univar(p: MPoly, new_var: str, degree: int) -> MPoly:
    coeffs = p.univar_coeffs()
    coeffs += [0] * (degree + 1 - len(coeffs))
    return MPoly.from_univar_coeffs(new_var, list(reversed(coeffs)))
