"""Exact polynomial arithmetic over Q.

Everything downstream (symbol rings, operator coefficients, lattice entries)
is built from two types: MPoly, a multivariate polynomial with rational
coefficients keyed by exponent vectors, and RatFun, a reduced univariate
rational function with exact order-of-vanishing at every rational point.

An MPoly coefficient has one exact normal form (`_exact`): an int when it
is integral, else a Fraction with denominator > 1, never a float or a
bool.  Python hashes and compares 3 and Fraction(3) alike, so term maps,
equality and printing do not see the difference, and integral operands run
at int speed.  An int has no true division that stays exact, so every
division of coefficients goes through Fraction.

Q(x) runs on integers inside.  A RatFun is one rational scale times a
quotient of primitive integer polynomials held as dense tuples of ints, so
its arithmetic, gcds, lcms, root finding and valuations never touch a
Fraction (Gauss's lemma).  Rationals appear only in the scale, printing
and Laurent series.  RatFun is the one univariate type below the operators
(the parser evaluates into it), and it meets MPoly at two boundaries only:
the rational zeros of `dreg.dmod` (`split_content`) and the untested
factor that the singular locus of `dreg.regularity` builds from the
primitive leftover of `factor_rational` (`monic_mpoly`).  Sums and
products of a RatFun with an MPoly raise TypeError.
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
    subclass whose product is not this one (`dreg.weyl.WeylElement`, which
    refuses `*`) is another ring: its elements never equal an MPoly, and
    sums and products with one raise.  No power is defined: `**` raises
    TypeError.
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
    def monomial(cls, variables: Sequence[str], exps: Sequence[int]) -> "MPoly":
        return cls(variables, {tuple(exps): 1})

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

    @classmethod
    def from_univar_coeffs(cls, var: str, coeffs: Sequence) -> "MPoly":
        out = cls.__new__(cls)
        out.vars = (var,)
        out.terms = {(i,): c for i, c in enumerate(map(as_rat, coeffs)) if c}
        return out

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
    return _join_terms((coeff > 0, _format_rat(abs(coeff)), format_monomial(p.vars, exps))
                       for exps, coeff in items)


def format_monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    """The monomial part of a term as `format_mpoly` writes it: x*y^2 for
    exponents (1, 2), '' for the monomial 1."""
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e])


def _format_univar(var: str, coeffs: Sequence[int], divisor: int = 1) -> str:
    """`format_mpoly` of the polynomial in `var` whose coefficient of x^i
    is coeffs[i]/divisor, for integers coeffs[i] and divisor > 0."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c:
            g = math.gcd(c, divisor)
            mag = str(abs(c) // g) if g == divisor else f"{abs(c) // g}/{divisor // g}"
            terms.append((c > 0, mag, var if e == 1 else f"{var}^{e}" if e else ""))
    return _join_terms(terms) or "0"


def _join_terms(terms) -> str:
    """The text of a sum of (positive, magnitude text, monomial text)
    terms, the monomial 1 written as ''."""
    parts: list[str] = []
    for positive, mag, mono in terms:
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        if not parts:
            parts.append(body if positive else f"-{body}")
        else:
            parts.append(("+ " if positive else "- ") + body)
    return " ".join(parts)


def _format_rat(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _ratio(a, b):
    """a/b for rationals a and b != 0, in normal form."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _exact(Fraction(a.numerator * b.denominator, a.denominator * b.numerator))


# -- dense integer polynomials ---------------------------------------------------
# A polynomial of Z[x] is a tuple (or list) of ints, lowest degree first,
# with no trailing zeros; () is zero.  Q(x) runs on these: a product of
# primitive polynomials is primitive, and a quotient by a primitive divisor
# stays in Z[x] (Gauss's lemma; von zur Gathen & Gerhard, Modern Computer
# Algebra, 6.2).


def split_content(p: MPoly) -> tuple:
    """(c, P) with p = c P for a nonzero univariate MPoly: c rational and P
    primitive with a positive leading coefficient."""
    terms = p.terms
    dense = [0] * (max(terms)[0] + 1)
    lcm = 1
    for (e,), c in terms.items():
        dense[e] = c
        if type(c) is not int:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    if lcm > 1:
        dense = [c.numerator * (lcm // c.denominator) for c in dense]
    s, prim = _split(dense)
    return (s if lcm == 1 else _exact(Fraction(s, lcm))), prim


def monic_mpoly(var: str, coeffs: Sequence[int]) -> MPoly:
    """The nonzero integer polynomial divided by its leading coefficient, as an MPoly."""
    lc = coeffs[-1]
    return MPoly.from_univar_coeffs(var, coeffs if lc == 1 else [Fraction(c, lc) for c in coeffs])


def _split(a) -> tuple:
    """(s, P) with a = s P and P primitive with a positive leading
    coefficient, for a nonzero integer polynomial."""
    s = math.gcd(*a)
    if a[-1] < 0:
        s = -s
    return (1, tuple(a)) if s == 1 else (s, tuple(c // s for c in a))


def _valuation(a) -> int:
    """The exponent of the lowest term of a nonzero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i


def _mul(a, b) -> tuple:
    """The product of integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    k = len(b) - 1
    if not any(b[:k]):
        # a single term c x^k: a shift and a scale
        c = b[k]
        return (0,) * k + (tuple(a) if c == 1 else tuple(c * v for v in a))
    out = [0] * (len(a) + k)
    for j, bj in enumerate(b):
        if bj:
            for i, ai in enumerate(a, j):
                out[i] += ai * bj
    return tuple(out)


def _pow(a, k: int) -> tuple:
    """a^k by square-and-multiply; a single term x^d goes straight to x^(dk)."""
    d = len(a) - 1
    if not k or (a[d] == 1 and not any(a[:d])):
        return (0,) * (d * k) + (1,)
    result = None
    while True:
        if k & 1:
            result = a if result is None else _mul(result, a)
        k >>= 1
        if not k:
            return result
        a = _mul(a, a)


def _combine(u: int, a, v: int, b) -> list:
    """u a + v b for integers u, v, trailing zeros dropped."""
    if len(a) < len(b):
        u, a, v, b = v, b, u, a
    out = [u * c for c in a]
    for i, c in enumerate(b):
        out[i] += v * c
    while out and not out[-1]:
        out.pop()
    return out


def _diff(a) -> tuple:
    return tuple(i * c for i, c in enumerate(a))[1:]


def _exquo(a, b) -> tuple:
    """a / b for integer polynomials where b divides a in Z[x], as a
    primitive b does whenever it divides a over Q."""
    nb = len(b) - 1
    lb = b[nb]
    if not any(b[:nb]):
        return tuple(a[nb:]) if lb == 1 else tuple(c // lb for c in a[nb:])
    r = list(a)
    q = [0] * (len(a) - nb)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + nb] if lb == 1 else r[i + nb] // lb
        if c:
            q[i] = c
            for j in range(nb):
                r[i + j] -= c * b[j]
    return tuple(q)


def _pseudo_rem(a, b) -> list:
    """Pseudo-remainder of integer polynomials (b nonzero)."""
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
        if lb != 1:
            a = [lb * c for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc


def _divides(b, a) -> bool:
    """Whether the primitive polynomial b divides the integer polynomial a.
    A quotient over Q by a primitive b lies in Z[x], so the first
    coefficient that does not divide exactly refutes it."""
    nb = len(b) - 1
    if len(a) <= nb:
        return False
    lb = b[nb]
    r = list(a)
    for i in range(len(a) - 1 - nb, -1, -1):
        c, m = divmod(r[i + nb], lb)
        if m:
            return False
        if c:
            for j in range(nb):
                r[i + j] -= c * b[j]
    return not any(r[:nb])


# GCDHEU runs once the smaller degree reaches this.  On the 1,413 gcds the
# four benchmark pools take (smaller degree 1-5, coefficients of at most 8
# bits) it beat the PRS by over a third from degree 2 on.  At degree 1 the
# PRS is one pseudo-division and the two are within 15% of each other, so
# a linear gcd keeps the PRS, and every verb keeps its fallback running.
# Twelve points verify every gcd of the rank 5-8 `random_system` reports;
# six left four rank-7 gcds to a PRS that took 1.1-26 times as long as
# twelve failing points would.
HEURISTIC_DEGREE = 2
HEURISTIC_TRIES = 12


def _heuristic_gcd(a, b):
    """The gcd of primitive polynomials by GCDHEU, or None when none of
    HEURISTIC_TRIES evaluation points verifies.

    h = gcd(a(xi), b(xi)) in Z, and its symmetric xi-adic digits are the
    coefficients of a G with G(xi) = h.  With xi >= 2 min(|a|, |b|) + 2 in
    the max norm, a primitive part of G that divides both a and b is their
    gcd (Char, Geddes & Gonnet 1989; Geddes, Czapor & Labahn 1992, 7.7).
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(HEURISTIC_TRIES):
        h = math.gcd(_horner(a, xi), _horner(b, xi))
        half, digits = xi // 2, []
        while h and len(digits) <= len(b):
            c = h % xi
            if c > half:
                c -= xi
            digits.append(c)
            h = (h - c) // xi
        if not h:
            g = _split(digits)[1]
            if len(g) == 1 or (_divides(g, b) and _divides(g, a)):
                return g
        # a larger point whose digits carry no pattern from the last one
        xi = xi * 73794 // 27011
    return None


def univar_gcd(a, b) -> tuple:
    """The gcd of integer polynomials, primitive with a positive leading
    coefficient; () when both are zero.

    From degree HEURISTIC_DEGREE on GCDHEU runs first.  The primitive
    pseudo-remainder sequence over Z, which keeps coefficient sizes
    bounded, takes the smaller inputs and every input GCDHEU gives up on.
    """
    if not a or not b:
        return _split(a or b)[1] if a or b else ()
    a, b = _split(a)[1], _split(b)[1]
    if len(a) < len(b):
        a, b = b, a
    if len(b) > HEURISTIC_DEGREE:
        g = _heuristic_gcd(a, b)
        if g is not None:
            return g
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, (_split(r)[1] if r else ())
    return a


def _common_factor(a, b):
    """gcd(a, b) of nonzero primitive polynomials, None standing for 1.

    Equal arguments are their own gcd, and with a constant or a single term
    x^k the gcd is x^min of the valuations, read off without `univar_gcd`.
    """
    if len(a) == 1 or len(b) == 1:
        return None
    if a == b:
        return a
    va, vb = _valuation(a), _valuation(b)
    if va == len(a) - 1 or vb == len(b) - 1:
        k = min(va, vb)
        return (0,) * k + (1,) if k else None
    g = univar_gcd(a, b)
    return g if len(g) > 1 else None


def squarefree_part(p) -> tuple:
    """p / gcd(p, p') for a primitive integer polynomial with a positive
    leading coefficient."""
    if len(p) <= 2:
        return tuple(p)
    g = _common_factor(p, _split(_diff(p))[1])
    return _exquo(p, g) if g else tuple(p)


def _deflate(a, u: int, v: int):
    """a / (v x - u) when v x - u divides the integer polynomial a, else None."""
    q = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        carry, r = divmod(a[i] + u * carry, v)
        if r:
            return None
        q[i - 1] = carry
    return tuple(q) if a[0] + u * carry == 0 else None


def _divide_out(a, root: Fraction) -> tuple[tuple, int]:
    """(q, m) with a = (v x - u)^m q and q(root) != 0 for root = u/v, in Z[x]."""
    u, v = root.numerator, root.denominator
    m = 0
    while len(a) > 1:
        q = _deflate(a, u, v)
        if q is None:
            break
        a, m = q, m + 1
    return a, m


def _mult_at(a, c: Fraction) -> int:
    """Multiplicity of the root x = c of a nonzero integer polynomial."""
    return _valuation(a) if not c else _divide_out(a, c)[1]


def _primes():
    yield 2
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _squarefree_mod(h, p: int) -> bool:
    """Whether the monic integer polynomial h stays squarefree mod p: its
    gcd with h' over F_p is a constant."""
    a = [c % p for c in h]
    b = [c % p for c in _diff(h)]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _horner(a, y: int, m: int = 0) -> int:
    """a(y), reduced mod m when m is given."""
    acc = 0
    for c in reversed(a):
        acc = acc * y + c
        if m:
            acc %= m
    return acc


def _lifted_roots(f) -> list[Fraction]:
    """The rational roots of a primitive f of degree >= 2 with f(0) != 0.

    The roots are those of the squarefree part s of f, taken first.  With
    a = lc(s) and n = deg s, h(y) = a^(n-1) s(y/a) is monic in Z[y], so its
    rational roots y = a x are integers, each below the Cauchy bound
    B = 1 + max |h_i| in absolute value.  For a prime p with h squarefree
    mod p, every root of h mod p is simple: Newton's iteration lifts it to a
    root mod p^(2^k) > 2B, and a rational root of h is the symmetric residue
    of exactly one lift.  s is squarefree, so such a prime exists.
    """
    f = squarefree_part(f)
    n = len(f) - 1
    if n == 1:
        return [Fraction(-f[0], f[1])]
    a = f[n]
    h = [c * a ** (n - 1 - i) for i, c in enumerate(f[:n])] + [1]
    p = next(q for q in _primes() if a % q and _squarefree_mod(h, q))
    bound = 1 + max(map(abs, h[:n]))
    dh = _diff(h)
    roots = []
    for y in range(p):
        if _horner(h, y, p):
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            y = (y - _horner(h, y, m) * pow(_horner(dh, y, m), -1, m)) % m
        if y > m // 2:
            y -= m
        if abs(y) < bound and not _horner(h, y):
            roots.append(Fraction(y, a))
    return roots


def rational_roots(p) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial, ascending."""
    if not any(p):
        raise ValueError("zero polynomial has every root")
    low = _valuation(p)
    roots = [Fraction(0)] if low else []
    f = _split(p[low:])[1]
    if len(f) == 2:
        roots.append(Fraction(-f[0], f[1]))
    elif len(f) > 2:
        roots += _lifted_roots(f)
    return sorted(roots)


def factor_rational(p) -> tuple[list[Fraction], tuple]:
    """Split off the rational linear factors of a nonzero integer polynomial.

    Returns (its rational roots, ascending; the primitive leftover, which
    has no rational root).  No factorization beyond this is attempted: the
    leftover may be reducible over Q but is reported as a single untested
    factor.
    """
    if not any(p):
        raise ValueError("cannot factor the zero polynomial")
    rest = _split(p)[1]
    roots = rational_roots(rest)
    for root in roots:
        rest = _divide_out(rest, root)[0]
    return roots, rest


def _taylor_shift(a, u: int, v: int) -> list:
    """v^d a(x + u/v) for an integer polynomial a of degree d, by repeated
    synthetic division (Taylor shift) on integers: v^d a(y/v) has the
    coefficients v^(d-i) a_i, its shift by u is v^d a((y + u)/v), and y = v x
    multiplies coefficient i by v^i (von zur Gathen & Gerhard 1997)."""
    d = len(a) - 1
    if d < 1:
        return list(a)
    b = list(a) if v == 1 else [ai * v ** (d - i) for i, ai in enumerate(a)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            b[j] += u * b[j + 1]
    return b if v == 1 else [bi * v ** i for i, bi in enumerate(b)]


def _reverse(a) -> tuple[int, tuple]:
    """(sign, x^deg(a) a(1/x) made primitive with a positive leading coefficient)."""
    r = tuple(reversed(a[_valuation(a):]))
    return (1, r) if r[-1] > 0 else (-1, tuple(-c for c in r))


_ZEROS: dict = {}       # variable name -> its zero RatFun, built on first use
_ONES: dict = {}        # variable name -> its constant 1, built on first use


def _make(var: str, scale, numer: tuple, denom: tuple) -> "RatFun":
    """The RatFun with these fields, taken as given: in lowest terms."""
    out = object.__new__(RatFun)
    out.var, out.scale, out.numer, out.denom = var, scale, numer, denom
    return out


class RatFun:
    """A univariate rational function in lowest terms, held on integers.

    A nonzero f is scale * numer/denom: numer and denom are dense tuples of
    ints, lowest degree first, each primitive with a positive leading
    coefficient, with gcd(numer, denom) = 1, and scale is a nonzero
    rational in normal form.  This form is unique, so equality and the hash
    read the fields.  The zero function has scale 0, numer () and denom (1,).
    """

    __slots__ = ("var", "scale", "numer", "denom")

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, var: str, value) -> "RatFun":
        value = as_rat(value)
        return _make(var, value, (1,) if value else (), (1,))

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
        return _make(var, 1, (0, 1), (1,))

    @classmethod
    def quotient(cls, var: str, num, den) -> "RatFun":
        """num/den in lowest terms, for integer polynomials num and den != 0
        with no trailing zeros: the content of each splits off into the
        scale, and one gcd cancels the primitive parts.  1 and 0 are the
        shared `one` and `zero`."""
        if not num:
            return cls.zero(var)
        cn, n = _split(num)
        if len(den) == 1:
            cd, d = den[0], (1,)
        else:
            cd, d = _split(den)
            g = _common_factor(n, d)
            if g:
                n, d = _exquo(n, g), _exquo(d, g)
        scale = _ratio(cn, cd)
        if scale == 1 and len(n) == len(d) == 1:
            return cls.one(var)
        return _make(var, scale, n, d)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.scale

    def is_polynomial(self) -> bool:
        return len(self.denom) == 1

    def is_constant(self) -> bool:
        return len(self.denom) == 1 and len(self.numer) <= 1

    def __bool__(self) -> bool:
        return bool(self.scale)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.scale == other
        if not isinstance(other, RatFun):
            return NotImplemented
        return (self.var == other.var and self.scale == other.scale
                and self.numer == other.numer and self.denom == other.denom)

    def __hash__(self):
        return hash((self.var, self.scale, self.numer, self.denom))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            if other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.const(self.var, other)
        raise TypeError(f"cannot combine RatFun with {other!r}")

    # Henrici's cross-cancellation (Knuth, TAOCP vol. 2, 4.5.1): with both
    # operands reduced, only gcds of the denominators, or of a numerator with
    # the other denominator, can be nontrivial, and a unit argument has none.

    def __add__(self, other) -> "RatFun":
        other = self._coerce(other)
        if not self.scale:
            return other
        if not other.scale:
            return self
        a, b, c, d = self.numer, self.denom, other.numer, other.denom
        g = _common_factor(b, d)
        b1, d1 = (b, d) if g is None else (_exquo(b, g), _exquo(d, g))
        # s a/b + t c/d = (u a d1 + w c b1) / (q b d1), with s = u/q and t = w/q
        s, t = self.scale, other.scale
        q = s.denominator * t.denominator // math.gcd(s.denominator, t.denominator)
        num = _combine(s.numerator * (q // s.denominator), _mul(a, d1),
                       t.numerator * (q // t.denominator), _mul(c, b1))
        if not num:
            return RatFun.zero(self.var)
        k, num = _split(num)
        den = _mul(b, d1)
        if g is not None:
            # a common factor of num and den = (b/g)(d/g) g can only divide g
            h = _common_factor(num, g)
            if h is not None:
                num, den = _exquo(num, h), _exquo(den, h)
        return _make(self.var, k if q == 1 else _exact(Fraction(k, q)), num, den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return _make(self.var, -self.scale, self.numer, self.denom) if self.scale else self

    def __sub__(self, other) -> "RatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RatFun":
        if isinstance(other, (int, Fraction)):
            # a scalar only scales: the pair stays coprime
            if not other or not self.scale:
                return RatFun.zero(self.var)
            return _make(self.var, _exact(self.scale * other), self.numer, self.denom)
        other = self._coerce(other)
        if not self.scale:
            return self
        if not other.scale:
            return other
        return _cross(self.var, _exact(self.scale * other.scale),
                      self.numer, self.denom, other.numer, other.denom)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = self._coerce(other)
        if not other.scale:
            raise ZeroDivisionError("division by the zero function")
        if not self.scale:
            return self
        return _cross(self.var, _ratio(self.scale, other.scale),
                      self.numer, self.denom, other.denom, other.numer)

    def __rtruediv__(self, other) -> "RatFun":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RatFun":
        # powers of a coprime pair stay coprime and primitive
        if k > 0:
            if not self.scale:
                return self
            return _make(self.var, self.scale ** k, _pow(self.numer, k), _pow(self.denom, k))
        if not k:
            return RatFun.one(self.var)
        if not self.scale:
            raise ZeroDivisionError("division by the zero function")
        return _make(self.var, _ratio(1, self.scale ** -k), _pow(self.denom, -k),
                     _pow(self.numer, -k))

    def derivative(self) -> "RatFun":
        """(s n/d)' = s (n'd - nd')/d^2.  With n, d coprime, a prime power
        p^m dividing d exactly divides n'd - nd' exactly m - 1 times, so the
        gcd with d^2 is the gcd with d."""
        n, d = self.numer, self.denom
        if self.is_constant():
            return RatFun.zero(self.var)
        k, num = _split(_combine(1, _mul(_diff(n), d), -1, _mul(n, _diff(d))))
        den = _mul(d, d)
        g = _common_factor(num, d)
        if g:
            num, den = _exquo(num, g), _exquo(den, g)
        return _make(self.var, _exact(self.scale * k), num, den)

    # -- valuations ---------------------------------------------------------

    def ord_at(self, c) -> int | float:
        """Order of vanishing at x = c; negative at a pole, +inf for 0."""
        if not self.scale:
            return INF
        c = as_rat(c)
        return _mult_at(self.numer, c) - _mult_at(self.denom, c)

    # -- substitutions --------------------------------------------------------

    def shift(self, c) -> "RatFun":
        """Substitute x -> x + c; an automorphism of Q[x] keeps the pair
        coprime."""
        c = as_rat(c)
        if not c or not self.scale:
            return self
        u, v = c.numerator, c.denominator
        sn, n = _split(_taylor_shift(self.numer, u, v))
        sd, d = _split(_taylor_shift(self.denom, u, v))
        # numer(x + c) = v^-deg(numer) sn n and denom(x + c) = v^-deg(denom) sd d
        top, bottom = sn * v ** (len(d) - 1), sd * v ** (len(n) - 1)
        return _make(self.var, _exact(self.scale * Fraction(top, bottom)), n, d)

    def invert_var(self, new_var: str) -> "RatFun":
        """Substitute x -> 1/t, returning a rational function of t."""
        if not self.scale:
            return RatFun.zero(new_var)
        (sn, n), (sd, d) = _reverse(self.numer), _reverse(self.denom)
        # num(1/t)/den(1/t) = t^(dd-nd) rev(num)/rev(den); the reversals keep
        # no factor t, and a common root of theirs would invert to one of
        # num and den: the pair stays coprime
        tpow = len(self.denom) - len(self.numer)
        if tpow >= 0:
            n = (0,) * tpow + n
        else:
            d = (0,) * -tpow + d
        return _make(new_var, self.scale if sn == sd else -self.scale, n, d)

    def __str__(self) -> str:
        # the numerator over the monic denominator has coefficients p n_i/(q lc)
        p, q, lc = self.scale.numerator, self.scale.denominator, self.denom[-1]
        num_s = _format_univar(self.var, [p * c for c in self.numer], q * lc)
        if len(self.denom) == 1:
            return num_s
        den_s = _format_univar(self.var, self.denom, lc)
        if sum(map(bool, self.numer)) > 1:
            num_s = f"({num_s})"
        if sum(map(bool, self.denom)) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFun({self!s})"


def _cross(var: str, scale, a, b, c, d) -> RatFun:
    """scale (a/b)(c/d) for coprime pairs (a, b), (c, d) of primitive polynomials."""
    g1, g2 = _common_factor(a, d), _common_factor(c, b)
    if g1:
        a, d = _exquo(a, g1), _exquo(d, g1)
    if g2:
        c, b = _exquo(c, g2), _exquo(b, g2)
    return _make(var, scale, _mul(a, c), _mul(b, d))


def denominator_lcm(fs: Iterable[RatFun]) -> tuple:
    """The primitive lcm of the denominators of some rational functions in one variable."""
    dens = (f.denom for f in fs)
    lcm = next(dens)
    for den in dens:
        g = _common_factor(lcm, den)
        lcm = _mul(lcm, _exquo(den, g) if g else den)
    return lcm
