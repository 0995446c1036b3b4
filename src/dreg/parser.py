"""Expression grammar for operators and Weyl-algebra generators.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' nat)?
    atom   := nat | var | deriv | '(' expr ')'
    var    := 'x' | 'y' | 'z' | 'x'nat      deriv := 'd' | 'dx' | 'dy' | 'dz' | 'd'nat

Products are noncommutative and associate left to right; division is the
right-multiplication by the inverse of a pure-coordinate factor (never a
derivation).  Generators are separated by ';'.  The printers below emit
canonical forms the parser reads back verbatim.

In one variable a value is a tuple of unreduced pairs (num, den) of integer
lists, one per order of d: sums, products and quotients of functions run no
gcd, f*d^k places f at order k and f*P scales the coefficients of P.  Each
coefficient is put in lowest terms once, by `RatFun.quotient`, when the
operator or the rational function is built.  Only P*f, P*Q, P/f for a
non-constant f and powers of operators need the Leibniz product of
`UnivarOperator`, which runs on reduced coefficients.

In A_n a value is a term map on the packed monomial codes of the Gröbner
driver (`dreg.ideals.Packing`), whose left-monomial product is the one Weyl
product of the package, and each generator becomes a `WeylElement` once, at
the end.  A power is refused, before it is computed, when the exponent
times the order or degree of its base, in lowest terms, exceeds MAX_POWER.

Text is lexed in one regex pass into token texts, which the descent reads by
index; a token's line and column are worked out from its offset only when a
ParseError is raised.
"""

from __future__ import annotations

import functools
import math
import re

import dreg  # the Weyl grammar loads dreg.weyl and dreg.ideals on first use

from .errors import BudgetExceeded
from .operators import UnivarOperator
from .polynomials import MPoly, RatFun, _combine, _exact, _inverse, _mul, _pow


MAX_POWER = 1000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Refused(Exception):
    """A parse failure at token `at`; `_parse` raises it as a ParseError with
    that token's line and column."""

    def __init__(self, message: str, at: int):
        self.message = message
        self.at = at


_DERIV_RE = re.compile(r"d[a-z0-9]*")
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^();]")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_+\-*/^();]")
# token texts that are neither a value nor its start; the end of input is ""
_NOT_AN_ATOM = frozenset(("", "+", "-", "*", "/", "^", ";", ")"))


def _position(text: str, pos: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset `pos`; only errors need them."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_offset(text: str, at: int) -> int:
    """Offset of token `at`, or of the end of input after the last token."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == at:
            return m.start()
    return len(text)


def _lex(text: str) -> list[str]:
    """The token texts from one `findall`, then "" for the end of input.  A
    number is a run of decimal digits, a name starts with a letter or '_',
    and an operator's text is its kind; whitespace separates tokens.  Every
    other character is refused first, wherever the parse would stop."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}",
                         *_position(text, bad.start()))
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over token texts by index, generic in the value
    algebra: each rule takes the index of its first token and returns its
    value with the index after its last token."""

    __slots__ = ("tokens", "algebra")

    def __init__(self, tokens: list[str], algebra):
        self.tokens = tokens
        self.algebra = algebra

    def expr(self, i: int):
        tokens, algebra = self.tokens, self.algebra
        sign = tokens[i]
        if sign == "-" or sign == "+":
            i += 1
        value, i = self.term(i)
        if sign == "-":
            value = algebra.neg(value)
        op = tokens[i]
        while op == "+" or op == "-":
            rhs, i = self.term(i + 1)
            value = algebra.add(value, rhs) if op == "+" else algebra.sub(value, rhs)
            op = tokens[i]
        return value, i

    def term(self, i: int):
        tokens, algebra = self.tokens, self.algebra
        value, i = self.factor(i)
        op = tokens[i]
        while op == "*" or op == "/":
            at = i
            rhs, i = self.factor(i + 1)
            value = algebra.mul(value, rhs) if op == "*" else algebra.div(value, rhs, at)
            op = tokens[i]
        return value, i

    def factor(self, i: int):
        tokens, algebra = self.tokens, self.algebra
        tok = tokens[i]
        if tok.isdecimal():
            value = algebra.const(int(tok))
        elif tok == "(":
            value, i = self.expr(i + 1)
            if tokens[i] != ")":
                raise _Refused(f"expected ')', found {tokens[i] or 'end of input'!r}", i)
        elif tok not in _NOT_AN_ATOM:
            value = algebra.symbol(tok, i)
        else:
            raise _Refused(f"expected a value, found {tok or 'end of input'!r}", i)
        i += 1
        if tokens[i] == "^":
            i += 1
            tok = tokens[i]
            if not tok.isdecimal():
                raise _Refused(f"expected 'num', found {tok or 'end of input'!r}", i)
            value = algebra.pow(value, int(tok), i)
            i += 1
        return value, i


def _parse(text: str, algebra, many: bool = False):
    """The value of `text`, or with `many` the list of its ';'-separated values."""
    tokens = _lex(text)
    parser = _Parser(tokens, algebra)
    try:
        value, i = parser.expr(0)
        values = [value]
        while many and tokens[i] == ";":
            value, i = parser.expr(i + 1)
            values.append(value)
        if tokens[i]:
            raise _Refused(f"unexpected trailing input {tokens[i]!r}", i)
    except _Refused as refused:
        line, col = _position(text, _token_offset(text, refused.at))
        raise ParseError(refused.message, line, col) from None
    return values if many else value


def _check_power(size: int, k: int, at: int) -> None:
    """Refuse v^k when k times max(1, order or degree of v) exceeds MAX_POWER."""
    if k * max(size, 1) > MAX_POWER:
        raise _Refused(f"power too large: the exponent times the order or degree "
                       f"of the base (at least 1) exceeds {MAX_POWER}", at)


_ZERO = ((), (1,))          # the pair 0/1
_ONE = ((1,), (1,))


def _pair(f: RatFun) -> tuple:
    """The pair (num, den) of integer polynomials with num/den = f."""
    p, q = f.scale.numerator, f.scale.denominator
    if not p:
        return _ZERO
    return (f.numer if p == 1 else tuple(p * c for c in f.numer),
            f.denom if q == 1 else tuple(q * c for c in f.denom))


def _pair_sum(p: tuple, q: tuple, v: int) -> tuple:
    """p + v q for pairs p and q and v = 1 or -1; equal or constant
    denominators combine in place."""
    (a, b), (c, d) = p, q
    if not c:
        return p
    if not a:
        return q if v == 1 else (tuple(-t for t in c), d)
    if b == d:
        return _combine(1, a, v, c), b
    if len(b) == len(d) == 1:
        (k,), (m,) = b, d
        g = math.gcd(k, m)
        return _combine(m // g, a, v * (k // g), c), (k // g * m,)
    return _combine(1, _mul(a, d), v, _mul(c, b)), _mul(b, d)


def _pair_mul(p: tuple, q: tuple) -> tuple:
    """p q for pairs p and q."""
    (a, b), (c, d) = p, q
    if not a or not c:
        return _ZERO
    if q is _ONE:
        return p
    return _mul(a, c), ((b[0] * d[0],) if len(b) == len(d) == 1 else _mul(b, d))


class _UnivarAlgebra:
    """Evaluation into Q(x) on unreduced pairs (num, den) of integer
    polynomials.  A value is a tuple of pairs, the coefficient of d^i at
    index i, with no zero on top, so a function is a tuple of at most one
    pair.  Sums, products and quotients of functions run no gcd, and f*d^k
    places f at order k; `operator` puts each coefficient in lowest terms
    once, at the end.  A product with an operator of order >= 1 on the
    left, and such an operator's power, is a Leibniz product of
    `UnivarOperator` on reduced coefficients."""

    x = (((0, 1), (1,)),)
    d = (_ZERO, _ONE)

    @staticmethod
    def operator(v: tuple) -> UnivarOperator:
        return UnivarOperator("x", [RatFun.quotient("x", *p) for p in v])

    def const(self, c: int) -> tuple:
        return (((c,), (1,)),) if c else ()

    def symbol(self, name: str, at: int) -> tuple:
        if name == "x":
            return self.x
        if name in ("d", "dx"):
            return self.d
        if _DERIV_RE.fullmatch(name):
            raise _Refused(f"derivation {name!r} does not exist in a "
                           "1-variable context (variable 'x')", at)
        raise _Refused(f"unknown symbol {name!r}", at)

    def neg(self, v): return tuple((tuple(-c for c in a), b) for a, b in v)

    def add(self, a, b, v: int = 1):
        out = [_pair_sum(p, q, v) for p, q in zip(a, b)]
        out += a[len(b):] or (b[len(a):] if v == 1 else self.neg(b[len(a):]))
        while out and not out[-1][0]:
            out.pop()
        return tuple(out)

    def sub(self, a, b): return self.add(a, b, -1)

    def mul(self, a, b):
        if len(a) > 1:
            return tuple(map(_pair, self.operator(a).mul(self.operator(b)).coeffs))
        if not a:
            return ()
        f = a[0]
        return tuple(_pair_mul(f, q) for q in b)

    def pow(self, v, k, at: int):
        if v is self.d:
            _check_power(1, k, at)
            return (_ZERO,) * k + (_ONE,)
        if len(v) > 1:
            # the cap reads the order and the degrees in lowest terms
            p = self.operator(v)
            _check_power(max(len(v), *(max(len(c.numer), len(c.denom)) for c in p.coeffs)) - 1,
                         k, at)
            return tuple(map(_pair, (p ** k).coeffs))
        if not v:
            _check_power(0, k, at)
            return () if k else self.const(1)
        num, den = v[0]
        if len(den) > 1:
            # the cap reads the degrees in lowest terms
            num, den = _pair(RatFun.quotient("x", num, den))
        _check_power(max(len(num), len(den)) - 1, k, at)
        return ((_pow(num, k), _pow(den, k)),)

    def div(self, a, b, at: int):
        if len(b) > 1:
            raise _Refused("division by a derivation is not defined", at)
        if not b:
            raise _Refused("division by zero", at)
        num, den = b[0]
        inverse = (den, num)
        if len(a) > 1 and (len(num) > 1 or len(den) > 1):
            # P/f for a non-constant f is the operator product P*(1/f)
            return self.mul(a, (inverse,))
        return tuple(_pair_mul(p, inverse) for p in a)


@functools.cache
def _weyl_packing(n: int):
    """The LEX `Packing` of A_n that Weyl generators are evaluated on."""
    return dreg.ideals.Packing(dreg.ideals.LEX, dreg.weyl.WeylElement._from_terms(n, {}))


class _WeylAlgebra:
    """Evaluation in A_n on packed term maps {code: coefficient} of
    `_weyl_packing(n)`: an atom is its unit code, a constant sits at code 0,
    and a product is one `Packing.subtract` per term of the left factor, the
    driver's left-monomial product.  `element` unpacks a generator once."""

    def __init__(self, variables: tuple):
        self.vars = tuple(variables)
        self.n = n = len(self.vars)
        for i, name in enumerate(self.vars):
            if name in self.vars[:i]:
                raise ValueError(f"variable {name!r} is repeated in {self.vars}")
            if _DERIV_RE.fullmatch(name):
                raise ValueError(f"variable {name!r} is named like a derivation")
        derivs = {}
        for i, name in enumerate(dreg.weyl.deriv_names(n)):
            derivs[name] = i
        for i, name in enumerate(self.vars):
            derivs.setdefault("d" + name, i)
        if n == 1:
            derivs.setdefault("d", 0)
        self.packing = pk = _weyl_packing(n)
        # name -> the code of its one-term element; a variable's name wins
        # over a derivation's ('dX' in variables ('X', 'dX'))
        self.codes = {name: pk.units[n + i] for name, i in derivs.items()}
        self.codes.update((name, pk.units[i]) for i, name in enumerate(self.vars))

    def element(self, v: dict) -> dreg.weyl.WeylElement:
        return self.packing.unpack({u: _exact(c) for u, c in v.items()})

    def const(self, c: int) -> dict:
        return {0: c} if c else {}

    def symbol(self, name: str, at: int) -> dict:
        code = self.codes.get(name)
        if code is not None:
            return {code: 1}
        if _DERIV_RE.fullmatch(name) or re.fullmatch(r"[xyz][0-9]*", name):
            raise _Refused(f"{name!r} does not exist in the {self.n}-variable "
                           f"context {self.vars}", at)
        raise _Refused(f"unknown symbol {name!r}", at)

    def neg(self, v): return {u: -c for u, c in v.items()}

    def add(self, a, b):
        out = dict(a)
        for u, c in b.items():
            s = out.get(u, 0) + c
            if s:
                out[u] = s
            else:
                del out[u]
        return out

    def sub(self, a, b): return self.add(a, self.neg(b))

    def mul(self, a, b):
        pk, out = self.packing, {}
        for s, q in a.items():
            pk.subtract(out, -q, s, b)
        # LEX codes are their fields: a product term whose exponent reached
        # the limit shows its guard bit before it can carry any further
        guard = pk.guard
        if any(u & guard for u in out):
            raise BudgetExceeded(dreg.ideals._LIMIT_REACHED)
        return out

    def pow(self, v, k, at: int):
        _check_power(self.packing.unpack(v).total_degree() if v else 0, k, at)
        if k == 0:
            return {0: 1}
        out = v
        for _ in range(k - 1):
            out = self.mul(out, v)
        return out

    def div(self, a, b, at: int):
        if not b:
            raise _Refused("division by zero", at)
        if len(b) > 1 or 0 not in b:
            raise _Refused("division is only defined by nonzero rational constants in a "
                           "multivariate context", at)
        c = _inverse(b[0])
        return {u: _exact(v * c) for u, v in a.items()}


def parse_operator(text: str) -> UnivarOperator:
    """Parse a univariate operator in x, d (or dx) with rational-function
    coefficients."""
    return _UnivarAlgebra.operator(_parse(text, _UnivarAlgebra()))


def parse_weyl_generators(text: str, variables) -> list[dreg.weyl.WeylElement]:
    """Parse ';'-separated generators of a left ideal in A_n."""
    algebra = _WeylAlgebra(tuple(variables))
    return [algebra.element(v) for v in _parse(text, algebra, many=True)]


def parse_ratfun(text: str) -> RatFun:
    """Parse a rational function of x (an order-zero operator)."""
    value = _parse(text, _UnivarAlgebra())
    if len(value) > 1:
        raise ParseError("expected a coefficient, found a derivation",
                         *_position(text, _token_offset(text, 0)))
    return RatFun.quotient("x", *value[0]) if value else RatFun.zero("x")


def parse_polynomial(text: str, variables) -> MPoly:
    """Parse a polynomial in the coordinate variables."""
    algebra = _WeylAlgebra(tuple(variables))
    w = algebra.element(_parse(text, algebra))
    if w.order() > 0:
        raise ParseError("expected a polynomial, found a derivation", 1, 1)
    return MPoly(tuple(variables), {e[:w.n]: c for e, c in w.terms.items()})


# -- printing ----------------------------------------------------------------


def format_ratfun_factor(f: RatFun) -> tuple[str, bool]:
    """Render a nonzero coefficient as (body, negated) with the sign pulled
    out front and the body parseable as a single grammar term."""
    negated = f.scale < 0
    if negated:
        f = -f
    body = str(f)
    if f.is_polynomial() and sum(map(bool, f.numer)) > 1:
        body = f"({body})"
    return body, negated


def format_operator(p: UnivarOperator) -> str:
    if p.is_zero():
        return "0"
    parts = []
    one = RatFun.one(p.var)
    for i in range(p.order(), -1, -1):
        c = p.coeff(i)
        if c.is_zero():
            continue
        dpart = "" if i == 0 else ("d" if i == 1 else f"d^{i}")
        if i > 0 and c == one:
            body, neg = dpart, False
        elif i > 0 and c == -one:
            body, neg = dpart, True
        else:
            body, neg = format_ratfun_factor(c)
            if dpart:
                body = f"{body}*{dpart}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
