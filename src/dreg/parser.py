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

In one variable a value is a rational function in Q(x), a RatFun from the
first number or x on (polynomials are its integer lists, and their sums,
products and powers run no gcd), and an operator only where it meets a
derivation: f*d^k places f at order k, f*P scales the coefficients of P, and
only P*f needs the Leibniz product.  A power is refused, before it is
computed, when the exponent times the order or degree of its base exceeds
MAX_POWER.

Text is lexed in one regex pass into token texts, which the descent reads by
index; a token's line and column are worked out from its offset only when a
ParseError is raised.
"""

from __future__ import annotations

import re

import dreg  # dreg.weyl loads on first use, so the connection side never loads it

from .operators import UnivarOperator
from .polynomials import MPoly, RatFun, _inverse


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


class _UnivarAlgebra:
    """Evaluation into Q(x); a value becomes an operator where it meets a
    derivation.  The atoms x and d are built once per parse and shared by
    every use: no operation writes to its operands."""

    def __init__(self, var: str):
        self.var = var
        self.deriv_tokens = {"d", "d" + var}
        if var == "x":
            self.deriv_tokens.add("dx")
        self.zero = RatFun.zero(var)
        self.unit = RatFun.one(var)
        self.x = RatFun.x(var)
        self.d = UnivarOperator.derivation(var)

    def lift(self, v) -> UnivarOperator:
        return v if isinstance(v, UnivarOperator) else UnivarOperator.multiplication(v)

    def const(self, c: int) -> RatFun:
        return RatFun.const(self.var, c)

    def symbol(self, name: str, at: int):
        if name == self.var:
            return self.x
        if name in self.deriv_tokens:
            return self.d
        if _DERIV_RE.fullmatch(name):
            raise _Refused(f"derivation {name!r} does not exist in a "
                           f"1-variable context (variable {self.var!r})", at)
        raise _Refused(f"unknown symbol {name!r}", at)

    def neg(self, v): return -v

    def add(self, a, b):
        if isinstance(a, UnivarOperator) or isinstance(b, UnivarOperator):
            return self.lift(a) + self.lift(b)
        return a + b

    def sub(self, a, b): return self.add(a, -b)

    def mul(self, a, b):
        if isinstance(a, UnivarOperator):
            return a.mul(self.lift(b))
        if not isinstance(b, UnivarOperator):
            return a * b
        if b.coeffs and b.coeffs[-1] == self.unit and not any(b.coeffs[:-1]):
            # b = d^k: a lands at order k, with no coefficient products
            return UnivarOperator(self.var, b.coeffs[:-1] + (a,))
        return b.scale(a)

    def pow(self, v, k, at: int):
        if v is self.d:
            _check_power(1, k, at)
            return UnivarOperator(self.var, [self.zero] * k + [self.unit])
        coeffs = v.coeffs if isinstance(v, UnivarOperator) else (v,)
        sizes = [len(coeffs) - 1]
        sizes += [max(len(c.numer), len(c.denom)) - 1 for c in coeffs]
        _check_power(max(sizes), k, at)
        return v ** k

    def div(self, a, b, at: int):
        if isinstance(b, UnivarOperator) and not b.is_zero():
            if b.order() > 0:
                raise _Refused("division by a derivation is not defined", at)
            b = b.coeff(0)
        if b.is_zero():
            raise _Refused("division by zero", at)
        if isinstance(a, UnivarOperator):
            return a.scale(_inverse(b.scale)) if b.is_constant() else a * b ** -1
        # a/b for a reduced a and a nonzero b: RatFun's cross-cancellation
        # runs the one gcd of a's numerator with b's, and none for a constant b
        return a / b


class _WeylAlgebra:
    """Evaluation into normal-ordered Weyl elements."""

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
        # name -> the exponent of its one-term element; a variable's name
        # wins over a derivation's ('dX' in variables ('X', 'dX'))
        units = [tuple(int(j == k) for k in range(2 * n)) for j in range(2 * n)]
        self.exponents = {name: units[n + i] for name, i in derivs.items()}
        self.exponents.update((name, units[i]) for i, name in enumerate(self.vars))
        self.origin = (0,) * (2 * n)

    def const(self, c: int) -> dreg.weyl.WeylElement:
        return dreg.weyl.WeylElement._from_terms(self.n, {self.origin: c} if c else {})

    def symbol(self, name: str, at: int) -> dreg.weyl.WeylElement:
        exps = self.exponents.get(name)
        if exps is not None:
            return dreg.weyl.WeylElement._from_terms(self.n, {exps: 1})
        if _DERIV_RE.fullmatch(name) or re.fullmatch(r"[xyz][0-9]*", name):
            raise _Refused(f"{name!r} does not exist in the {self.n}-variable "
                           f"context {self.vars}", at)
        raise _Refused(f"unknown symbol {name!r}", at)

    def neg(self, v): return -v
    def add(self, a, b): return a + b
    def sub(self, a, b): return a - b
    def mul(self, a, b): return a * b

    def pow(self, v, k, at: int):
        _check_power(v.total_degree() if v.terms else 0, k, at)
        return v ** k

    def div(self, a, b, at: int):
        if b.is_zero():
            raise _Refused("division by zero", at)
        if not b.is_constant():
            raise _Refused("division is only defined by nonzero rational constants in a "
                           "multivariate context", at)
        return a.scale(_inverse(b.constant_value()))


def parse_operator(text: str, var: str = "x") -> UnivarOperator:
    """Parse a univariate operator with rational-function coefficients."""
    algebra = _UnivarAlgebra(var)
    return algebra.lift(_parse(text, algebra))


def parse_weyl_generators(text: str, variables) -> list[dreg.weyl.WeylElement]:
    """Parse ';'-separated generators of a left ideal in A_n."""
    return _parse(text, _WeylAlgebra(tuple(variables)), many=True)


def parse_ratfun(text: str, var: str = "x") -> RatFun:
    """Parse a rational function (an order-zero operator)."""
    algebra = _UnivarAlgebra(var)
    value = _parse(text, algebra)
    if not isinstance(value, UnivarOperator):
        return value
    if value.is_zero():
        return RatFun.zero(var)
    if value.order() > 0:
        raise ParseError("expected a coefficient, found a derivation",
                         *_position(text, _token_offset(text, 0)))
    return value.coeff(0)


def parse_polynomial(text: str, variables) -> MPoly:
    """Parse a polynomial in the coordinate variables."""
    gens = parse_weyl_generators(text, variables)
    if len(gens) != 1:
        raise ParseError("expected a single polynomial", 1, 1)
    w = gens[0]
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


def format_operator(p: UnivarOperator, deriv: str = "d") -> str:
    if p.is_zero():
        return "0"
    parts = []
    one = RatFun.one(p.var)
    for i in range(p.order(), -1, -1):
        c = p.coeff(i)
        if c.is_zero():
            continue
        dpart = "" if i == 0 else (deriv if i == 1 else f"{deriv}^{i}")
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
