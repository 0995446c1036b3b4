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

In one variable a value is a polynomial in Q[x] (an MPoly) until it is divided
by a non-constant polynomial, a rational function in Q(x) after that, and an
operator only where it meets a derivation: f*d^k places f at order k, f*P
scales the coefficients of P, and only P*f needs the Leibniz product.  A power
is refused, before it is computed, when the exponent times the order or
degree of its base exceeds MAX_POWER.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .operators import UnivarOperator
from .polynomials import MPoly, RatFun, _inverse, format_mpoly
from .weyl import WeylElement, deriv_names


MAX_POWER = 1000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_DERIV_RE = re.compile(r"d[a-z0-9]*")
_TOKEN_RE = re.compile(r"\s+|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^();])")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup == "num":
            tokens.append(Token("num", chunk, line, col))
        elif m.lastgroup == "name":
            tokens.append(Token("name", chunk, line, col))
        elif m.lastgroup == "op":
            tokens.append(Token(chunk, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over tokens, generic in the value algebra."""

    def __init__(self, tokens: list[Token], algebra):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.advance()

    def parse_expr(self):
        negate = False
        if self.peek().kind in ("-", "+"):
            negate = self.advance().kind == "-"
        value = self.parse_term()
        if negate:
            value = self.algebra.neg(value)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            value = self.algebra.sub(value, rhs) if op == "-" else self.algebra.add(value, rhs)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            rhs = self.parse_factor()
            if tok.kind == "*":
                value = self.algebra.mul(value, rhs)
            else:
                value = self.algebra.div(value, rhs, tok)
        return value

    def parse_factor(self):
        value = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("num")
            value = self.algebra.pow(value, int(tok.text), tok)
        return value

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return self.algebra.const(int(tok.text))
        if tok.kind == "name":
            self.advance()
            return self.algebra.symbol(tok)
        if tok.kind == "(":
            self.advance()
            value = self.parse_expr()
            self.expect(")")
            return value
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def parse_single(self):
        value = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return value

    def parse_list(self):
        values = [self.parse_expr()]
        while self.peek().kind == ";":
            self.advance()
            values.append(self.parse_expr())
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return values


def _check_power(size: int, k: int, tok: Token) -> None:
    """Refuse v^k when k times max(1, order or degree of v) exceeds MAX_POWER."""
    if k * max(size, 1) > MAX_POWER:
        raise ParseError(f"power too large: the exponent times the order or degree "
                         f"of the base (at least 1) exceeds {MAX_POWER}", tok.line, tok.col)


class _UnivarAlgebra:
    """Evaluation into Q[x] until a division by a non-constant polynomial, into
    Q(x) after it; a value becomes an operator where it meets a derivation."""

    def __init__(self, var: str):
        self.var = var
        self.deriv_tokens = {"d", "d" + var}
        if var == "x":
            self.deriv_tokens.add("dx")
        self.unit = RatFun.one(var)
        self.one = self.unit.den

    def function(self, v) -> RatFun:
        """A polynomial or rational function as a RatFun."""
        return RatFun.from_coprime(v, self.one) if isinstance(v, MPoly) else v

    def lift(self, v) -> UnivarOperator:
        if isinstance(v, UnivarOperator):
            return v
        return UnivarOperator.multiplication(self.function(v))

    def const(self, c: int) -> MPoly:
        return MPoly.const((self.var,), c)

    def symbol(self, tok: Token):
        if tok.text == self.var:
            return MPoly.var((self.var,), self.var)
        if tok.text in self.deriv_tokens:
            return UnivarOperator.derivation(self.var)
        if _DERIV_RE.fullmatch(tok.text):
            raise ParseError(f"derivation {tok.text!r} does not exist in a "
                             f"1-variable context (variable {self.var!r})",
                             tok.line, tok.col)
        raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col)

    def neg(self, v): return -v

    def add(self, a, b):
        if isinstance(a, MPoly) and isinstance(b, MPoly):
            return a + b
        if isinstance(a, UnivarOperator) or isinstance(b, UnivarOperator):
            return self.lift(a) + self.lift(b)
        return self.function(a) + self.function(b)

    def sub(self, a, b): return self.add(a, -b)

    def mul(self, a, b):
        if isinstance(a, MPoly) and isinstance(b, MPoly):
            return a * b
        if isinstance(a, UnivarOperator):
            return a.mul(self.lift(b))
        if not isinstance(b, UnivarOperator):
            return self.function(a) * self.function(b)
        f = self.function(a)
        if b.coeffs and b.coeffs[-1] == self.unit and not any(b.coeffs[:-1]):
            # b = d^k: f lands at order k, with no coefficient products
            return UnivarOperator(self.var, b.coeffs[:-1] + (f,))
        return b.scale(f)

    def pow(self, v, k, tok: Token):
        if isinstance(v, MPoly):
            size = v.total_degree() if v.terms else 0
        else:
            op = self.lift(v)
            sizes = [len(op.coeffs) - 1]
            sizes += [max(c.num.total_degree(), c.den.total_degree()) for c in op.coeffs]
            size = max(sizes)
        _check_power(size, k, tok)
        return v ** k

    def div(self, a, b, tok: Token):
        if isinstance(b, UnivarOperator) and not b.is_zero():
            if b.order() > 0:
                raise ParseError("division by a derivation is not defined",
                                 tok.line, tok.col)
            b = b.coeff(0)
        if b.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        if isinstance(a, (MPoly, UnivarOperator)) and isinstance(b, MPoly) and b.is_constant():
            return a.scale(_inverse(b.constant_value()))
        if isinstance(a, UnivarOperator):
            return a * self.function(b) ** -1
        # a/b for a reduced a and a nonzero b: RatFun's cross-cancellation
        # runs the one gcd of a's numerator with b's
        return self.function(a) / self.function(b)


class _WeylAlgebra:
    """Evaluation into normal-ordered Weyl elements."""

    def __init__(self, variables: tuple):
        self.vars = tuple(variables)
        self.n = len(self.vars)
        for i, name in enumerate(self.vars):
            if name in self.vars[:i]:
                raise ValueError(f"variable {name!r} is repeated in {self.vars}")
            if _DERIV_RE.fullmatch(name):
                raise ValueError(f"variable {name!r} is named like a derivation")
        self.derivs = {}
        for i, name in enumerate(deriv_names(self.n)):
            self.derivs[name] = i
        for i, name in enumerate(self.vars):
            self.derivs.setdefault("d" + name, i)
        if self.n == 1:
            self.derivs.setdefault("d", 0)

    def const(self, c: int) -> WeylElement:
        return WeylElement.const(self.n, c)

    def symbol(self, tok: Token) -> WeylElement:
        if tok.text in self.vars:
            return WeylElement.x(self.n, self.vars.index(tok.text))
        if tok.text in self.derivs:
            return WeylElement.d(self.n, self.derivs[tok.text])
        if _DERIV_RE.fullmatch(tok.text) or re.fullmatch(r"[xyz][0-9]*", tok.text):
            raise ParseError(
                f"{tok.text!r} does not exist in the {self.n}-variable "
                f"context {self.vars}", tok.line, tok.col)
        raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col)

    def neg(self, v): return -v
    def add(self, a, b): return a + b
    def sub(self, a, b): return a - b
    def mul(self, a, b): return a * b

    def pow(self, v, k, tok: Token):
        _check_power(v.total_degree() if v.terms else 0, k, tok)
        return v ** k

    def div(self, a, b, tok: Token):
        if b.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        if not b.is_constant():
            raise ParseError(
                "division is only defined by nonzero rational constants in a "
                "multivariate context", tok.line, tok.col)
        return a.scale(_inverse(b.constant_value()))


def parse_operator(text: str, var: str = "x") -> UnivarOperator:
    """Parse a univariate operator with rational-function coefficients."""
    algebra = _UnivarAlgebra(var)
    return algebra.lift(_Parser(tokenize(text), algebra).parse_single())


def parse_weyl_generators(text: str, variables) -> list[WeylElement]:
    """Parse ';'-separated generators of a left ideal in A_n."""
    parser = _Parser(tokenize(text), _WeylAlgebra(tuple(variables)))
    return parser.parse_list()


def parse_ratfun(text: str, var: str = "x") -> RatFun:
    """Parse a rational function (an order-zero operator)."""
    tokens = tokenize(text)
    algebra = _UnivarAlgebra(var)
    value = _Parser(tokens, algebra).parse_single()
    if not isinstance(value, UnivarOperator):
        return algebra.function(value)
    if value.is_zero():
        return RatFun.zero(var)
    if value.order() > 0:
        raise ParseError("expected a coefficient, found a derivation",
                         tokens[0].line, tokens[0].col)
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
    num = f.num
    lead = num.univar_coeffs()[-1]
    negated = lead < 0
    if negated:
        num = -num
    num_s = format_mpoly(num)
    if len(num.terms) > 1:
        num_s = f"({num_s})"
    if f.is_polynomial():
        return num_s, negated
    den_s = format_mpoly(f.den)
    if len(f.den.terms) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}", negated


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
