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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .operators import UnivarOperator
from .polynomials import MPoly, RatFun, format_mpoly
from .weyl import WeylElement, coordinate_names, deriv_names, format_weyl


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
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
            value = self.algebra.pow(value, int(tok.text))
        return value

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return self.algebra.const(Fraction(int(tok.text)))
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


class _UnivarAlgebra:
    """Evaluation into operators with rational-function coefficients."""

    def __init__(self, var: str):
        self.var = var
        self.deriv_tokens = {"d", "d" + var}
        if var == "x":
            self.deriv_tokens.add("dx")

    def const(self, c: Fraction) -> UnivarOperator:
        return UnivarOperator.from_entries(self.var, [RatFun.const(self.var, c)])

    def symbol(self, tok: Token) -> UnivarOperator:
        if tok.text == self.var:
            return UnivarOperator.from_entries(self.var, [RatFun.x(self.var)])
        if tok.text in self.deriv_tokens:
            return UnivarOperator.derivation(self.var)
        if _DERIV_RE.fullmatch(tok.text):
            raise ParseError(f"derivation {tok.text!r} does not exist in a "
                             f"1-variable context (variable {self.var!r})",
                             tok.line, tok.col)
        raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col)

    def neg(self, v): return -v
    def add(self, a, b): return a + b
    def sub(self, a, b): return a - b
    def mul(self, a, b): return a.mul(b)
    def pow(self, v, k): return v ** k

    def div(self, a, b, tok: Token):
        if b.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        if b.order() > 0:
            raise ParseError("division by a derivation is not defined",
                             tok.line, tok.col)
        inv = RatFun.const(self.var, 1) / b.coeff(0)
        return a.mul(UnivarOperator.multiplication(inv))


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

    def const(self, c: Fraction) -> WeylElement:
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
    def pow(self, v, k): return v ** k

    def div(self, a, b, tok: Token):
        if b.is_zero():
            raise ParseError("division by zero", tok.line, tok.col)
        terms = b.terms
        zero = (0,) * self.n
        if list(terms.keys()) != [(zero, zero)]:
            raise ParseError(
                "division is only defined by nonzero rational constants in a "
                "multivariate context", tok.line, tok.col)
        return a.scale(Fraction(1) / terms[(zero, zero)])


def parse_operator(text: str, var: str = "x") -> UnivarOperator:
    """Parse a univariate operator with rational-function coefficients."""
    parser = _Parser(tokenize(text), _UnivarAlgebra(var))
    return parser.parse_single()


def parse_weyl_generators(text: str, variables) -> list[WeylElement]:
    """Parse ';'-separated generators of a left ideal in A_n."""
    parser = _Parser(tokenize(text), _WeylAlgebra(tuple(variables)))
    return parser.parse_list()


def parse_ratfun(text: str, var: str = "x") -> RatFun:
    """Parse a rational function (an order-zero operator)."""
    op = parse_operator(text, var)
    if op.is_zero():
        return RatFun.zero(var)
    if op.order() > 0:
        tokens = tokenize(text)
        raise ParseError("expected a coefficient, found a derivation",
                         tokens[0].line, tokens[0].col)
    return op.coeff(0)


def parse_polynomial(text: str, variables) -> MPoly:
    """Parse a polynomial in the coordinate variables."""
    gens = parse_weyl_generators(text, variables)
    if len(gens) != 1:
        raise ParseError("expected a single polynomial", 1, 1)
    w = gens[0]
    n = len(tuple(variables))
    zero = (0,) * n
    terms = {}
    for (alpha, beta), c in w.terms.items():
        if beta != zero:
            raise ParseError("expected a polynomial, found a derivation", 1, 1)
        terms[alpha] = c
    return MPoly(tuple(variables), terms)


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
    one = RatFun.const(p.var, 1)
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
