"""Shared builders for randomized exact-arithmetic tests, the LocalLattice
reference that the polar lattices are checked against, the Q(x) views of
those polar lattices and of the curve module's d, the operator
algebra reference and the frozen lexer and descent that the parser is
checked against, the plain forms of the Q(x) kernel's shortcuts, the
univariate MPoly helpers and the Fraction RatFun that the integer Q(x)
kernel replaced, the
Fraction form of the log lattice's integer derivation images, the
bare-chart inclusion as a direct enumeration, the certificate scans that
the closed forms are checked against, the Fraction Buchberger
driver and general Weyl product that the integer driver and the
table-driven product are checked against, the oracles no verb reaches
(the packed normal form, Krull dimension, the inverse theta conversion, the
Weyl element of an operator, the univariate characteristic variety and the
trivial filtration's annihilator), the replay of recorded benchmark
reports, and small helpers only tests call."""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import pytest

import dreg.cli
from dreg.dmod import (CONORMAL_POINT, ZERO_SECTION, CharVariety, Component, CurveModule,
                       EquivalenceReport, _is_xi_homogeneous, _localize)
from dreg.errors import ContradictionError
from dreg.ideals import (DEFAULT_BUDGET, DEGREVLEX, BudgetExceeded, Ideal, Packing, TermOrder,
                         _divides, _integral, _integral_basis, _pseudo_remainder,
                         basis_dimension, groebner_basis, leading_term,
                         minimal_monomial_generators, radical_membership)
from dreg.lattices import Laurent, PolarLattice
from dreg.linalg import gauss_solve, mat_mul
from dreg.operators import ThetaOperator, UnivarOperator
from dreg.parser import MAX_POWER, ParseError
from dreg.polelattice import (Prop21Report, _breaking_element, _in_ideal, _symbol_monomials,
                              _window, theta_XZ_ideal)
from dreg.polynomials import (INF, MPoly, RatFun, _exact, _exquo, _format_rat, _grevlex_key,
                              _inverse, _join_terms, _make, _mul, _ratio, as_rat,
                              denominator_lcm, factor_rational, format_mpoly, monic_mpoly,
                              split_content, univar_gcd)
from dreg.systems import ConnectionSystem
from dreg.weyl import WeylElement, coordinate_names, deriv_names, symbol_names


def is_exact(c) -> bool:
    """The coefficient normal form: an int, or a Fraction that is not an
    integer.  Checked by type: 0.5 == Fraction(1, 2), so a value check would
    let a float through."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def exact_coefficients(elements) -> bool:
    """Every stored coefficient of some MPolys or WeylElements is in normal form."""
    return all(is_exact(c) for g in elements for c in g.terms.values())


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_mpoly(rng: random.Random, variables, degree: int = 3,
                 terms: int = 3) -> MPoly:
    variables = tuple(variables)
    out = {}
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, degree) for _ in variables)
        out[exps] = random_fraction(rng)
    return MPoly(variables, out)


def random_weyl(rng: random.Random, n: int, degree: int = 4,
                terms: int = 3) -> WeylElement:
    out = {}
    for _ in range(rng.randint(1, terms)):
        alpha = tuple(rng.randint(0, degree) for _ in range(n))
        beta = tuple(rng.randint(0, degree) for _ in range(n))
        out[alpha + beta] = random_fraction(rng)
    return WeylElement(n, out)


def random_ratfun(rng: random.Random, var: str = "x", degree: int = 3,
                  pole: int = 3) -> RatFun:
    num = random_mpoly(rng, (var,), degree, terms=degree + 1)
    k = rng.randint(0, pole)
    den = MPoly.monomial((var,), (k,))
    return RatFun(num, den)


def random_operator(rng: random.Random, var: str = "x", order: int = 3,
                    degree: int = 3, pole: int = 3) -> UnivarOperator:
    n = rng.randint(1, order)
    coeffs = [random_ratfun(rng, var, degree, pole) for _ in range(n)]
    coeffs.append(RatFun.const(var, 1))
    return UnivarOperator(var, coeffs)


def random_point(rng: random.Random, span: int = 6) -> Fraction:
    """A nonzero rational point."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, span), rng.randint(1, span))


def random_ratfun_with_poles(rng: random.Random, c: Fraction, var: str = "x",
                             degree: int = 3, pole: int = 2) -> RatFun:
    """Denominator (x - c)^k (x^2 + 1)^m: poles at c and off the rationals."""
    num = random_mpoly(rng, (var,), degree, terms=degree + 1)
    linear = MPoly.from_univar_coeffs(var, [-c, Fraction(1)])
    quadratic = MPoly.from_univar_coeffs(var, [1, 0, 1])
    den = linear ** rng.randint(0, pole) * quadratic ** rng.randint(0, 1)
    return RatFun(num, den)


def random_operator_with_poles(rng: random.Random, c: Fraction, var: str = "x",
                               order: int = 3, degree: int = 3,
                               pole: int = 2) -> UnivarOperator:
    n = rng.randint(1, order)
    coeffs = [random_ratfun_with_poles(rng, c, var, degree, pole) for _ in range(n)]
    coeffs.append(RatFun.const(var, 1))
    return UnivarOperator(var, coeffs)


def random_system(rng: random.Random, rank: int, var: str = "x",
                  degree: int = 2, pole: int = 2) -> ConnectionSystem:
    """A connection matrix with poles at 0, at a nonzero rational and at
    the roots of x^2 + 1; about a quarter of the entries are zero."""
    points = (Fraction(0), random_point(rng))
    rows = [[RatFun.zero(var) if rng.random() < 0.25
             else random_ratfun_with_poles(rng, rng.choice(points), var, degree, pole)
             for _ in range(rank)] for _ in range(rank)]
    return ConnectionSystem(rows, var)


def random_gauged_euler(rng: random.Random, rank: int, var: str = "x") -> ConnectionSystem:
    """An Euler system diag(a_i / x) moved by the gauge T = I + U, U strictly
    upper triangular with entries c / x^k: regular at 0 by construction, and
    its saturated lattice mixes exponents across components."""
    x = RatFun.x(var)
    zero, one = RatFun.zero(var), RatFun.const(var, 1)
    ident = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
    euler = [[RatFun.const(var, rng.randint(-3, 3)) / x if i == j else zero
              for j in range(rank)] for i in range(rank)]
    u = [[RatFun.const(var, rng.randint(-2, 2)) / x ** rng.randint(1, 2) if j > i else zero
          for j in range(rank)] for i in range(rank)]
    t = [[a + b for a, b in zip(r, s)] for r, s in zip(ident, u)]
    # T^-1 = I - U + U^2 - ..., since U is nilpotent
    t_inv, power = ident, ident
    for k in range(1, rank):
        power = mat_mul(power, u)
        t_inv = [[a + (-1) ** k * b for a, b in zip(r, s)] for r, s in zip(t_inv, power)]
    conj = mat_mul(mat_mul(t_inv, euler), t)
    drift = mat_mul(t_inv, [[e.derivative() for e in row] for row in t])
    # flow matrix T^-1 B T - T^-1 T', so A = T^-1 T' - T^-1 B T
    return ConnectionSystem([[d - c for c, d in zip(r, s)] for r, s in zip(conj, drift)], var)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)


# -- the reference lattice ------------------------------------------------------


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
    unit = RatFun(_unit_part(monic_mpoly(var, denominator_lcm(entries))))
    scaled = [f * unit for f in vec]
    # divide by the unit part of the gcd of the numerators
    g = MPoly.zero((var,))
    for f in scaled:
        if not f.is_zero():
            g = monic_gcd(g, f.num)
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


# -- the Q(x) views of the polar lattices -------------------------------------
# The library holds lattices and curve-module vectors as polar dicts
# {(exponent, component): c}.  These views write them as Q(x) vectors, so
# that they can meet the LocalLattice reference: they are the polar_part,
# PolarLattice.contains, .extended and .generators and
# CurveModule.partial_action the library used while its module side
# computed in Q(x).


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


def polar_contains(lattice: PolarLattice, vec: Sequence[RatFun]) -> bool:
    return not lattice.reduce(polar_part(vec))


def polar_extended(lattice: PolarLattice, vectors: Iterable[Sequence[RatFun]]) -> PolarLattice:
    """A copy with the vectors' polar parts inserted; the lattice is unchanged."""
    out = PolarLattice(lattice.dim, lattice.var)
    out.rows = dict(lattice.rows)
    for v in vectors:
        out.insert(polar_part(v))
    return out


def polar_generators(lattice: PolarLattice) -> list[tuple]:
    """lattice.basis(), each vector written as p/x^k."""
    var = (lattice.var,)
    gens = []
    for row in lattice.basis():
        k = -min(e for e, _ in row)
        nums: list[dict] = [{} for _ in range(lattice.dim)]
        for (e, j), c in row.items():
            nums[j][(e + k,)] = c
        den = MPoly.monomial(var, (k,))
        gens.append(tuple(RatFun(MPoly(var, t), den) for t in nums))
    return gens


def partial_action(module, vec: Sequence[RatFun]) -> tuple:
    """d(v) = v' + T v / x on a Q(x) vector of a CurveModule."""
    x = RatFun.x(module.var)
    out = []
    for i in range(module.dim):
        acc = vec[i].derivative()
        for j in range(module.dim):
            if not module.theta[i][j].is_zero() and not vec[j].is_zero():
                acc = acc + module.theta[i][j] * vec[j] / x
        out.append(acc)
    return tuple(out)


def frame(module) -> list[tuple]:
    """The coordinate vectors e_1 .. e_m of a CurveModule."""
    one, zero = RatFun.const(module.var, 1), RatFun.zero(module.var)
    return [tuple(one if j == i else zero for j in range(module.dim))
            for i in range(module.dim)]


def reference_filtration(module, levels: int, start=None) -> list[LocalLattice]:
    """F^0 .. F^levels of a CurveModule as LocalLattices, F^(k+1) = F^k + d F^k.

    F^0 is spanned by `start`, the whole frame by default; a smaller start
    need not contain O^m and realizes a coarser good filtration.
    """
    lattice = LocalLattice(module.dim, start if start is not None else frame(module))
    out = [lattice]
    for _ in range(levels):
        lattice = lattice.extended([partial_action(module, g) for g in lattice.generators()])
        out.append(lattice)
    return out


def reference_monomial_annihilates(module, a: int, b: int, levels, scan_levels: int) -> bool:
    """Does the symbol of x^a d^b kill Gr_F up to the scanned window?  Each
    d^b(g) is derived afresh from the level's generators."""
    x = RatFun.x(module.var)
    for k in range(scan_levels + 1):
        target = levels[k + b - 1] if k + b - 1 >= 0 else None
        for g in levels[k].generators():
            w = g
            for _ in range(b):
                w = partial_action(module, w)
            w = tuple(x ** a * f for f in w)
            if target is None:
                if not all(f.is_zero() for f in w):
                    return False
            elif not target.contains(w):
                return False
    return True


def reference_annihilator_monomials(module, bound: int, start=None) -> list[tuple]:
    """CurveModule.annihilator_monomials, scored on the reference levels."""
    levels = reference_filtration(module, 2 * bound, start)
    return [(total - b, b) for total in range(1, bound + 1) for b in range(total + 1)
            if reference_monomial_annihilates(module, total - b, b, levels, bound)]


# -- the frozen reference parser ------------------------------------------------
#
# The lexer and descent of dreg.parser as they were before it lexed in one
# regex pass, kept verbatim so that the references below share no parsing
# code with the library: a token carries its line and column, and the
# descent peeks and advances one token at a time.


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


class ReferenceWeylAlgebra:
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


def reference_parse_weyl_generators(text: str, variables) -> list[WeylElement]:
    """parse_weyl_generators on the frozen lexer and descent."""
    return _Parser(tokenize(text), ReferenceWeylAlgebra(tuple(variables))).parse_list()


# -- the reference parser algebra -------------------------------------------------


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


class ReferenceUnivarAlgebra(_UnivarAlgebra):
    """The all-operator algebra above under the shared _Parser, whose pow also
    receives the exponent token: powers are repeated Leibniz products, uncapped."""

    def pow(self, v, k, tok):
        result = UnivarOperator.from_entries(self.var, [1])
        for _ in range(k):
            result = result.mul(v)
        return result


def reference_parse_operator(text: str, var: str = "x") -> UnivarOperator:
    """parse_operator with every value evaluated as an operator."""
    return _Parser(tokenize(text), ReferenceUnivarAlgebra(var)).parse_single()


def reference_parse_ratfun(text: str, var: str = "x") -> RatFun:
    """parse_ratfun as the order-zero coefficient of the reference operator."""
    op = reference_parse_operator(text, var)
    if op.is_zero():
        return RatFun.zero(var)
    if op.order() > 0:
        tokens = tokenize(text)
        raise ParseError("expected a coefficient, found a derivation",
                         tokens[0].line, tokens[0].col)
    return op.coeff(0)


# -- the univariate MPoly helpers and the Fraction RatFun -------------------------
# The library's Q(x) runs on integer coefficient lists.  These are the MPoly
# forms of the univariate helpers it no longer needs, and, frozen as it was,
# the RatFun that held num/den as MPolys with Fraction coefficients and
# normalised through them: the reference the integer kernel is checked
# against.


def univar_coeffs(p: MPoly) -> list:
    """Dense coefficient list c0..cd for a univariate polynomial."""
    p._require_univar()
    if not p.terms:
        return []
    d = max(e[0] for e in p.terms)
    out = [0] * (d + 1)
    for e, c in p.terms.items():
        out[e[0]] = c
    return out


def leading_univar_coeff(p: MPoly):
    p._require_univar()
    return p.terms[max(p.terms)] if p.terms else 0


def monic_univar(p: MPoly) -> MPoly:
    lc = leading_univar_coeff(p)
    if not lc or lc == 1:
        return p
    return p.scale(_inverse(lc))


def univar_divmod(p: MPoly, other: MPoly) -> tuple[MPoly, MPoly]:
    p._require_univar()
    p._check(other)
    if other.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    a = univar_coeffs(p)
    b = univar_coeffs(other)
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
    var = p.vars[0]
    return (MPoly.from_univar_coeffs(var, q), MPoly.from_univar_coeffs(var, r))


def int_coeffs(p: MPoly) -> tuple:
    """The primitive integer coefficients of a nonzero univariate polynomial."""
    return split_content(p)[1]


def monic_gcd(a: MPoly, b: MPoly) -> MPoly:
    """univar_gcd on univariate MPolys, made monic; zero for two zeros."""
    g = univar_gcd(*(int_coeffs(p) if p else () for p in (a, b)))
    return monic_mpoly(a.vars[0], g) if g else a


def _ref_primitive_int_coeffs(p: MPoly) -> list[int]:
    """Dense integer coefficients with content removed."""
    coeffs = univar_coeffs(p)
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    return _ref_primitive([c.numerator * (denom_lcm // c.denominator) for c in coeffs])


def _ref_primitive(ints: list[int]) -> list[int]:
    """Integer coefficients divided by their content."""
    content = math.gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def _ref_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
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


def reference_univar_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Monic gcd of univariate polynomials.

    Uses the primitive pseudo-remainder sequence over Z so coefficient
    sizes stay bounded; the plain fraction Euclid blows up on the degrees
    that chart changes and lattice saturations produce.
    """
    a._require_univar()
    a._check(b)
    var = a.vars[0]
    if a.is_zero():
        return monic_univar(b) if not b.is_zero() else b
    if b.is_zero():
        return monic_univar(a)
    fa = _ref_primitive_int_coeffs(a)
    fb = _ref_primitive_int_coeffs(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _ref_primitive(_ref_pseudo_rem(fa, fb))
    return monic_univar(MPoly.from_univar_coeffs(var, fa))


def reference_squarefree_part(p: MPoly) -> MPoly:
    """Monic squarefree part p / gcd(p, p') of a univariate polynomial."""
    p._require_univar()
    if p.total_degree() <= 0:
        return MPoly.const(p.vars, 1) if p else p
    return monic_univar(_ref_quo(p, _ref_common_factor(p, p.diff(p.vars[0]))))


def reference_rational_roots(p: MPoly) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial, ascending."""
    p._require_univar()
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    ints = _ref_primitive_int_coeffs(p)
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


def reference_factor_rational(p: MPoly) -> tuple[list[tuple[Fraction, int]], MPoly]:
    """Split off rational linear factors of a univariate polynomial.

    Returns ((root, multiplicity) pairs, monic leftover with no rational
    roots).  No factorization beyond this is attempted: the leftover may be
    reducible over Q but is reported as a single untested factor.
    """
    p._require_univar()
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rest = monic_univar(p)
    out: list[tuple[Fraction, int]] = []
    for root in reference_rational_roots(rest):
        rest, mult = _ref_divide_out(rest, root)
        if mult:
            out.append((root, mult))
    return out, monic_univar(rest)


_REF_ZEROS: dict = {}       # variable name -> its zero ReferenceRatFun, built on first use
_REF_ONES: dict = {}        # variable name -> its constant 1, built on first use


class ReferenceRatFun:
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
            g = _ref_common_factor(num, den)
            num, den = _ref_quo(num, g), _ref_quo(den, g)
        self.num, self.den = _ref_monic_den(num, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def coprime(cls, num: MPoly, den: MPoly) -> "ReferenceRatFun":
        """num/den for a pair the caller knows to be coprime (den nonzero, and
        a unit when num is zero); only the denominator is made monic."""
        out = cls.__new__(cls)
        out.num, out.den = _ref_monic_den(num, den)
        return out

    @classmethod
    def const(cls, var: str, value) -> "ReferenceRatFun":
        return cls.coprime(MPoly.const((var,), value), MPoly.const((var,), 1))

    @classmethod
    def zero(cls, var: str) -> "ReferenceRatFun":
        """The zero function of `var`: one shared instance per variable, which
        no operation writes to."""
        zero = _REF_ZEROS.get(var)
        if zero is None:
            zero = _REF_ZEROS[var] = cls.const(var, 0)
        return zero

    @classmethod
    def one(cls, var: str) -> "ReferenceRatFun":
        """The constant 1 of `var`, shared like `zero`."""
        one = _REF_ONES.get(var)
        if one is None:
            one = _REF_ONES[var] = cls.const(var, 1)
        return one

    @classmethod
    def x(cls, var: str) -> "ReferenceRatFun":
        return cls.coprime(MPoly.var((var,), var), MPoly.const((var,), 1))

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
            other = ReferenceRatFun.const(self.var, other)
        if not isinstance(other, ReferenceRatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "ReferenceRatFun":
        if isinstance(other, ReferenceRatFun):
            return other
        if isinstance(other, (int, Fraction)):
            return ReferenceRatFun.const(self.var, other)
        if isinstance(other, MPoly):
            return ReferenceRatFun(other)
        raise TypeError(f"cannot combine ReferenceRatFun with {other!r}")

    # Henrici's cross-cancellation (Knuth, TAOCP vol. 2, 4.5.1): with both
    # operands reduced, only gcds of the denominators, or of a numerator with
    # the other denominator, can be nontrivial, and a unit argument has none.

    def __add__(self, other) -> "ReferenceRatFun":
        other = self._coerce(other)
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        g = _ref_common_factor(b, d)
        if g is None:
            # gcd(b, d) = 1 makes (ad + cb)/(bd) reduced
            num, den = a * d + c * b, b * d
        else:
            b1 = _ref_quo(b, g)
            num, den = a * _ref_quo(d, g) + c * b1, b1 * d
        if not num.terms:
            return ReferenceRatFun.zero(self.var)
        if g is not None:
            # a common factor of num and den = (b/g)(d/g) g can only divide g
            g = _ref_common_factor(num, g)
            num, den = _ref_quo(num, g), _ref_quo(den, g)
        return ReferenceRatFun.coprime(num, den)

    __radd__ = __add__

    def __neg__(self) -> "ReferenceRatFun":
        return ReferenceRatFun.coprime(-self.num, self.den)

    def __sub__(self, other) -> "ReferenceRatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ReferenceRatFun":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ReferenceRatFun":
        if isinstance(other, (int, Fraction)):
            # a scalar only scales the numerator: the pair stays coprime
            if not other or not self.num.terms:
                return ReferenceRatFun.zero(self.var)
            return ReferenceRatFun.coprime(self.num.scale(other), self.den)
        other = self._coerce(other)
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        return ReferenceRatFun._cross(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ReferenceRatFun":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        if not self.num.terms:
            return self
        return ReferenceRatFun._cross(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other) -> "ReferenceRatFun":
        return self._coerce(other) / self

    @staticmethod
    def _cross(a: MPoly, b: MPoly, c: MPoly, d: MPoly) -> "ReferenceRatFun":
        """(a/b)(c/d) for coprime pairs (a, b), (c, d) and nonzero a, c."""
        g1, g2 = _ref_common_factor(a, d), _ref_common_factor(c, b)
        return ReferenceRatFun.coprime(_ref_quo(a, g1) * _ref_quo(c, g2), _ref_quo(b, g2) * _ref_quo(d, g1))

    def __pow__(self, k: int) -> "ReferenceRatFun":
        # powers of a coprime pair stay coprime, and den^k stays monic
        if k >= 0:
            return ReferenceRatFun.coprime(self.num ** k, self.den ** k)
        if self.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return ReferenceRatFun.coprime(self.den ** -k, self.num ** -k)

    def derivative(self) -> "ReferenceRatFun":
        x = self.var
        return ReferenceRatFun(self.num.diff(x) * self.den - self.num * self.den.diff(x),
                      self.den * self.den)

    # -- valuations ---------------------------------------------------------

    def ord_at(self, c) -> int | float:
        """Order of vanishing at x = c; negative at a pole, +inf for 0."""
        if self.is_zero():
            return INF
        c = as_rat(c)
        return _ref_mult_at(self.num, c) - _ref_mult_at(self.den, c)

    # -- substitutions --------------------------------------------------------

    def shift(self, c) -> "ReferenceRatFun":
        """Substitute x -> x + c; an automorphism of Q[x] keeps the pair
        coprime."""
        c = as_rat(c)
        if not c:
            return self
        var = self.var
        return ReferenceRatFun.coprime(
            MPoly.from_univar_coeffs(var, _ref_taylor_shift(univar_coeffs(self.num), c)),
            MPoly.from_univar_coeffs(var, _ref_taylor_shift(univar_coeffs(self.den), c)))

    def invert_var(self, new_var: str) -> "ReferenceRatFun":
        """Substitute x -> 1/t, returning a rational function of t."""
        nd = self.num.total_degree() if not self.num.is_zero() else 0
        dd = self.den.total_degree()
        num_rev = _ref_reverse_univar(self.num, new_var, int(nd) if self.num else 0)
        den_rev = _ref_reverse_univar(self.den, new_var, int(dd))
        # num(1/t)/den(1/t) = t^(dd-nd) * rev(num)/rev(den); the reversals keep
        # their degrees, so neither has a factor t, and a common root of theirs
        # would invert to one of num and den: the pair stays coprime
        tpow = int(dd) - (int(nd) if self.num else 0)
        t = (new_var,)
        if tpow >= 0:
            return ReferenceRatFun.coprime(num_rev * MPoly.monomial(t, (tpow,)), den_rev)
        return ReferenceRatFun.coprime(num_rev, den_rev * MPoly.monomial(t, (-tpow,)))

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
        return f"ReferenceRatFun({self!s})"


def _ref_common_factor(p: MPoly, q: MPoly) -> MPoly | None:
    """Monic gcd(p, q) of nonzero univariate polynomials, None standing for 1.

    With a single-term argument (a constant, a power of x) the gcd is
    x^min of the valuations, read off without `reference_univar_gcd`.
    """
    if len(p.terms) == 1 or len(q.terms) == 1:
        k = min(min(p.terms)[0], min(q.terms)[0])
        return MPoly.monomial(p.vars, (k,)) if k else None
    g = reference_univar_gcd(p, q)
    return g if g.total_degree() > 0 else None


def _ref_quo(p: MPoly, g: MPoly | None) -> MPoly:
    """p / g for a monic divisor g, None standing for 1."""
    if g is None:
        return p
    if len(g.terms) == 1:
        ((k,),) = g.terms
        return MPoly.from_univar_coeffs(p.vars[0], univar_coeffs(p)[k:])
    return univar_divmod(p, g)[0]


def reference_denominator_lcm(fs: Iterable[ReferenceRatFun]) -> MPoly:
    """Monic lcm of the denominators of some rational functions in one variable."""
    dens = (f.den for f in fs)
    lcm = next(dens)
    for den in dens:
        lcm = lcm * _ref_quo(den, _ref_common_factor(lcm, den))
    return lcm


def _ref_mult_at(p: MPoly, c: Fraction) -> int:
    """Multiplicity of the root x = c in a nonzero univariate polynomial."""
    if not c:
        return min(e[0] for e in p.terms)
    return _ref_divide_out(p, c)[1]


def _ref_divide_out(p: MPoly, c: Fraction) -> tuple[MPoly, int]:
    """(q, m) with p = (x - c)^m q and q(c) != 0, for nonzero univariate p."""
    lin = MPoly.from_univar_coeffs(p.vars[0], [-c, 1])
    mult = 0
    while True:
        q, r = univar_divmod(p, lin)
        if r:
            return p, mult
        p = q
        mult += 1


def _ref_monic_den(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """num/den rescaled so that the nonzero denominator is monic."""
    lc = den.terms[max(den.terms)]
    if lc == 1:
        return num, den
    inv = _inverse(lc)
    return num.scale(inv), den.scale(inv)


def _ref_taylor_shift(a: list, c: Fraction) -> list:
    """Dense coefficients of p(x + c) from those of p, by repeated synthetic
    division (Taylor shift) on integers.  At c = u/v, L v^D p(y/v), with L the
    lcm of the coefficients' denominators, has integer coefficients
    L v^(D-i) a_i; its shift by u is L v^D p((y + u)/v), whose coefficient i
    over L v^(D-i) is that of p(x + c) (von zur Gathen & Gerhard 1997).
    Unless L = v = 1 the quotients come back as Fractions, which
    `MPoly.from_univar_coeffs` brings to normal form."""
    d = len(a) - 1
    if d < 1:
        return a
    u, v = c.numerator, c.denominator
    lcm = math.lcm(*(ai.denominator for ai in a))
    scales = [lcm * v ** (d - i) for i in range(d + 1)]
    b = [ai.numerator * (s // ai.denominator) for ai, s in zip(a, scales)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            b[j] += u * b[j + 1]
    if lcm == v == 1:
        return b
    return [Fraction(bi, s) for bi, s in zip(b, scales)]


def _ref_reverse_univar(p: MPoly, new_var: str, degree: int) -> MPoly:
    coeffs = univar_coeffs(p)
    coeffs += [0] * (degree + 1 - len(coeffs))
    return MPoly.from_univar_coeffs(new_var, list(reversed(coeffs)))


# -- the plain forms of the Q(x) kernel ---------------------------------------------


def reference_mul(p: MPoly, q: MPoly) -> MPoly:
    """The generic double loop of MPoly.__mul__, for operands of any shape."""
    res: dict[tuple, Fraction] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = res.get(e, Fraction(0)) + c1 * c2
            if s:
                res[e] = s
            else:
                res.pop(e, None)
    return MPoly(p.vars, res)


def reference_pow(p: MPoly, k: int) -> MPoly:
    """p^k as k products, starting from 1."""
    result = MPoly.const(p.vars, 1)
    for _ in range(k):
        result = reference_mul(result, p)
    return result


def reference_format_mpoly(p: MPoly, key=_grevlex_key) -> str:
    """format_mpoly with the monomial text written inline, as it was before
    the monomial helper: the oracle that both keep one spelling."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: key(kv[0]), reverse=True)
    return _join_terms((coeff > 0, _format_rat(abs(coeff)),
                        "*".join(name if e == 1 else f"{name}^{e}"
                                 for name, e in zip(p.vars, exps) if e))
                       for exps, coeff in items)


def reference_covers(ideal: Ideal, comps: list, budget: int) -> bool:
    """dmod._covers with every one-generator-per-component product built
    before the first radical membership test."""
    products = [MPoly.const(ideal.vars, 1)]
    for comp in comps:
        products = [p * g for p in products for g in comp.ideal.gens]
    return all(radical_membership(p, ideal, budget) for p in products)


def compose_univar(p: MPoly, inner: MPoly) -> MPoly:
    """Horner evaluation of p at another univariate polynomial."""
    result = MPoly.zero(inner.vars)
    for c in reversed(univar_coeffs(p)):
        result = result * inner + MPoly.const(inner.vars, c)
    return result


def reference_shift(f: RatFun, c) -> RatFun:
    """x -> x + c by Horner composition, normalised by the RatFun gcd."""
    inner = MPoly.from_univar_coeffs(f.var, [c, 1])
    return RatFun(compose_univar(f.num, inner), compose_univar(f.den, inner))


def reference_taylor_shift(a: list, c: Fraction) -> list:
    """Dense coefficients of p(x + c) from those of p, in place, by repeated
    synthetic division with a Fraction product in every update."""
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] = as_rat(a[j] + c * a[j + 1])
    return a


def reference_taylor_shift_ratfun(f: RatFun, c) -> RatFun:
    """RatFun.shift on the Fraction Taylor shift above."""
    c = as_rat(c)
    if not c:
        return f
    num, den = (MPoly.from_univar_coeffs(f.var, reference_taylor_shift(univar_coeffs(p), c))
                for p in (f.num, f.den))
    return RatFun(num, den)


def reference_scale_var(f: RatFun, c) -> RatFun:
    """x -> c x by Horner composition, normalised by the RatFun gcd."""
    inner = MPoly.from_univar_coeffs(f.var, [0, c])
    return RatFun(compose_univar(f.num, inner), compose_univar(f.den, inner))


def reference_monic_orders(p: UnivarOperator, point) -> list:
    """ord_0 of the coefficients of the localized operator made monic by
    dividing every coefficient by the leading one."""
    local = _localize(p, point).monic()
    return [c.ord_at(0) for c in local.coeffs]


def reference_at_infinity(p: UnivarOperator, new_var: str = "t") -> UnivarOperator:
    """x = 1/t, d_x = -t^2 d_t with the powers of -t^2 d_t built as Leibniz
    products."""
    n = p.order()
    t2d = UnivarOperator.from_entries(new_var, [RatFun.zero(new_var),
                                                -RatFun.x(new_var) ** 2])
    powers = [UnivarOperator.from_entries(new_var, [1])]
    for _ in range(n):
        powers.append(powers[-1].mul(t2d))
    total = UnivarOperator.zero(new_var)
    for i, b in enumerate(p.coeffs):
        if not b.is_zero():
            total = total + powers[i].scale(b.invert_var(new_var))
    return total


def reference_ratfun(num: MPoly, den: MPoly | None = None) -> "ReferenceRatFun":
    """The RatFun constructor with its own branches: a constant denominator
    scaled away, a denominator x^k cancelled by valuations, any other one
    by univar_gcd and univar_divmod, then made monic."""
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
        g = reference_univar_gcd(num, den)
        if g.total_degree() > 0:
            num, _ = univar_divmod(num, g)
            den, _ = univar_divmod(den, g)
        lc = leading_univar_coeff(den)
        if lc != 1:
            inv = Fraction(1) / lc
            num = num.scale(inv)
            den = den.scale(inv)
    out = ReferenceRatFun.__new__(ReferenceRatFun)
    out.num = num
    out.den = den
    return out


def reference_determinant(matrix, zero, one, is_zero):
    """Fraction-free-ish Gaussian determinant over a field; each pivot is
    inverted as `one / pivot`, so integer entries with a Fraction `one`
    stay exact."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = one
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            return zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        pv = rows[c][c]
        det = det * pv
        for i in range(c + 1, n):
            if not is_zero(rows[i][c]):
                f = rows[i][c] * (one / pv)
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[c])]
    if sign < 0:
        det = zero - det
    return det


# -- helpers only tests call --------------------------------------------------------


def from_coeffs(var: str, num_coeffs: Sequence, den_coeffs: Sequence = (1,)) -> RatFun:
    """The reduced RatFun with these dense numerator and denominator coefficients."""
    return RatFun(MPoly.from_univar_coeffs(var, num_coeffs),
                  MPoly.from_univar_coeffs(var, den_coeffs))


def degree_in(p: MPoly, name: str):
    """Degree of p in one of its variables; -inf for the zero polynomial."""
    if not p.terms:
        return -INF
    idx = p.vars.index(name)
    return max(e[idx] for e in p.terms)


def poly_degree(alpha: tuple) -> int:
    """Polynomial degree of the Laurent monomial x^alpha: its positive exponents."""
    return sum(max(0, a) for a in alpha)


def apply_operator(p: UnivarOperator, f: RatFun) -> RatFun:
    """The operator acting on a rational function."""
    total = RatFun.zero(p.var)
    deriv = f
    for c in p.coeffs:
        if not c.is_zero():
            total = total + c * deriv
        deriv = deriv.derivative()
    return total


def apply_weyl(a: WeylElement, p: MPoly) -> MPoly:
    """The Weyl element acting on a polynomial in the coordinates."""
    n = a.n
    if len(p.vars) != n:
        raise ValueError("polynomial has wrong number of variables")
    result = MPoly.zero(p.vars)
    for e, c in a.terms.items():
        q = p
        for i, b in enumerate(e[n:]):
            for _ in range(b):
                q = q.diff(p.vars[i])
                if q.is_zero():
                    break
        if q.is_zero():
            continue
        result = result + MPoly.monomial(p.vars, e[:n], c) * q
    return result


def scale_ratfun_var(f: RatFun, c) -> RatFun:
    """Substitute x -> c*x for nonzero rational c; an automorphism of Q[x]
    keeps the pair coprime."""
    c = as_rat(c)
    if not c:
        raise ValueError("scale by zero")
    if not f:
        return f
    num, den = (MPoly.from_univar_coeffs(f.var, [a * c ** i for i, a in
                                                 enumerate(univar_coeffs(q))])
                for q in (f.num, f.den))
    # the pair stays coprime: only the contents are split off, with no gcd
    (cn, n), (cd, d) = split_content(num), split_content(den)
    return _make(f.var, _exact(Fraction(cn) / cd), n, d)


def scale_operator_var(p: UnivarOperator, c) -> UnivarOperator:
    """Substitute x -> c*x (so d -> d/c) for nonzero rational c."""
    c = as_rat(c)
    return UnivarOperator(p.var, [scale_ratfun_var(b, c) / (c ** i)
                                  for i, b in enumerate(p.coeffs)])


def evaluate_mpoly(p: MPoly, point: dict) -> Fraction:
    """The value of p at a point that names every variable."""
    idxs = [(p.vars.index(name), as_rat(v)) for name, v in point.items()]
    if len(idxs) != len(p.vars):
        raise ValueError("evaluate needs a value for every variable")
    total = Fraction(0)
    for e, c in p.terms.items():
        val = c
        for i, v in idxs:
            val *= v ** e[i]
        total += val
    return total


def evaluate_ratfun(f: RatFun, c) -> Fraction:
    c = as_rat(c)
    dv = evaluate_mpoly(f.den, {f.var: c})
    if not dv:
        raise ZeroDivisionError(f"pole at {c}")
    return evaluate_mpoly(f.num, {f.var: c}) / dv


def is_monic(p: UnivarOperator) -> bool:
    return bool(p.coeffs) and p.coeffs[-1] == RatFun.const(p.var, 1)


def spy(monkeypatch, owner, name) -> list:
    """The list that gets the positional arguments of each call of owner.name."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def require_agreement(report: EquivalenceReport) -> EquivalenceReport:
    if not report.agree:
        raise ContradictionError(
            f"Fuchs and graded-annihilator verdicts disagree at {report.point}",
            details=report.to_dict())
    return report


def conjugate(system: ConnectionSystem, g) -> ConnectionSystem:
    """Gauge by a constant invertible matrix: A -> g A g^-1."""
    m = system.rank
    var = system.var
    gq = [[Fraction(e) for e in row] for row in g]
    # column j of g^-1 solves g y = e_j
    inv_cols = [gauss_solve(gq, [Fraction(i == j) for i in range(m)],
                            Fraction(0), Fraction(1))[1] for j in range(m)]
    if None in inv_cols:
        raise ValueError("gauge matrix is singular")
    rat = [[RatFun.const(var, e) for e in row] for row in gq]
    ratinv = [[RatFun.const(var, col[i]) for col in inv_cols] for i in range(m)]
    prod = mat_mul(mat_mul(rat, [list(r) for r in system.matrix]), ratinv)
    return ConnectionSystem(prod, var)


def reference_apply_derivation(lattice, l: int, elem: dict) -> dict:
    """Action of x_l d_l (l < r) or d_l (l >= r) twisted by gamma, in
    Fraction arithmetic: the log lattice's scans work on integer multiples
    of it."""
    chart = lattice.chart
    out: dict = {}

    def add(key, c):
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (alpha, j), c in elem.items():
        if l < chart.r:
            if alpha[l]:
                add((alpha, j), c * alpha[l])
        else:
            if alpha[l]:
                shifted = tuple(a - (1 if i == l else 0)
                                for i, a in enumerate(alpha))
                add((shifted, j), c * alpha[l])
        for i in range(lattice.rank):
            entry = lattice.gammas[l][i][j]
            for e, ce in entry.terms.items():
                shifted = tuple(a + g for a, g in zip(alpha, e))
                add((shifted, i), c * ce)
    return out


def reference_bare_inclusion(chart, bound: int) -> tuple:
    """The annihilating monomials of the bare chart pole module up to the
    bound, which prop21_inclusion lists once the window scan has certified
    the ideal: every symbol monomial up to the bound that a minimal
    generator of the log-symbol ideal divides."""
    generators = minimal_monomial_generators(theta_XZ_ideal(chart))
    return tuple(str(MPoly.monomial(chart.ring, a + b))
                 for a, b in _symbol_monomials(chart, bound)
                 if _in_ideal(generators, a + b))


# -- the frozen certificate scans ------------------------------------------------
# goodness_scan, check_good_filtration and the LogLattice path of
# prop21_inclusion as they ran before their checks became closed forms: each
# still runs every check it reports.  check_good_filtration has left the
# library, and its scan, on the Q(x) views, is the test of the lemma it
# certified.


def reference_goodness_scan(chart, bound: int = 6) -> tuple[bool, list]:
    """Check that first-order operators generate each new level from r on:
    every top generator of F^(j+1) is a single derivation applied to a
    generator of F^j."""
    transcript = []
    ok_all = True
    for j in range(chart.r, bound + 1):
        for beta in chart.monomials_with_pole(j + 1, 0):
            if any(beta[i] > 0 for i in range(chart.n)):
                continue
            pick = next((i for i in range(chart.r) if beta[i] <= -2), None)
            ok = pick is not None
            if ok:
                inner = tuple(b + (1 if i == pick else 0)
                              for i, b in enumerate(beta))
                # d_pick x^inner = (inner_pick) x^beta, coefficient nonzero
                ok = chart.pole_order(inner) == j and inner[pick] != 0
            if not ok:
                ok_all = False
            transcript.append({"level": j + 1, "generator": list(beta),
                               "derivation": pick, "ok": ok})
    return ok_all, transcript


def reference_check_good_filtration(p: UnivarOperator, bound: int = 8,
                                    point=0) -> tuple[bool, list]:
    """Certify F^1 D . F^j = F^(j+1) for n <= j <= bound on D/DP.

    Each spanning generator of F^(j+1) is exhibited inside the local-ring
    span of the F^j generators and their single d-applications; that span
    contains O^m, as F^j does, so it is a polar lattice.
    """
    local = _localize(p, point)
    module = CurveModule.from_operator(local)
    gens = [polar_generators(lattice) for lattice in module.filtration_lattices(bound + 1)]
    transcript = []
    ok = True
    for j in range(module.dim, bound + 1):
        span = polar_extended(PolarLattice(module.dim, module.var),
                              gens[j] + [partial_action(module, g) for g in gens[j]])
        for idx, g in enumerate(gens[j + 1]):
            inside = polar_contains(span, g)
            if not inside:
                ok = False
            transcript.append({"degree": j + 1, "generator": idx, "inside": inside})
    return ok, transcript


def reference_lattice_annihilators(lattice, chart, window: tuple, bound: int):
    """Exponents (a, b) of the x^a d^b of degree <= bound that annihilate the
    window, in scan order: every annihilator, in the ideal or not.  x^a d^b
    annihilating the window makes x^a' d^b annihilate it for every a' >= a
    (pole orders only fall as a grows), and a comes before a', so a
    dominated a is not scanned."""
    annihilating: dict = {}
    for a, b in _symbol_monomials(chart, bound):
        lows = annihilating.setdefault(b, [])
        if not any(all(s <= t for s, t in zip(low, a)) for low in lows):
            if _breaking_element(lattice, window, a, b) is not None:
                continue
            lows.append(a)
        yield a, b


def reference_lattice_inclusion(lattice, chart, bound: int = 4) -> Prop21Report:
    """prop21_inclusion on a LogLattice with every symbol monomial scanned:
    the annihilators in the ideal are listed, those outside are the
    violations."""
    if lattice.chart != chart:
        raise ValueError(f"lattice lives on chart {lattice.chart}, not on {chart}")
    monomials = reference_lattice_annihilators(
        lattice, chart, _window(chart, chart.r + bound, bound), bound)
    generators = minimal_monomial_generators(theta_XZ_ideal(chart))
    found: list[str] = []
    violations: list[str] = []
    for a, b in monomials:
        mono = str(MPoly.monomial(chart.ring, a + b))
        (found if _in_ideal(generators, a + b) else violations).append(mono)
    return Prop21Report(not violations, tuple(found), tuple(violations))


# -- the oracles the library no longer holds ------------------------------------
# Functions that no verb reaches, moved out of the library as they ran there:
# the packed normal form that `_pseudo_remainder` is checked through, Krull
# dimension from a fresh basis, the inverse of the theta conversion, the Weyl
# element of an operator, the univariate characteristic variety and the
# annihilator of the trivial filtration.


def normal_form(f, basis: Sequence, order: TermOrder = DEGREVLEX):
    """Full remainder of f on (left) division by the basis (every term
    reduced): integer pseudo-division (`_pseudo_remainder`) on the packed
    primitive integer multiples of f and the basis, with the remainder
    divided once per term into exact rationals in normal form."""
    if not basis or f.is_zero():
        return f
    pk = Packing(order, f)
    basis, leads = _integral_basis(basis, pk)
    ints, c = _integral(f.terms)
    r, m = _pseudo_remainder(pk.pack(ints), basis, leads, pk)
    c /= m
    return pk.unpack({e: _exact(v * c) for e, v in r.items()})


def krull_dimension(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of V(I) from its DEGREVLEX reduced basis; -1 for the unit
    ideal."""
    return basis_dimension(ideal.vars, groebner_basis(ideal, DEGREVLEX, budget))


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int) -> int:
    """Stirling numbers of the second kind: theta^n = sum S(n,k) x^k d^k."""
    if n == k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return stirling_second(n - 1, k - 1) + k * stirling_second(n - 1, k)


def from_theta_form(t: ThetaOperator) -> UnivarOperator:
    """Inverse of `to_theta_form`: collapse theta powers back to x^k d^k."""
    if not t.coeffs:
        return UnivarOperator.zero(t.var)
    n = t.order()
    var = t.var
    x = RatFun.x(var)
    out = [RatFun.zero(var) for _ in range(n + 1)]
    for i in range(n + 1):
        a = t.coeff(i)
        if a.is_zero():
            continue
        for k in range(i + 1):
            s = stirling_second(i, k)
            if s:
                out[k] = out[k] + a * s * x ** k
    return UnivarOperator(var, out)


def to_weyl(p: UnivarOperator) -> WeylElement:
    """The Weyl element c * P for c the monic lcm of the denominators of
    P's coefficients (`denominator_lcm`): P with its denominators cleared
    on the left."""
    if p.is_zero():
        return WeylElement.zero(1)
    cleared = denominator_lcm(p.coeffs)
    terms: dict[tuple, Fraction] = {}
    for i, c in enumerate(p.coeffs):
        scale = _ratio(c.scale, cleared[-1])
        for e, v in enumerate(_mul(c.numer, _exquo(cleared, c.denom))):
            coeff = _exact(scale * v)
            if coeff:
                terms[(e, i)] = coeff
    return WeylElement(1, terms)


def characteristic_variety_univar(p: UnivarOperator) -> CharVariety:
    """Ch(D/DP) = V(b_n(x) xi^n) with its fiber decomposition over Q."""
    if p.is_zero():
        raise ValueError("zero operator")
    w = to_weyl(p)
    n = p.order()
    var = p.var
    sym = symbol_names(1)[0] if var == "x" else f"xi_{var}"
    ring = (var, sym)
    # the cleared leading coefficient is the d^n part of the Weyl element
    lead_poly = MPoly((var,), {(e,): c for (e, i), c in w.terms.items() if i == n})
    symbol = lead_poly.extend(ring) * MPoly.monomial(ring, (0, n))
    ideal = Ideal(ring, [symbol])
    comps = [Component(ZERO_SECTION, f"V({sym})",
                       Ideal(ring, [MPoly.var(ring, sym)]))]
    roots, rest = (factor_rational(split_content(lead_poly)[1])
                   if lead_poly.total_degree() > 0 else ([], ()))
    for root in roots:
        lin = MPoly.from_univar_coeffs(var, [-root, Fraction(1)]).extend(ring)
        comps.append(Component(CONORMAL_POINT, f"V({lin})", Ideal(ring, [lin])))
    if len(rest) > 1:
        leftover = monic_mpoly(var, rest)
        comps.append(Component(CONORMAL_POINT, f"V({leftover})",
                               Ideal(ring, [leftover.extend(ring)])))
    return CharVariety(ideal, tuple(comps), covered=True,
                       conical=_is_xi_homogeneous(symbol, 1))


def trivial_filtration_annihilator(n: int, rank: int) -> Ideal:
    """Graded annihilator of the stationary filtration on the trivial
    rank-m connection: the ideal of all symbols (xi_1, ..., xi_n).

    Each derivation kills the frame of the trivial connection, so F stays
    put in every degree and the graded module lives in degree zero only.
    """
    if n < 1 or rank < 1:
        raise ValueError("need n >= 1 and rank >= 1")
    ring = coordinate_names(n) + symbol_names(n)
    return Ideal(ring, [MPoly.var(ring, s) for s in symbol_names(n)])


# -- the Fraction Buchberger driver -----------------------------------------------
# The shared driver as it ran on Fraction coefficients throughout: the oracle
# that the integer driver's bases, remainders and pop counts are checked against.


def _exp_sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def reference_normal_form(f, basis: Sequence, order: TermOrder = DEGREVLEX,
                          leads: Sequence | None = None):
    """Full remainder of f on (left) division by the basis (every term reduced).

    `leads` are the basis' leading terms when the caller keeps them.  The
    division runs inside one term map: a step subtracts c * monomial * g
    from it in place, or moves its leading term to the remainder.
    """
    if not basis:
        return f
    if leads is None:
        leads = [leading_term(g, order) for g in basis]
    key = order.key
    remainder = f.scale(0)
    done, rest = remainder.terms, dict(f.terms)
    rank = {e: key(e) for e in rest}      # order key of every term met
    while rest:
        e = max(rest, key=rank.__getitem__)
        for g, (ge, gc) in zip(basis, leads):
            if _divides(ge, e):
                product = f._with({_exp_sub(e, ge): Fraction(rest[e]) / gc}) * g
                for u, v in product.terms.items():
                    s = rest.get(u)
                    if s is None:
                        rest[u] = -v
                        if u not in rank:
                            rank[u] = key(u)
                    elif s == v:
                        del rest[u]
                    else:
                        rest[u] = s - v
                break
        else:
            done[e] = rest.pop(e)
    return remainder


def reference_buchberger_basis(gens: Iterable, order: TermOrder,
                               budget: int = DEFAULT_BUDGET) -> list:
    """Reduced (left) Gröbner basis under `order` of the (left) ideal the
    generators span.

    The schedule is normal selection: the pending S-pair whose lcm of
    leading monomials is smallest in the term order comes first, ties going
    to the older pair.  Buchberger's chain criterion drops (i, j) when some
    basis element's leading monomial divides lcm(i, j) and neither (i, k)
    nor (j, k) is still pending; it holds in A_n as in Q[vars].  The
    coprimality criterion is used only for commutative elements: in A_n the
    commutator of elements with disjoint leading supports need not vanish.
    `budget` counts the pairs taken off the queue, those a criterion drops
    included.  A nonzero constant in the basis ends the loop at once: the
    reduced basis of the unit ideal is [1].
    """
    basis, leads = [], []           # the elements and their leading terms
    queue, pending = [], set()      # heap of (order key of lcm, j, i, lcm); the (i, j) in it

    def insert(g) -> bool:
        """Add g and its pairs; True when g is a constant."""
        lead = leading_term(g, order)
        j = len(basis)
        for i, (fe, _) in enumerate(leads):
            lcm = _exp_lcm(fe, lead[0])
            heapq.heappush(queue, (order.key(lcm), j, i, lcm))
            pending.add((i, j))
        basis.append(g)
        leads.append(lead)
        return not any(lead[0])

    for g in gens:
        if not g.is_zero() and insert(g):
            return [g._with({leads[-1][0]: Fraction(1)})]
    processed = 0
    while queue:
        processed += 1
        if processed > budget:
            raise BudgetExceeded(
                f"Buchberger budget of {budget} S-pairs exceeded")
        _, j, i, lcm = heapq.heappop(queue)
        pending.discard((i, j))
        (fe, fc), (ge, gc) = leads[i], leads[j]
        # Buchberger's coprimality criterion, sound only where elements commute.
        if basis[i].commutative and lcm == tuple(map(add, fe, ge)):
            continue
        if any(k != i and k != j and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending and _divides(ke, lcm)
               for k, (ke, _) in enumerate(leads)):
            continue
        s = (basis[i]._with({_exp_sub(lcm, fe): Fraction(1) / fc}) * basis[i]
             - basis[j]._with({_exp_sub(lcm, ge): Fraction(1) / gc}) * basis[j])
        r = reference_normal_form(s, basis, order, leads)
        if not r.is_zero() and insert(r):
            return [r._with({leads[-1][0]: Fraction(1)})]
    return _reference_reduce_basis(basis, leads, order)


def _reference_reduce_basis(basis: list, leads: list, order: TermOrder) -> list:
    # Minimalize: drop generators whose leading monomial another one divides.
    keep = []
    for i, (e, _) in enumerate(leads):
        if any(j != i and _divides(f, e) and (f != e or j < i)
               for j, (f, _) in enumerate(leads)):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    lead = [leads[i] for i in keep]
    # Fully reduce each element against the others and make monic; no other
    # leading monomial divides its own, so the leading term stays.
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reference_normal_form(g, others, order, lead[:i] + lead[i + 1:]) if others else g
        reduced.append((order.key(lead[i][0]), r.scale(Fraction(1) / lead[i][1])))
    return [r for _, r in sorted(reduced, key=lambda kr: kr[0])]


def reference_weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product in A_n by the general contraction, for every
    pair of terms."""
    a._check(b)
    n = a.n
    res: dict[tuple, Fraction] = {}
    for ea, ca in a.terms.items():
        alpha, beta = ea[:n], ea[n:]
        for eb, cb in b.terms.items():
            gamma, delta = eb[:n], eb[n:]
            base = ca * cb
            # distribute the per-variable contraction d^beta_i x^gamma_i
            stack = [((), 1)]
            for bi, gi in zip(beta, gamma):
                stack = [(ks + (k,), f * math.factorial(k) * math.comb(bi, k) * math.comb(gi, k))
                         for ks, f in stack for k in range(min(bi, gi) + 1)]
            exp_x = tuple(map(add, alpha, gamma))
            exp_d = tuple(map(add, beta, delta))
            for ks, f in stack:
                key = tuple(map(sub, exp_x, ks)) + tuple(map(sub, exp_d, ks))
                term = base * f if f != 1 else base
                if key in res:
                    s = res[key] + term
                    if s:
                        res[key] = s
                    else:
                        del res[key]
                else:
                    res[key] = term
    return a._with(res)


def gkz_rational_normal_curve(k: int) -> tuple[tuple, str]:
    """(coordinates, generator text) of the GKZ system of the rational normal
    curve, A = [[1, ..., 1], [0, 1, ..., k]] in n = k + 1 variables: the
    toric binomials d_i d_j - d_(i+1) d_(j-1) and the Euler operators with
    beta = (1/2, 1/3)."""
    n = k + 1
    names = coordinate_names(n)
    d = ["d" + v for v in names]
    gens = [f"{d[i]}*{d[j]} - {d[i + 1]}*{d[j - 1]}" for i in range(n) for j in range(i + 2, n)]
    gens.append(" + ".join(f"{v}*{dv}" for v, dv in zip(names, d)) + " - 1/2")
    gens.append(" + ".join(f"{i}*{v}*{dv}" for i, (v, dv) in enumerate(zip(names, d)) if i)
                + " - 1/3")
    return names, " ; ".join(gens)


def recorded_mismatches(pool, recorded: dict, directory: Path) -> list:
    """Keys of the benchmark requests whose exit code or report digest is
    not the recorded one.

    Each request runs in-process from `directory`, the working directory,
    laid out like the checkout so that the input paths the reports carry
    are the recorded ones; the digest is that of the benchmark: SHA-256 of
    stdout, a NUL byte and stderr.
    """
    mismatches = []
    for request in pool:
        for rel, content in request.files:
            path = directory / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dreg.cli.main(list(request.argv))
        digest = hashlib.sha256(out.getvalue().encode() + b"\0"
                                + err.getvalue().encode()).hexdigest()
        if [code, digest] != recorded[request.key]:
            mismatches.append(request.key)
    return mismatches
