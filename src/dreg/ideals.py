"""Gröbner bases over a ring description, and the ideal tests built on them.

One Buchberger driver serves both rings of the package: the commutative
polynomial ring Q[vars] (the symbol ring) and the Weyl algebra A_n, which
`dreg.weyl` describes to it.  A `Ring` gives the term order, the leading
term, c * monomial and commutativity; the S-pair loop, the division routine
and the interreduction are shared.  On top sit membership, radical
membership via the extra-variable trick, and Krull dimension through
independent variable sets modulo the initial ideal.  All computations carry
an explicit work budget; exceeding it raises rather than silently
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, neg
from typing import Callable, Iterable, Sequence

from .polynomials import MPoly, format_mpoly

DEFAULT_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    """Raised when a computation exceeds its configured work budget."""


class NotMonomialIdeal(ValueError):
    """Raised when a monomial-ideal operation receives a non-monomial generator."""


@dataclass(frozen=True)
class TermOrder:
    """A term order given by a sort key on exponent tuples (max = leading)."""

    name: str
    weights: tuple | None = None

    def key(self, exps: tuple) -> tuple:
        if self.name == "lex":
            return tuple(exps)
        if self.name == "degrevlex":
            return (sum(exps), tuple(map(neg, reversed(exps))))
        if self.name == "weighted":
            return (sum(map(mul, self.weights, exps)), sum(exps),
                    tuple(map(neg, reversed(exps))))
        raise ValueError(f"unknown term order {self.name}")


DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")


def weighted_order(weights: Sequence[int]) -> TermOrder:
    """Weight-first order (ties broken by degrevlex)."""
    return TermOrder("weighted", tuple(weights))


def symbol_weight_order(nvars: int) -> TermOrder:
    """Order for rings Q[x_1..x_n, xi_1..xi_n]: total xi-degree first."""
    if nvars % 2:
        raise ValueError("symbol ring must have an even number of variables")
    half = nvars // 2
    return weighted_order((0,) * half + (1,) * half)


@dataclass(frozen=True)
class Ideal:
    """An ideal of Q[vars] presented by a finite generating set."""

    vars: tuple
    gens: tuple

    def __init__(self, variables: Sequence[str], gens: Iterable[MPoly]):
        variables = tuple(variables)
        cleaned = []
        for g in gens:
            if g.vars != variables:
                raise ValueError(f"generator ring {g.vars} does not match {variables}")
            if not g.is_zero():
                cleaned.append(g)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "gens", tuple(cleaned))

    def __str__(self) -> str:
        inner = ", ".join(format_mpoly(g) for g in self.gens) or "0"
        return f"({inner})"


def leading_term(p: MPoly, order: TermOrder) -> tuple[tuple, Fraction]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class Ring:
    """What the Buchberger driver needs to know about a ring of elements.

    Exponents are flat tuples compared by `order`; `leading(f)` gives the
    leading (exponents, coefficient) of a nonzero element and
    `monomial(f, exps, c)` builds c * monomial in the ring of f.  Sums,
    differences, products and `scale` are the elements' own methods.  Only
    a commutative ring may skip S-pairs by the coprimality criterion.
    """

    order: TermOrder
    leading: Callable
    monomial: Callable
    commutative: bool


def polynomial_ring(order: TermOrder) -> Ring:
    """Q[vars] under the given term order."""
    return Ring(order, lambda p: leading_term(p, order),
                lambda p, exps, c: MPoly.monomial(p.vars, exps, c), True)


POLYNOMIALS = polynomial_ring(DEGREVLEX)


def normal_form(f, basis: Sequence, ring: Ring = POLYNOMIALS):
    """Full remainder of f on (left) division by the basis (every term reduced)."""
    if not basis:
        return f
    lead = [ring.leading(g) for g in basis]
    remainder = f.scale(0)
    work = f
    while not work.is_zero():
        e, c = ring.leading(work)
        for g, (ge, gc) in zip(basis, lead):
            if _divides(ge, e):
                work = work - ring.monomial(f, _exp_sub(e, ge), c / gc) * g
                break
        else:
            mono = ring.monomial(f, e, c)
            remainder = remainder + mono
            work = work - mono
    return remainder


def buchberger_basis(gens: Iterable, ring: Ring, budget: int = DEFAULT_BUDGET) -> list:
    """Reduced (left) Gröbner basis of the (left) ideal the generators span.

    S-pairs are taken first in, first out.  The coprimality criterion is
    used only in a commutative ring: in A_n the commutator of elements with
    disjoint leading supports need not vanish, so every S-pair is reduced.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    processed = 0
    while pairs:
        processed += 1
        if processed > budget:
            raise BudgetExceeded(
                f"Buchberger budget of {budget} S-pairs exceeded")
        i, j = pairs.pop(0)
        fe, fc = ring.leading(basis[i])
        ge, gc = ring.leading(basis[j])
        lcm = _exp_lcm(fe, ge)
        # Buchberger's coprimality criterion, sound only where elements commute.
        if ring.commutative and lcm == tuple(a + b for a, b in zip(fe, ge)):
            continue
        s = (ring.monomial(basis[i], _exp_sub(lcm, fe), Fraction(1) / fc) * basis[i]
             - ring.monomial(basis[j], _exp_sub(lcm, ge), Fraction(1) / gc) * basis[j])
        r = normal_form(s, basis, ring)
        if not r.is_zero():
            basis.append(r)
            k = len(basis) - 1
            pairs.extend((t, k) for t in range(k))
    return _reduce_basis(basis, ring)


def groebner_basis(ideal: Ideal, order: TermOrder = DEGREVLEX,
                   budget: int = DEFAULT_BUDGET) -> list[MPoly]:
    """Reduced Gröbner basis of the ideal under the given term order."""
    return buchberger_basis(ideal.gens, polynomial_ring(order), budget)


def _reduce_basis(basis: list, ring: Ring) -> list:
    # Minimalize: drop generators whose leading monomial another one divides.
    lead = [ring.leading(g)[0] for g in basis]
    keep = []
    for i, e in enumerate(lead):
        if any(j != i and _divides(lead[j], e) and (lead[j] != e or j < i)
               for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    # Fully reduce each element against the others and make monic.
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, ring) if others else g
        if r.is_zero():
            continue
        _, lc = ring.leading(r)
        reduced.append(r.scale(Fraction(1) / lc))
    reduced.sort(key=lambda g: ring.order.key(ring.leading(g)[0]))
    return reduced


def buchberger(ideal: Ideal, order: TermOrder = DEGREVLEX,
               budget: int = DEFAULT_BUDGET) -> Ideal:
    """Same ideal, regenerated by its reduced Gröbner basis."""
    return Ideal(ideal.vars, groebner_basis(ideal, order, budget))


def ideal_contains(ideal: Ideal, f: MPoly, order: TermOrder = DEGREVLEX,
                   budget: int = DEFAULT_BUDGET) -> bool:
    gb = groebner_basis(ideal, order, budget)
    return normal_form(f, gb, polynomial_ring(order)).is_zero()


def is_unit_ideal(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    gb = groebner_basis(ideal, DEGREVLEX, budget)
    return any(g.is_constant() and not g.is_zero() for g in gb)


def krull_dimension(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of V(I) as the largest independent variable set mod in(I).

    A variable subset S is independent when no leading monomial of the
    Gröbner basis is supported inside S.  The unit ideal cuts out the empty
    set and is reported as dimension -1 by convention.
    """
    return basis_dimension(ideal.vars, groebner_basis(ideal, DEGREVLEX, budget))


def basis_dimension(variables: Sequence[str], gb: Sequence[MPoly]) -> int:
    """Krull dimension of the ideal a reduced DEGREVLEX Gröbner basis spans."""
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return -1
    lead = [leading_term(g, DEGREVLEX)[0] for g in gb]
    n = len(variables)
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        independent = True
        for e in lead:
            if all(e[i] == 0 or (mask >> i) & 1 for i in range(n)):
                independent = False
                break
        if independent:
            best = size
    return best


def radical_membership(f: MPoly, ideal: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide f in sqrt(I) by testing 1 in I + (1 - t*f) with t fresh."""
    if f.vars != ideal.vars:
        raise ValueError("polynomial and ideal live in different rings")
    if f.is_zero():
        return True
    tname = "_t"
    while tname in ideal.vars:
        tname += "t"
    bigvars = ideal.vars + (tname,)
    gens = [g.extend(bigvars) for g in ideal.gens]
    t = MPoly.var(bigvars, tname)
    one = MPoly.const(bigvars, 1)
    gens.append(one - t * f.extend(bigvars))
    return is_unit_ideal(Ideal(bigvars, gens), budget)


def minimal_monomial_generators(ideal: Ideal) -> list[tuple]:
    """Minimal exponent-vector generators of a monomial ideal."""
    exps = []
    for g in ideal.gens:
        if not g.is_monomial():
            raise NotMonomialIdeal(f"not a monomial ideal: generator {g} has several terms")
        exps.append(next(iter(g.terms)))
    minimal = []
    for e in exps:
        if any(f != e and _divides(f, e) for f in exps):
            continue
        if e not in minimal:
            minimal.append(e)
    return sorted(minimal)


def is_radical_squarefree_monomial(ideal: Ideal) -> bool:
    """Radicality test for monomial ideals: minimal generators squarefree."""
    return all(max(e, default=0) <= 1 for e in minimal_monomial_generators(ideal))
