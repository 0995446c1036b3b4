"""Gröbner bases under a term order, and the ideal tests built on them.

One Buchberger driver serves both rings of the package: the commutative
polynomial ring Q[vars] (the symbol ring) and the Weyl algebra A_n, whose
elements are `MPoly`s in x and d with their own product (`dreg.weyl`).  The
driver takes a term order; it builds new elements of its input's type with
`MPoly._with`, multiplies with the elements' own product, and skips S-pairs
by coprimality only where the elements say they commute
(`MPoly.commutative`).  The S-pair loop, the division routine and the
interreduction are shared.  Arithmetic
inside the driver is on integers: it keeps primitive integer multiples of
its elements and divides by pseudo-division.  Rationals appear only at the
boundary, in the monic reduced basis and in the exact remainder
`normal_form` hands to an outside caller, and there in the normal form of
`dreg.polynomials`: an int when integral, else a Fraction.  On top sit
membership, radical membership via the extra-variable trick, and Krull
dimension through independent variable sets modulo the initial ideal.  An
ideal whose generators are known to be a reduced Gröbner basis says so
(`Ideal.basis_order`), and both tests then start from that basis instead of
computing one.  All computations carry an explicit work budget; exceeding
it raises rather than silently truncating.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, mul, neg, sub
from typing import Iterable, Sequence

from .polynomials import MPoly, _exact, _inverse, format_mpoly

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
    """An ideal of Q[vars] presented by a finite generating set.

    `basis_order`, when given, is a term order under which the generators
    are a reduced Gröbner basis; only a caller that knows this passes it.
    """

    vars: tuple
    gens: tuple
    basis_order: TermOrder | None = field(default=None, compare=False)

    def __init__(self, variables: Sequence[str], gens: Iterable[MPoly],
                 basis_order: TermOrder | None = None):
        variables = tuple(variables)
        cleaned = []
        for g in gens:
            if g.vars != variables:
                raise ValueError(f"generator ring {g.vars} does not match {variables}")
            if not g.is_zero():
                cleaned.append(g)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "gens", tuple(cleaned))
        object.__setattr__(self, "basis_order", basis_order)

    def __str__(self) -> str:
        inner = ", ".join(format_mpoly(g) for g in self.gens) or "0"
        return f"({inner})"


def leading_term(p: MPoly, order: TermOrder) -> tuple[tuple, Fraction]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _exp_sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _primitive(ints: dict) -> tuple[dict, int]:
    """(F, g): a nonzero integer term map is g * F with F primitive, g > 0."""
    g = math.gcd(*ints.values())
    return ({t: c // g for t, c in ints.items()} if g != 1 else ints), g


def _integral(terms: dict) -> tuple[dict, Fraction]:
    """(F, c) with F the primitive integer multiple of a nonzero term map and
    terms = c * F: clear the denominators, then divide by the numerators' gcd."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    ints, g = _primitive({t: c.numerator * (den // c.denominator) for t, c in terms.items()})
    return ints, Fraction(g, den)


def _pseudo_remainder(f, basis: Sequence, leads: Sequence, order: TermOrder) -> tuple[dict, int]:
    """(R, m) with R the integer term map of m * (remainder of f), m > 0.

    f and the basis have integer coefficients.  The division runs inside
    one term map: a step that meets a term a * x^e divisible by lc(g) x^ge
    scales the map by lc(g)/h, h = gcd(a, lc(g)), and subtracts
    a/h * x^(e-ge) * g in place; a term no leading monomial divides moves
    to the remainder.  Scaling by a nonzero constant changes no support, so
    the steps are those of the division over Q.
    """
    key = order.key
    done, rest = {}, dict(f.terms)
    scale = 1
    rank = {e: key(e) for e in rest}      # order key of every term met
    while rest:
        e = max(rest, key=rank.__getitem__)
        for g, (ge, gc) in zip(basis, leads):
            if _divides(ge, e):
                a = rest[e]
                h = math.gcd(a, gc) if gc > 0 else -math.gcd(a, gc)
                m = gc // h
                if m != 1:
                    scale *= m
                    for u in rest:
                        rest[u] *= m
                    for u in done:
                        done[u] *= m
                product = f._with({_exp_sub(e, ge): a // h}) * g
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
    return done, scale


def normal_form(f, basis: Sequence, order: TermOrder = DEGREVLEX,
                leads: Sequence | None = None):
    """Full remainder of f on (left) division by the basis (every term reduced).

    The division is integer pseudo-division (`_pseudo_remainder`).  Called
    with `leads`, the basis' leading terms, as the Buchberger driver does,
    f and the basis must have integer coefficients, and the result is the
    primitive integer multiple of the remainder.  Without them, f and the
    basis are made integer here and the exact remainder comes back,
    divided once per term into exact rationals in normal form.
    """
    if not basis or f.is_zero():
        return f
    if leads is not None:
        r, _ = _pseudo_remainder(f, basis, leads, order)
        return f._with(_primitive(r)[0])
    basis, leads = _integral_basis(basis, order)
    ints, c = _integral(f.terms)
    r, m = _pseudo_remainder(f._with(ints), basis, leads, order)
    c /= m
    return f._with({e: _exact(v * c) for e, v in r.items()})


def _integral_basis(basis: Sequence, order: TermOrder) -> tuple[list, list]:
    """The primitive integer multiples of the basis elements and their
    leading terms: what `normal_form` takes with `leads`."""
    basis = [g._with(_integral(g.terms)[0]) for g in basis]
    return basis, [leading_term(g, order) for g in basis]


def all_in_ideal(fs: Iterable, gb: Sequence, order: TermOrder = DEGREVLEX) -> bool:
    """Whether every f lies in the ideal a Gröbner basis gb spans: each
    remainder is zero.  The basis is made integer once for all of them."""
    basis, leads = _integral_basis(gb, order)
    return all(normal_form(f._with(_integral(f.terms)[0]), basis, order, leads).is_zero()
               for f in fs)


def buchberger_basis(gens: Iterable, order: TermOrder, budget: int = DEFAULT_BUDGET,
                     known: Sequence = ()) -> list:
    """Reduced (left) Gröbner basis under `order` of the (left) ideal
    `known` and the generators span.

    `known` must be a Gröbner basis under the order.  The loop
    starts from it with the pairs among its elements counted as processed:
    they reduce to zero, so the chain criterion may lean on them.  Only the
    pairs of the generators are queued.

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

    Every element the loop keeps is the primitive integer multiple of the
    element over Q, and an S-element is built with integer cofactors, so
    the loop runs on integers; the reduced basis is made monic at the end.
    """
    basis, leads = [], []           # the elements and their leading terms
    queue, pending = [], set()      # heap of (order key of lcm, j, i, lcm); the (i, j) in it

    def insert(g, paired: bool) -> bool:
        """Add g, and its pairs when `paired`; True when g is a constant."""
        lead = leading_term(g, order)
        j = len(basis)
        for i, (fe, _) in enumerate(leads if paired else ()):
            lcm = _exp_lcm(fe, lead[0])
            heapq.heappush(queue, (order.key(lcm), j, i, lcm))
            pending.add((i, j))
        basis.append(g)
        leads.append(lead)
        return not any(lead[0])

    for paired, elements in ((False, known), (True, gens)):
        for g in elements:
            if not g.is_zero() and insert(g._with(_integral(g.terms)[0]), paired):
                return [g._with({leads[-1][0]: 1})]
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
        if any(_divides(ke, lcm) and k != i and k != j
               and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
               for k, (ke, _) in enumerate(leads)):
            continue
        h = math.gcd(fc, gc)
        s = (basis[i]._with({_exp_sub(lcm, fe): gc // h}) * basis[i]
             - basis[j]._with({_exp_sub(lcm, ge): fc // h}) * basis[j])
        r = normal_form(s, basis, order, leads)
        if not r.is_zero() and insert(r, True):
            return [r._with({leads[-1][0]: 1})]
    return _reduce_basis(basis, leads, order)


def groebner_basis(ideal: Ideal, order: TermOrder = DEGREVLEX,
                   budget: int = DEFAULT_BUDGET) -> list[MPoly]:
    """Reduced Gröbner basis of the ideal under the given term order."""
    return buchberger_basis(ideal.gens, order, budget)


def _reduce_basis(basis: list, leads: list, order: TermOrder) -> list:
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
        r = normal_form(g, others, order, lead[:i] + lead[i + 1:]) if others else g
        reduced.append((order.key(lead[i][0]), r.scale(_inverse(leading_term(r, order)[1]))))
    return [r for _, r in sorted(reduced, key=lambda kr: kr[0])]


def buchberger(ideal: Ideal, order: TermOrder = DEGREVLEX,
               budget: int = DEFAULT_BUDGET) -> Ideal:
    """Same ideal, regenerated by its reduced Gröbner basis."""
    return Ideal(ideal.vars, groebner_basis(ideal, order, budget))


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


def basis_dimension(variables: Sequence[str], gb: Sequence[MPoly],
                    order: TermOrder = DEGREVLEX) -> int:
    """Krull dimension of the ideal a Gröbner basis under `order` spans.

    I and in(I) have the same dimension under every term order, so the
    leading monomials of any basis give it.
    """
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return -1
    lead = [leading_term(g, order)[0] for g in gb]
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
    """Decide f in sqrt(I) by testing 1 in I + (1 - t*f) with t fresh.

    An ideal whose generators are a reduced basis (`basis_order`) starts
    the driver from that basis, under its order extended by t last, of
    weight 0: on t-free monomials that order is the basis' own, so the
    basis stays one, and only the pairs of 1 - t*f are queued.  Any other
    ideal gets a DEGREVLEX basis of I + (1 - t*f) from scratch.
    """
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
    rabinowitsch = MPoly.const(bigvars, 1) - t * f.extend(bigvars)
    order = ideal.basis_order
    if order is None:
        return is_unit_ideal(Ideal(bigvars, gens + [rabinowitsch]), budget)
    if order.weights is not None:
        order = weighted_order(order.weights + (0,))
    gb = buchberger_basis([rabinowitsch], order, budget, known=gens)
    return any(g.is_constant() for g in gb)


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
