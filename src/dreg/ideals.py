"""Gröbner bases under a term order, and the ideal tests built on them.

One Buchberger driver serves both rings of the package: the commutative
polynomial ring Q[vars] (the symbol ring) and the Weyl algebra A_n, whose
elements are `MPoly`s in x and d that refuse MPoly's product
(`dreg.weyl`).  The driver takes a term order; it builds new elements of
its input's type with `MPoly._with`, and skips S-pairs by coprimality only
where the elements say they commute (`MPoly.commutative`).  Inside a run
every monomial is one int (`Packing`): each exponent has a fixed 32-bit
field whose top bit is a guard, the total and the weighted degree sit
above the fields, and the code is linear in the exponents and ordered like
`TermOrder.key` (the revlex tie-break subtracts the fields).  So a leading
term is a plain `max`, multiplying monomials adds codes, and divisibility,
lcm and coprimality are arithmetic on the guard bits; an exponent that
reaches the guard raises `BudgetExceeded`.  The boundary is crossed twice:
the generators are packed on entry and the reduced basis is unpacked on
exit, while a unit test reads only the last leading code.  A division
step, and the building of an S-element, subtract a one-term multiple of a
basis element from a packed term map in place: a shift and a scale where
the ring commutes, and in A_n the contraction of d_i against x_i on the
fields (`_leibniz`).  That is the one Weyl product of the package: the
parser evaluates generators with it too, on the LEX packing of A_n.  The
S-pair loop (`buchberger_loop`) and the interreduction are two steps: a
reduced basis takes both, while the unit-ideal tests (`is_unit_ideal`,
`radical_membership`) only ask whether a nonzero constant entered the loop
and stop there.  Arithmetic inside the driver is on integers: it keeps
primitive integer multiples of its elements and divides by
pseudo-division.  Rationals appear only at the boundary, in the monic
reduced basis, and there in the normal form of `dreg.polynomials`: an int
when integral, else a Fraction.  On top sit membership, radical membership
via the extra-variable trick (and its refutation by a leading monomial
outside the radical of the initial ideal), and Krull dimension through
independent variable sets modulo the initial ideal.  An ideal whose
generators are known to be a reduced Gröbner basis says so
(`Ideal.basis_order`), and both tests then start from that basis instead
of computing one.  All computations carry an explicit work budget;
exceeding it raises rather than silently truncating.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import le, mul, neg
from typing import Iterable, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceeded
from .polynomials import MPoly, _exact, _inverse, format_mpoly


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


FIELD_BITS = 32
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)      # an exponent's field keeps its top bit clear
_FIELD = (1 << FIELD_BITS) - 1
_LIMIT_REACHED = f"an exponent reached the exponent limit {EXPONENT_LIMIT} of a packed monomial"


@functools.cache
def _leibniz(b: int, g: int) -> tuple:
    """The integers k! C(b, k) C(g, k), k = 0 .. min(b, g): the coefficients
    of d^b x^g in normal order."""
    return tuple(math.factorial(k) * math.comb(b, k) * math.comb(g, k)
                 for k in range(min(b, g) + 1))


class Packing:
    """The monomials of one ring as ints ordered like a term order: what a
    driver run computes on.

    The code of an exponent vector e is sum e_i * unit_i, so adding codes
    multiplies monomials.  Each exponent has a field of FIELD_BITS bits
    whose top bit, the guard, stays clear (exponents below
    EXPONENT_LIMIT).  Under LEX the fields are the whole code, the first
    variable highest.  Under DEGREVLEX and the weighted orders the fields
    hold e with the last variable highest and are subtracted, below the
    total degree and, above it, the weighted degree: comparing codes then
    compares weight, degree and the reversed exponents negated, as
    `TermOrder.key` does.  `sign` turns a code into its fields (the low
    bits of sign * code), so with the guard bits G:

    - a divides b iff (G + sign * (b - a)) & G == G: a field of the sum
      keeps its guard bit iff b_i - a_i >= 0;
    - the sum of two valid codes is still exact and ordered (its fields
      stay below 2**32, and the degree field is wide enough), and the
      guard bits of sign * code show whether a field reached the limit.
      Every term the driver makes is such a sum, and it checks each term
      it divides by or keeps, so an exponent at the limit raises
      `BudgetExceeded` before it can carry into the next field.

    A run of the Weyl algebra (a ring whose elements are not
    `commutative`) also knows which fields are x_i and d_i, to contract
    d_i against x_i in a left-monomial product (`subtract`).
    """

    __slots__ = ("like", "commutative", "sign", "guard", "shifts", "units", "contractions")

    def __init__(self, order: TermOrder, like):
        nvars = len(like.vars)
        spots = range(nvars)
        if order.name == "lex":
            self.sign = 1
            self.shifts = tuple(FIELD_BITS * (nvars - 1 - i) for i in spots)
            self.units = tuple(1 << s for s in self.shifts)
        else:
            if order.name == "degrevlex":
                weights = (0,) * nvars
            elif order.name == "weighted":
                weights = order.weights
                if len(weights) != nvars or not all(
                        type(w) is int and 0 <= w < EXPONENT_LIMIT for w in weights):
                    raise ValueError(f"weights {weights} are not {nvars} integers in "
                                     f"[0, {EXPONENT_LIMIT})")
            else:
                raise ValueError(f"unknown term order {order.name}")
            low = FIELD_BITS * nvars
            top = low + FIELD_BITS + nvars.bit_length()
            self.sign = -1
            self.shifts = tuple(FIELD_BITS * i for i in spots)
            self.units = tuple((w << top) + (1 << low) - (1 << s)
                               for w, s in zip(weights, self.shifts))
        self.guard = sum(EXPONENT_LIMIT << s for s in self.shifts)
        self.like = like
        self.commutative = like.commutative
        n = nvars // 2
        self.contractions = () if self.commutative else tuple(
            (self.shifts[i], self.shifts[n + i], self.units[i] + self.units[n + i])
            for i in range(n))

    def pack(self, terms: dict) -> dict:
        """The term map with each exponent replaced by its code."""
        units = self.units
        if any(max(e, default=0) >= EXPONENT_LIMIT for e in terms):
            raise BudgetExceeded(_LIMIT_REACHED)
        return {sum(map(mul, e, units)): c for e, c in terms.items()}

    def unpack(self, terms: dict):
        """The element of the ring with this term map on codes."""
        sign, shifts = self.sign, self.shifts
        return self.like._with({tuple((sign * c >> s) & _FIELD for s in shifts): v
                                for c, v in terms.items()})

    def divides(self, a: int, b: int) -> bool:
        """Whether the monomial of code a divides that of code b."""
        guard = self.guard
        return (guard + self.sign * (b - a)) & guard == guard

    def lcm(self, a: int, b: int) -> int:
        """The code of the lcm: a raised by b_i - a_i on each field where
        that is positive, read off the biased fields guard + b - a."""
        t = self.guard + self.sign * (b - a)
        for s, u in zip(self.shifts, self.units):
            q = ((t >> s) & _FIELD) - EXPONENT_LIMIT
            if q > 0:
                a += q * u
        return a

    def subtract(self, rest: dict, q: int, s: int, g: dict) -> None:
        """rest -= q * m * g in place, m the monomial of code s.

        Where the ring commutes, or m has no d, the product is g's terms
        shifted by s and scaled by q.  In A_n, each term x^gamma d^delta of
        g meets m's d_i^b against x_i^gamma_i for the variables where both
        are nonzero: the product terms come down by k * (x_i d_i) with the
        integer factors of `_leibniz`.
        """
        sign = self.sign
        v = sign * s
        ds = [(sx, b, x) for sx, sd, x in self.contractions if (b := (v >> sd) & _FIELD)]
        if ds:
            product = []
            for u, c in g.items():
                w = sign * u
                terms = [(u + s, q * c)]
                for sx, b, x in ds:
                    gx = (w >> sx) & _FIELD
                    if gx:
                        row = _leibniz(b, gx)
                        terms = [(t - k * x, f * r) for t, f in terms for k, r in enumerate(row)]
                product += terms
        else:
            product = [(u + s, q * c) for u, c in g.items()]
        get = rest.get
        for u, c in product:
            w = get(u, 0) - c
            if w:
                rest[u] = w
            else:
                del rest[u]


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


def _pseudo_remainder(rest: dict, basis: Sequence, leads: Sequence,
                      pk: Packing) -> tuple[dict, int]:
    """(R, m) with R the integer term map of m * (remainder of `rest`), m > 0;
    `rest` is used up.

    `rest` and the basis are packed integer term maps and `leads` the
    basis' leading codes.  The division runs inside one term map: a step
    that meets a term a * x^e divisible by lc(g) x^ge scales the map by
    lc(g)/h, h = gcd(a, lc(g)), and subtracts a/h * x^(e-ge) * g in place;
    a term no leading monomial divides moves to the remainder.  Scaling by
    a nonzero constant changes no support, so the steps are those of the
    division over Q.
    """
    sign, guard = pk.sign, pk.guard
    divisors = [(sign * ge, ge, g) for g, ge in zip(basis, leads)]
    done, scale = {}, 1
    while rest:
        e = max(rest)
        if sign * e & guard:
            raise BudgetExceeded(_LIMIT_REACHED)
        t = guard + sign * e
        for sge, ge, g in divisors:
            if (t - sge) & guard == guard:
                a, gc = rest[e], g[ge]
                h = math.gcd(a, gc) if gc > 0 else -math.gcd(a, gc)
                m = gc // h
                if m != 1:
                    scale *= m
                    for u in rest:
                        rest[u] *= m
                    for u in done:
                        done[u] *= m
                pk.subtract(rest, a // h, e - ge, g)
                break
        else:
            done[e] = rest.pop(e)
    return done, scale


def _integral_basis(basis: Sequence, pk: Packing) -> tuple[list, list]:
    """The packed primitive integer multiples of the basis elements and
    their leading codes."""
    basis = [pk.pack(_integral(g.terms)[0]) for g in basis]
    return basis, [max(g) for g in basis]


def all_in_ideal(fs: Iterable, gb: Sequence) -> bool:
    """Whether every f lies in the ideal a DEGREVLEX Gröbner basis gb
    spans: each remainder is zero.  The basis is packed once for all of
    them."""
    fs = [f for f in fs if not f.is_zero()]
    if not fs or not gb:
        return not fs
    pk = Packing(DEGREVLEX, gb[0])
    basis, leads = _integral_basis(gb, pk)
    return not any(_pseudo_remainder(pk.pack(_integral(f.terms)[0]), basis, leads, pk)[0]
                   for f in fs)


def buchberger_loop(gens: Iterable, pk: Packing, budget: int = DEFAULT_BUDGET,
                    known: Sequence = ()) -> tuple[list, list]:
    """The S-pair loop: a (left) Gröbner basis, not reduced, of the (left)
    ideal `known` and the generators span, as packed integer term maps,
    and its elements' leading codes, under the order of the run's packing.

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
    included.  A nonzero constant (code 0) ends the loop at once: it is
    then the last element (`_is_unit`).

    Every element the loop keeps is the primitive integer multiple of the
    element over Q, and an S-element is built with integer cofactors, so
    the loop runs on integers.
    """
    sign, guard = pk.sign, pk.guard
    basis, leads = [], []           # the elements and their leading codes
    queue, pending = [], set()      # heap of (lcm code, j, i); the (i, j) in it

    def insert(g: dict, paired: bool) -> bool:
        """Add g, and its pairs when `paired`; True when g is a constant."""
        lead = max(g)
        j = len(basis)
        for i, fe in enumerate(leads if paired else ()):
            heapq.heappush(queue, (pk.lcm(fe, lead), j, i))
            pending.add((i, j))
        basis.append(g)
        leads.append(lead)
        return lead == 0

    for paired, elements in ((False, known), (True, gens)):
        for g in elements:
            if not g.is_zero() and insert(pk.pack(_integral(g.terms)[0]), paired):
                return basis, leads
    processed = 0
    while queue:
        processed += 1
        if processed > budget:
            raise BudgetExceeded(
                f"Buchberger budget of {budget} S-pairs exceeded")
        lcm, j, i = heapq.heappop(queue)
        pending.discard((i, j))
        fe, ge = leads[i], leads[j]
        # Buchberger's coprimality criterion, sound only where elements commute.
        if pk.commutative and lcm == fe + ge:
            continue
        t = guard + sign * lcm
        if any((t - sign * ke) & guard == guard and k != i and k != j
               and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
               for k, ke in enumerate(leads)):
            continue
        # the S-element (gc/h) x^(lcm-fe) f - (fc/h) x^(lcm-ge) g, built in one term map
        f, g = basis[i], basis[j]
        fc, gc = f[fe], g[ge]
        h = math.gcd(fc, gc)
        s = {}
        pk.subtract(s, -(gc // h), lcm - fe, f)
        pk.subtract(s, fc // h, lcm - ge, g)
        r, _ = _pseudo_remainder(s, basis, leads, pk)
        if r and insert(_primitive(r)[0], True):
            return basis, leads
    return basis, leads


def _is_unit(leads: Sequence) -> bool:
    """Whether a basis the loop returned holds a nonzero constant (its last
    element, if any, of code 0)."""
    return bool(leads) and leads[-1] == 0


def buchberger_basis(gens: Iterable, order: TermOrder, budget: int = DEFAULT_BUDGET) -> list:
    """Reduced (left) Gröbner basis under `order` of the (left) ideal the
    generators span: the S-pair loop (`buchberger_loop`), then the
    interreduction, which makes the basis monic.  The reduced basis of the
    unit ideal is [1]."""
    gens = list(gens)
    like = next((g for g in gens if not g.is_zero()), None)
    if like is None:
        return []
    pk = Packing(order, like)
    basis, leads = buchberger_loop(gens, pk, budget)
    if _is_unit(leads):
        return [pk.unpack({0: 1})]
    return [pk.unpack(g) for g in _reduce_basis(basis, leads, pk)]


def groebner_basis(ideal: Ideal, order: TermOrder = DEGREVLEX,
                   budget: int = DEFAULT_BUDGET) -> list[MPoly]:
    """Reduced Gröbner basis of the ideal under the given term order."""
    return buchberger_basis(ideal.gens, order, budget)


def _reduce_basis(basis: list, leads: list, pk: Packing) -> list:
    """The reduced basis of a Gröbner basis the loop returned: packed monic
    term maps in ascending order of their leading codes."""
    # Minimalize: drop generators whose leading monomial another one divides.
    keep = [i for i, e in enumerate(leads)
            if not any(j != i and pk.divides(f, e) and (f != e or j < i)
                       for j, f in enumerate(leads))]
    minimal = [basis[i] for i in keep]
    lead = [leads[i] for i in keep]
    # Fully reduce each element against the others and make monic; no other
    # leading monomial divides its own, so the leading term stays.
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = _pseudo_remainder(dict(g), others, lead[:i] + lead[i + 1:], pk)[0] if others else g
        inverse = _inverse(r[lead[i]])
        reduced.append((lead[i], {e: _exact(inverse * v) for e, v in r.items()}))
    return [r for _, r in sorted(reduced, key=lambda kr: kr[0])]


def is_unit_ideal(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether 1 lies in the ideal: whether a nonzero constant enters the
    DEGREVLEX S-pair loop, with no interreduction after it."""
    pk = Packing(DEGREVLEX, MPoly.zero(ideal.vars))
    return _is_unit(buchberger_loop(ideal.gens, pk, budget)[1])


def basis_dimension(variables: Sequence[str], gb: Sequence[MPoly],
                    order: TermOrder = DEGREVLEX) -> int:
    """Krull dimension of the ideal a Gröbner basis under `order` spans:
    the size of the largest variable set S independent mod in(I), that is,
    with no leading monomial of the basis supported inside S.  The unit
    ideal cuts out the empty set and is reported as dimension -1 by
    convention.

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
    the S-pair loop from that basis, under its order extended by t last, of
    weight 0: on t-free monomials that order is the basis' own, so the
    basis stays one, and only the pairs of 1 - t*f are queued.  Any other
    ideal runs the DEGREVLEX loop on I + (1 - t*f) from scratch
    (`is_unit_ideal`).  Either way the answer is whether a nonzero
    constant enters the loop, and no basis is interreduced.
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
    pk = Packing(order, rabinowitsch)
    return _is_unit(buchberger_loop([rabinowitsch], pk, budget, known=gens)[1])


def outside_radical_by_leads(e: tuple, leads: Iterable[tuple]) -> bool:
    """Whether x^e proves f outside sqrt(I) for every f with lm(f) = x^e,
    `leads` being the leading exponents of a Gröbner basis of I under the
    order that lm is taken in: no x^g, g in `leads`, has its support inside
    the support of e.

    Lemma: lm(f) outside sqrt(in(I)) puts f outside sqrt(I).  Proof: if
    f^k lies in I then lm(f)^k = lm(f^k), as term orders are
    multiplicative, and it lies in in(I), the monomial ideal the basis'
    leading monomials generate; so some x^g divides x^(k e), that is,
    supp(g) lies inside supp(e).  The converse fails: this only refutes.
    (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, §2.2, §4.2.)
    """
    return not any(all(a or not b for a, b in zip(e, g)) for g in leads)


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
