"""Cyclic modules D/DP, their canonical filtration and regularity tests.

The filtration starts from the lattice spanned by u, theta u, ...,
theta^(n-1) u; its theta-action is the companion matrix of the Euler form
of x^n P.  The graded-annihilator regularity test then reduces to an
order condition on that matrix at the point, which is compared against the
Fuchs certificate through a fully separate code path.  Characteristic
varieties, holonomicity and the Bernstein bound live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import mul
from typing import NamedTuple

from .errors import DEFAULT_BUDGET
from .ideals import (DEGREVLEX, LEX, Ideal, all_in_ideal, basis_dimension, groebner_basis,
                     leading_term, outside_radical_by_leads, radical_membership)
from .operators import UnivarOperator, to_theta_form
from .polynomials import INF, MPoly, RatFun, as_rat, rational_roots, split_content
from .regularity import FuchsCertificate, INFINITY, IRREGULAR, REGULAR, fuchs_regular_at


class ZeroModuleError(ValueError):
    """Raised when an operation receives the unit ideal (the zero module)."""


def cyclic_theta_matrix(p: UnivarOperator) -> list[list[RatFun]]:
    """The theta-action on the lattice spanned by u, theta u, ...,
    theta^(n-1) u of D/DP: entry [i][j] is the coefficient of e_i in
    theta(e_j), the companion matrix of the Euler form of P."""
    if p.is_zero():
        raise ValueError("zero operator")
    p = p.monic()
    n = p.order()
    if n < 1:
        raise ValueError("order-zero operator presents the zero module")
    theta = to_theta_form(p)
    var = p.var
    zero = RatFun.zero(var)
    cols = []
    for j in range(n):
        col = [zero] * n
        if j < n - 1:
            col[j + 1] = RatFun.one(var)
        else:
            top = theta.coeff(n)
            for i in range(n):
                col[i] = -theta.coeff(i) / top
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class KashiwaraCertificate:
    regular: bool
    orders: tuple          # entrywise ord_0 of the theta matrix
    matrix_repr: tuple

    def to_dict(self) -> dict:
        return {
            "verdict": REGULAR if self.regular else IRREGULAR,
            "theta_matrix_orders": [["inf" if o == INF else int(o) for o in row]
                                    for row in self.orders],
            "theta_matrix": [list(row) for row in self.matrix_repr],
        }


def kashiwara_regular_at_zero(p: UnivarOperator) -> KashiwaraCertificate:
    """Graded-annihilator regularity at 0 for D/DP.

    The lattice of theta-iterates of u is theta-stable exactly when every
    entry of its theta-action matrix has nonnegative order at the point; the
    class of x*d then annihilates the graded module.
    """
    matrix = cyclic_theta_matrix(p)
    orders = tuple(tuple(e.ord_at(0) for e in row) for row in matrix)
    regular = all(o >= 0 for row in orders for o in row)
    reprs = tuple(tuple(str(e) for e in row) for row in matrix)
    return KashiwaraCertificate(regular, orders, reprs)


@dataclass(frozen=True)
class EquivalenceReport:
    point: object
    fuchs: FuchsCertificate
    kashiwara: KashiwaraCertificate
    agree: bool

    @property
    def verdicts(self) -> tuple[str, str]:
        return (self.fuchs.verdict,
                REGULAR if self.kashiwara.regular else IRREGULAR)

    def to_dict(self) -> dict:
        f, k = self.verdicts
        return {"point": str(self.point), "fuchs": f, "kashiwara": k,
                "agree": self.agree,
                "fuchs_certificate": self.fuchs.to_dict(),
                "kashiwara_certificate": self.kashiwara.to_dict()}


def _localize(p: UnivarOperator, point) -> UnivarOperator:
    """Move the requested point to the origin (chart change at infinity)."""
    if p.is_zero():
        raise ValueError("zero operator")
    if point is INFINITY:
        return p.at_infinity()
    return p.shift(as_rat(point))


def kashiwara_regular_at(p: UnivarOperator, point=0) -> KashiwaraCertificate:
    """Graded-annihilator test at an arbitrary point of P^1."""
    return kashiwara_regular_at_zero(_localize(p, point))


def fuchs_kashiwara_equivalence(p: UnivarOperator, point=0) -> EquivalenceReport:
    """Run both regularity tests through disjoint code paths and compare.
    At a finite point they share no localisation: Fuchs reads the orders in
    place, and only the graded-annihilator test moves the point to 0."""
    fuchs = fuchs_regular_at(p, point)
    kash = kashiwara_regular_at_zero(_localize(p, point))
    return EquivalenceReport(point, fuchs, kash, fuchs.regular == kash.regular)


# -- characteristic varieties ---------------------------------------------------


ZERO_SECTION = "zero_section"
CONORMAL_POINT = "conormal_point"
CONORMAL_DIVISOR = "conormal_divisor"
OTHER = "other"


@dataclass(frozen=True)
class Component:
    kind: str
    label: str
    ideal: Ideal

    def to_dict(self) -> dict:
        return {"kind": self.kind, "label": self.label,
                "ideal": [str(g) for g in self.ideal.gens]}


@dataclass(frozen=True)
class CharVariety:
    ideal: Ideal
    components: tuple
    covered: bool
    conical: bool

    def to_dict(self) -> dict:
        return {"ideal": [str(g) for g in self.ideal.gens],
                "components": [c.to_dict() for c in self.components],
                "covered": self.covered,
                "conical": self.conical}


def _is_xi_homogeneous(g: MPoly, n: int) -> bool:
    degs = {sum(e[n:]) for e in g.terms}
    return len(degs) <= 1


def _rational_zeros(polys: list[MPoly], variables: tuple,
                    budget: int = DEFAULT_BUDGET):
    """Common rational zeros of a zero-dimensional system; None when the
    system is not visibly zero-dimensional over Q."""
    polys = [q for q in polys if not q.is_zero()]
    if not polys:
        return None
    if any(q.is_constant() for q in polys):
        return []
    if len(variables) == 0:
        return []
    ideal = Ideal(variables, polys)
    gb = groebner_basis(ideal, LEX, budget)
    if any(g.is_constant() for g in gb):
        return []
    last = variables[-1]
    uni = None
    for g in gb:
        if all(all(e[i] == 0 for i in range(len(variables) - 1)) for e in g.terms):
            uni = g
            break
    if uni is None:
        return None
    uni_poly = MPoly((last,), {(e[-1],): c for e, c in uni.terms.items()})
    solutions = []
    for root in rational_roots(split_content(uni_poly)[1]):
        if len(variables) == 1:
            solutions.append((root,))
            continue
        reduced = [g.subs_const(last, root) for g in gb]
        sub = _rational_zeros(reduced, variables[:-1], budget)
        if sub is None:
            return None
        solutions.extend(tuple(s) + (root,) for s in sub)
    return solutions


def decompose_symbol_ideal(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> CharVariety:
    """Structured component decomposition of a conical symbol ideal in the
    2n variables x_1..x_n, xi_1..xi_n.

    Candidates are the zero section, conormals to linear divisors read off
    monomial contents and pure-coordinate generators, and conormals to
    rational points where the whole fiber lies in the variety; candidates
    with equal reduced bases are one component, listed once.  Inclusion of
    every candidate is certified by ideal membership.  Coverage of the
    variety is refuted, where it can be, by the leading monomials of the
    ideal's own basis when it carries one (a characteristic ideal does),
    with no new basis; otherwise it is decided by radical membership,
    which starts from that basis.
    """
    variables = ideal.vars
    n = len(variables) // 2
    xvars, svars = variables[:n], variables[n:]
    gens = list(ideal.gens)
    conical = all(_is_xi_homogeneous(g, n) for g in gens)
    candidates: list[Component] = []

    sv_polys = [MPoly.var(variables, s) for s in svars]
    candidates.append(Component(ZERO_SECTION, "V(" + ", ".join(svars) + ")",
                                Ideal(variables, sv_polys)))

    divisor_polys: list[MPoly] = []
    for g in gens:
        exps = list(g.terms)
        mins = [min(e[i] for e in exps) for i in range(n)]
        for i, m in enumerate(mins):
            if m >= 1:
                cand = MPoly.var(variables, xvars[i])
                if cand not in divisor_polys:
                    divisor_polys.append(cand)
        if all(sum(e[n:]) == 0 for e in exps) and g.total_degree() == 1:
            if g not in divisor_polys:
                divisor_polys.append(g)
    for q in divisor_polys:
        grad = [q.diff(xvars[i]) for i in range(n)]
        if any(not gi.is_constant() for gi in grad):
            continue
        a = [gi.constant_value() for gi in grad]
        cgens = [q]
        for i in range(n):
            for j in range(i + 1, n):
                rel = (MPoly.var(variables, svars[i]).scale(a[j])
                       - MPoly.var(variables, svars[j]).scale(a[i]))
                if not rel.is_zero():
                    cgens.append(rel)
        candidates.append(Component(CONORMAL_DIVISOR, f"V({q})",
                                    Ideal(variables, cgens)))

    coeff_polys: list[MPoly] = []
    for g in gens:
        groups: dict[tuple, dict] = {}
        for e, c in g.terms.items():
            groups.setdefault(e[n:], {})[e[:n]] = c
        for xi_part, xterms in groups.items():
            coeff_polys.append(MPoly(xvars, xterms))
    zeros = _rational_zeros(coeff_polys, xvars, budget)
    if zeros:
        for pt in zeros:
            cgens = []
            for i, c in enumerate(pt):
                cgens.append(MPoly.var(variables, xvars[i])
                             - MPoly.const(variables, c))
            label = "V(" + ", ".join(str(g) for g in cgens) + ")"
            candidates.append(Component(CONORMAL_POINT, label,
                                        Ideal(variables, cgens)))

    # a candidate another route already proposed (V(x) as a divisor and as
    # the point x = 0 when n = 1) has the same reduced basis and is dropped
    accepted, bases = [], []
    for cand in candidates:
        gb = groebner_basis(cand.ideal, DEGREVLEX, budget)
        if gb not in bases and all_in_ideal(gens, gb):
            accepted.append(cand)
            bases.append(gb)

    covered = _covers(ideal, accepted, budget) if accepted else False
    comps = tuple(accepted)
    if not covered:
        comps = comps + (Component(OTHER, "unresolved remainder", ideal),)
    return CharVariety(ideal, comps, covered, conical)


def _covers(ideal: Ideal, comps: list, budget: int) -> bool:
    """V(ideal) inside the union of components, by radical membership of all
    one-generator-per-component products.

    An ideal that carries its reduced basis (`basis_order`) first tries to
    refute each product from leading monomials alone: the product's
    leading exponent is the sum of its factors', and one outside the
    radical of the basis' initial ideal ends the test with no product
    built and no basis computed (`outside_radical_by_leads`).  Otherwise
    the products are built one at a time, the last component's generator
    varying fastest, and tested by radical membership, so the first
    product outside the radical ends the test before the rest are built."""
    order = ideal.basis_order
    if order is not None:
        leads = [leading_term(g, order)[0] for g in ideal.gens]
        zero = (0,) * len(ideal.vars)
        factors = [[leading_term(g, order)[0] for g in comp.ideal.gens] for comp in comps]
        if any(outside_radical_by_leads(tuple(map(sum, zip(zero, *es))), leads)
               for es in product(*factors)):
            return False
    one = MPoly.const(ideal.vars, 1)
    return all(radical_membership(reduce(mul, choice, one), ideal, budget)
               for choice in product(*(comp.ideal.gens for comp in comps)))


def verify_components_both_ways(ideal: Ideal, cv: CharVariety,
                                budget: int = DEFAULT_BUDGET) -> bool:
    """Radical membership in both directions between ideal and components."""
    for comp in cv.components:
        if comp.kind == OTHER:
            return False
        for g in ideal.gens:
            if not radical_membership(g, comp.ideal, budget):
                return False
    return _covers(ideal, list(cv.components), budget)


# -- holonomicity -----------------------------------------------------------------


class DimensionReport(NamedTuple):
    dimension: int      # dim Ch, the Krull dimension of the symbol ideal
    holonomic: bool     # dim Ch <= n (equality then holds by the Bernstein bound)
    bernstein: bool     # dim Ch >= n, asserted for every characteristic ideal


def dimension_report(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Dimension, holonomicity and the Bernstein bound from one basis, for
    a symbol ideal in 2n variables.

    A characteristic ideal carries its reduced basis (`basis_order`), and
    the leading monomials of that basis give the dimension with no new
    basis; any other ideal gets a DEGREVLEX basis first.
    """
    gb = ideal.gens if ideal.basis_order else groebner_basis(ideal, DEGREVLEX, budget)
    if any(g.is_constant() and not g.is_zero() for g in gb):
        raise ZeroModuleError("unit ideal: the module is zero")
    dim = basis_dimension(ideal.vars, gb, ideal.basis_order or DEGREVLEX)
    n = len(ideal.vars) // 2
    return DimensionReport(dim, dim <= n, dim >= n)
