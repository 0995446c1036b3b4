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
from fractions import Fraction
from typing import NamedTuple

from .ideals import (DEFAULT_BUDGET, DEGREVLEX, LEX, Ideal, basis_dimension,
                     groebner_basis, is_radical_squarefree_monomial,
                     normal_form, radical_membership)
from .lattices import LocalLattice
from .operators import UnivarOperator, to_theta_form
from .polynomials import INF, MPoly, RatFun, as_rat, factor_rational
from .regularity import (FuchsCertificate, INFINITY, IRREGULAR, REGULAR,
                         _localize, fuchs_regular_at)
from .weyl import WeylElement, coordinate_names, symbol_names


class ContradictionError(RuntimeError):
    """Two provably equivalent tests disagreed; carries both certificates."""

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = details


class ZeroModuleError(ValueError):
    """Raised when an operation receives the unit ideal (the zero module)."""


class CyclicFiltration:
    """Companion data of the filtration generated by u, theta u, ..."""

    __slots__ = ("operator", "n", "theta_matrix")

    def __init__(self, p: UnivarOperator):
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
                col[j + 1] = RatFun.const(var, 1)
            else:
                top = theta.coeff(n)
                for i in range(n):
                    col[i] = -theta.coeff(i) / top
            cols.append(col)
        # theta_matrix[i][j]: coefficient of e_i in theta(e_j)
        self.operator = p
        self.n = n
        self.theta_matrix = [[cols[j][i] for j in range(n)] for i in range(n)]


class CurveModule:
    """A rank-m differential module on the line: frame with theta-action T.

    theta(v) = x v' + T v and d(v) = v' + T v / x on coordinate columns.
    Used to realize the module filtration F^k as lattices over the local
    ring and to scan which symbol monomials annihilate the graded module.
    """

    __slots__ = ("var", "dim", "theta")

    def __init__(self, var: str, theta_matrix):
        self.var = var
        self.dim = len(theta_matrix)
        self.theta = [list(row) for row in theta_matrix]

    @classmethod
    def from_operator(cls, p: UnivarOperator) -> "CurveModule":
        filt = CyclicFiltration(p)
        return cls(p.var, filt.theta_matrix)

    def partial_action(self, vec):
        x = RatFun.x(self.var)
        out = []
        for i in range(self.dim):
            acc = vec[i].derivative()
            for j in range(self.dim):
                if not self.theta[i][j].is_zero() and not vec[j].is_zero():
                    acc = acc + self.theta[i][j] * vec[j] / x
            out.append(acc)
        return tuple(out)

    def frame(self):
        one = RatFun.const(self.var, 1)
        zero = RatFun.zero(self.var)
        return [tuple(one if j == i else zero for j in range(self.dim))
                for i in range(self.dim)]

    def filtration_generators(self, levels: int, start=None):
        """Generator lists of F^0 .. F^levels for F^k = F_k(D) F^0.

        The default F^0 is spanned by the whole frame; passing a smaller
        start list realizes coarser good filtrations of the same module.
        """
        gens = [list(start) if start is not None else list(self.frame())]
        for _ in range(levels):
            prev = gens[-1]
            new = list(prev)
            for g in prev:
                new.append(self.partial_action(g))
            gens.append(new)
        return gens

    def filtration_lattices(self, levels: int, point=0, start=None):
        return [LocalLattice(point, self.dim, g)
                for g in self.filtration_generators(levels, start)]

    def monomial_annihilates(self, a: int, b: int, lattices, scan_levels: int) -> bool:
        """Does the symbol of x^a d^b kill Gr_F up to the scanned window?"""
        x = RatFun.x(self.var)
        for k in range(scan_levels + 1):
            target = lattices[k + b - 1] if k + b - 1 >= 0 else None
            for g in lattices[k].generators():
                w = g
                for _ in range(b):
                    w = self.partial_action(w)
                w = tuple(x ** a * f for f in w)
                if target is None:
                    if not all(f.is_zero() for f in w):
                        return False
                elif not target.contains(w):
                    return False
        return True

    def annihilator_monomials(self, bound: int, point=0, start=None):
        """Symbol monomials x^a xi^b (a + b <= bound) killing the graded
        module across all scanned levels."""
        lattices = self.filtration_lattices(2 * bound, point, start)
        found = []
        for total in range(1, bound + 1):
            for b in range(total + 1):
                a = total - b
                if self.monomial_annihilates(a, b, lattices, bound):
                    found.append((a, b))
        return found


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
    filt = CyclicFiltration(p)
    orders = tuple(tuple(e.ord_at(0) for e in row) for row in filt.theta_matrix)
    regular = all(o >= 0 for row in orders for o in row)
    reprs = tuple(tuple(str(e) for e in row) for row in filt.theta_matrix)
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


def kashiwara_regular_at(p: UnivarOperator, point=0) -> KashiwaraCertificate:
    """Graded-annihilator test at an arbitrary point of P^1."""
    return kashiwara_regular_at_zero(_localize(p, point))


def fuchs_kashiwara_equivalence(p: UnivarOperator, point=0) -> EquivalenceReport:
    """Run both regularity tests through disjoint code paths and compare."""
    local = _localize(p, point)
    fuchs = fuchs_regular_at(local, 0)
    # reuse the original point label in the certificate
    fuchs = FuchsCertificate(point, fuchs.rows, fuchs.verdict)
    kash = kashiwara_regular_at_zero(local)
    return EquivalenceReport(point, fuchs, kash, fuchs.regular == kash.regular)


def require_agreement(report: EquivalenceReport) -> EquivalenceReport:
    if not report.agree:
        raise ContradictionError(
            f"Fuchs and graded-annihilator verdicts disagree at {report.point}",
            details=report.to_dict())
    return report


def check_good_filtration(p: UnivarOperator, bound: int = 8, point=0) -> tuple[bool, list]:
    """Certify F^1 D . F^j = F^(j+1) for n <= j <= bound on D/DP.

    Each spanning generator of F^(j+1) is exhibited inside the local-ring
    span of the F^j generators and their single d-applications.
    """
    local = _localize(p, point)
    module = CurveModule.from_operator(local)
    gens = module.filtration_generators(bound + 1)
    transcript = []
    ok = True
    for j in range(module.dim, bound + 1):
        span = LocalLattice(0, module.dim,
                            gens[j] + [module.partial_action(g) for g in gens[j]])
        for idx, g in enumerate(gens[j + 1]):
            inside = span.contains(g)
            if not inside:
                ok = False
            transcript.append({"degree": j + 1, "generator": idx, "inside": inside})
    return ok, transcript


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


def characteristic_variety_univar(p: UnivarOperator) -> CharVariety:
    """Ch(D/DP) = V(b_n(x) xi^n) with its fiber decomposition over Q."""
    if p.is_zero():
        raise ValueError("zero operator")
    w, cleared = p.to_weyl()
    n = p.order()
    var = p.var
    sym = symbol_names(1)[0] if var == "x" else f"xi_{var}"
    ring = (var, sym)
    lead_poly = (p.leading_coeff().num * cleared.univar_divmod(p.leading_coeff().den)[0])
    symbol = lead_poly.extend(ring) * MPoly.monomial(ring, (0, n))
    ideal = Ideal(ring, [symbol])
    comps = [Component(ZERO_SECTION, f"V({sym})",
                       Ideal(ring, [MPoly.var(ring, sym)]))]
    roots, leftover = factor_rational(lead_poly) if lead_poly.total_degree() > 0 else ([], lead_poly)
    for root, _mult in roots:
        lin = MPoly.from_univar_coeffs(var, [-root, Fraction(1)]).extend(ring)
        comps.append(Component(CONORMAL_POINT, f"V({lin})", Ideal(ring, [lin])))
    if lead_poly.total_degree() > 0 and leftover.total_degree() > 0:
        comps.append(Component(CONORMAL_POINT, f"V({leftover})",
                               Ideal(ring, [leftover.extend(ring)])))
    return CharVariety(ideal, tuple(comps), covered=True,
                       conical=_is_xi_homogeneous(symbol, 1))


def singular_points(p: UnivarOperator) -> list[MPoly]:
    """Irreducible-over-Q factors under the fibers of Ch away from the zero
    section."""
    cv = characteristic_variety_univar(p)
    out = []
    for c in cv.components:
        if c.kind == CONORMAL_POINT:
            out.append(c.ideal.gens[0])
    return out


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
    roots, leftover = factor_rational(uni_poly)
    solutions = []
    for root, _ in roots:
        if len(variables) == 1:
            solutions.append((root,))
            continue
        reduced = [g.subs_const(last, root) for g in gb]
        sub = _rational_zeros(reduced, variables[:-1], budget)
        if sub is None:
            return None
        solutions.extend(tuple(s) + (root,) for s in sub)
    return solutions


def decompose_symbol_ideal(ideal: Ideal, n: int,
                           budget: int = DEFAULT_BUDGET) -> CharVariety:
    """Structured component decomposition of a conical symbol ideal.

    Candidates are the zero section, conormals to linear divisors read off
    monomial contents and pure-coordinate generators, and conormals to
    rational points where the whole fiber lies in the variety.  Inclusion of
    every candidate and coverage of the variety are certified by radical
    membership in both directions.
    """
    variables = ideal.vars
    if len(variables) != 2 * n:
        raise ValueError("symbol ring must have 2n variables")
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

    accepted = []
    for cand in candidates:
        gb = groebner_basis(cand.ideal, DEGREVLEX, budget)
        if all(normal_form(g, gb).is_zero() for g in gens):
            accepted.append(cand)

    covered = _covers(ideal, accepted, budget) if accepted else False
    comps = tuple(accepted)
    if not covered:
        comps = comps + (Component(OTHER, "unresolved remainder", ideal),)
    return CharVariety(ideal, comps, covered, conical)


def _covers(ideal: Ideal, comps: list, budget: int) -> bool:
    """V(ideal) inside the union of components, by radical membership of all
    one-generator-per-component products."""
    products = [MPoly.const(ideal.vars, 1)]
    for comp in comps:
        products = [p * g for p in products for g in comp.ideal.gens]
    return all(radical_membership(p, ideal, budget) for p in products)


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


def dimension_report(ideal: Ideal, n: int, budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Dimension, holonomicity and the Bernstein bound from one DEGREVLEX basis."""
    gb = groebner_basis(ideal, DEGREVLEX, budget)
    if any(g.is_constant() and not g.is_zero() for g in gb):
        raise ZeroModuleError("unit ideal: the module is zero")
    dim = basis_dimension(ideal.vars, gb)
    return DimensionReport(dim, dim <= n, dim >= n)


def trivial_filtration_annihilator(n: int, rank: int) -> Ideal:
    """Graded annihilator of the stationary filtration on the trivial
    rank-m connection: the ideal of all symbols (xi_1, ..., xi_n).

    Each derivation kills the frame of the trivial connection, so F stays
    put in every degree and the graded module lives in degree zero only.
    """
    if n < 1 or rank < 1:
        raise ValueError("need n >= 1 and rank >= 1")
    ring = coordinate_names(n) + symbol_names(n)
    gens = [MPoly.var(ring, s) for s in symbol_names(n)]
    ideal = Ideal(ring, gens)
    if not is_radical_squarefree_monomial(ideal):
        raise AssertionError("symbol ideal unexpectedly non-radical")
    return ideal
