"""Connection-side regularity tests for univariate operators.

The Fuchs criterion reads the orders ord b_i >= i - n of the monic
coefficients where the point is; the Euler-form criterion asks instead
that the theta coefficients of x^n P have no pole.  dmod compares Fuchs
with the graded-annihilator test as independent routes; here each test
produces a self-contained certificate.  A Newton polygon refines the
verdict with slopes, and one singular locus and one verdict rule serve
the projective-line reports of operators and of systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .operators import ThetaOperator, UnivarOperator, lah, to_theta_form
from .polynomials import INF, _reverse, denominator_lcm, factor_rational, monic_mpoly


class _Infinity:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()

REGULAR = "regular"
IRREGULAR = "irregular"


@dataclass(frozen=True)
class FuchsRow:
    index: int
    order: int | float
    bound: int
    satisfied: bool


@dataclass(frozen=True)
class FuchsCertificate:
    point: object
    rows: tuple
    verdict: str

    @property
    def regular(self) -> bool:
        return self.verdict == REGULAR

    def to_dict(self) -> dict:
        return {
            "point": str(self.point),
            "verdict": self.verdict,
            "rows": [
                {"i": r.index,
                 "ord": "inf" if r.order == INF else int(r.order),
                 "bound": r.bound,
                 "ok": r.satisfied}
                for r in self.rows
            ],
        }


def _monic_orders(p: UnivarOperator, point) -> list:
    """ord (b_i / b_n) at the point: the difference ord b_i - ord b_n, with
    no division by b_n.  A finite point is read in place by synthetic
    division, and infinity in place from the reversed coefficient lists
    (`_orders_at_infinity`): no chart is built."""
    if p.is_zero():
        raise ValueError("zero operator")
    if point is INFINITY:
        orders = _orders_at_infinity(p.coeffs)
    else:
        orders = [c.ord_at(point) for c in p.coeffs]
    top = orders[-1]
    return [o - top for o in orders]


def _orders_at_infinity(coeffs) -> list:
    """ord_0 of the coefficients of the chart x = 1/t, d_x = -t^2 d_t,
    without building it: b~_0 = a_0(1/t) and, for k >= 1,
    b~_k = sum_(i>=k) (-1)^i L(i,k) t^(i+k) a_i(1/t) with the Lah numbers
    of `UnivarOperator.at_infinity`.  For a = s n/d, a(1/t) is
    s t^(len d - len n) times the reversal of n over that of d, and both
    reversals have a nonzero constant term."""
    chart = {}          # i: a_i(1/t) as (order, signed scale, reversed n, reversed d)
    for i, a in enumerate(coeffs):
        if not a.is_zero():
            (sn, n), (sd, d) = _reverse(a.numer), _reverse(a.denom)
            chart[i] = (len(a.denom) - len(a.numer), a.scale if sn == sd else -a.scale, n, d)
    orders = [chart[0][0] if 0 in chart else INF]
    for k in range(1, len(coeffs)):
        orders.append(_sum_order([(e + i + k, (-1) ** i * lah(i, k) * s, n, d)
                                  for i, (e, s, n, d) in chart.items() if i >= k]))
    return orders


def _sum_order(terms) -> int | float:
    """ord_0 of the sum of c t^e n(t)/d(t) over terms (e, c, n, d), each n
    and d an integer polynomial with a nonzero constant term.

    A single term of lowest order decides, and so do tied ones whose
    lowest coefficients c n(0)/d(0) do not cancel.  Otherwise the sum is
    expanded by power-series division up to its first nonzero coefficient.
    Over the product Q of the distinct d, the sum is t^low P/Q with
    Q(0) != 0 and deg P at most `bound`, so bound + 1 vanishing
    coefficients make P, and the sum, zero: the read is exact, with no gcd.
    """
    low = min(e for e, _, _, _ in terms)
    tied = [(c, n, d) for e, c, n, d in terms if e == low]
    if len(tied) == 1 or sum(Fraction(c * n[0], d[0]) for c, n, d in tied):
        return low
    dens = sum(len(d) - 1 for d in set(d for _, _, _, d in terms))
    bound = max(e - low + len(n) - len(d) for e, _, n, d in terms) + dens
    series = [(e - low, c, _series(n, d)) for e, c, n, d in terms]
    for j in range(bound + 1):
        if sum(c * next(s) for lag, c, s in series if lag <= j):
            return low + j
    return INF


def _series(n, d):
    """The coefficients of the power series n/d at 0, one by one, for
    integer polynomials with d(0) != 0."""
    out = []
    while True:
        j = len(out)
        acc = n[j] if j < len(n) else 0
        for i in range(1, min(j, len(d) - 1) + 1):
            acc -= d[i] * out[j - i]
        out.append(Fraction(acc, d[0]))
        yield out[-1]


def fuchs_regular_at(p: UnivarOperator, point) -> FuchsCertificate:
    """Fuchs order test at a point of P^1: ord b_i >= i - n after monic
    normalization."""
    orders = _monic_orders(p, point)
    n = len(orders) - 1
    rows = []
    verdict = REGULAR
    for i in range(n):
        o = orders[i]
        bound = i - n
        ok = o >= bound
        if not ok:
            verdict = IRREGULAR
        rows.append(FuchsRow(i, o, bound, ok))
    return FuchsCertificate(point, tuple(rows), verdict)


def theta_regular_at_zero(p: UnivarOperator) -> tuple[bool, ThetaOperator]:
    """Euler-form test at 0: the theta coefficients of x^n P are pole-free
    and the top one is a unit at 0.  Returns (verdict, witness form)."""
    monic = p.monic()
    n = monic.order()
    theta = to_theta_form(monic)
    ok = True
    for i in range(n + 1):
        if theta.coeff(i).ord_at(0) < 0:
            ok = False
    if theta.coeff(n).ord_at(0) != 0:
        ok = False
    return ok, theta


@dataclass(frozen=True)
class NewtonPolygon:
    point: object
    points: tuple
    slopes: tuple

    def to_dict(self) -> dict:
        return {
            "point": str(self.point),
            "points": [list(q) for q in self.points],
            "slopes": [str(s) for s in self.slopes],
        }


def newton_polygon(p: UnivarOperator, point) -> NewtonPolygon:
    """Slopes of the coefficient-order polygon; {0} exactly on Fuchs-regular
    operators.  Plotted points are (i, i - ord b_i) for nonzero b_i."""
    pts = [(i, i - int(o)) for i, o in enumerate(_monic_orders(p, point)) if o != INF]
    hull = _upper_hull(pts)
    slopes = set()
    if len(hull) == 1:
        slopes.add(Fraction(0))
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = -Fraction(y2 - y1, x2 - x1)
        slopes.add(max(Fraction(0), s))
    return NewtonPolygon(point, tuple(pts), tuple(sorted(slopes)))


def _upper_hull(points: list[tuple]) -> list[tuple]:
    points = sorted(points)
    hull: list[tuple] = []
    for q in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the boundary concave from above
            if (y2 - y1) * (q[0] - x1) <= (q[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


@dataclass(frozen=True)
class SingularPoint:
    """A tested or untested singular location on P^1."""

    location: object          # Fraction, INFINITY, or an untested MPoly factor
    tested: bool
    certificate: FuchsCertificate | None

    def to_dict(self) -> dict:
        if self.tested:
            return {"point": str(self.location), "tested": True,
                    "verdict": self.certificate.verdict,
                    "certificate": self.certificate.to_dict()}
        return {"point": str(self.location), "tested": False,
                "verdict": "requires extension field"}


GLOBAL_REGULAR = "regular"
GLOBAL_IRREGULAR = "irregular"
GLOBAL_REGULAR_TESTED = "regular over tested points"


@dataclass(frozen=True)
class ProjectiveLineReport:
    points: tuple
    verdict: str


def singular_locus(den, var: str) -> tuple[list, tuple]:
    """The points of P^1 that get a verdict for a cleared integer
    denominator, its rational roots ascending and then infinity, and its
    untested monic factor, as a tuple of at most one MPoly in `var`."""
    roots, rest = factor_rational(den)
    return roots + [INFINITY], ((monic_mpoly(var, rest),) if len(rest) > 1 else ())


def global_verdict(regular: bool, untested) -> str:
    """An irregular point decides; an untested factor demotes "regular"."""
    if not regular:
        return GLOBAL_IRREGULAR
    return GLOBAL_REGULAR_TESTED if untested else GLOBAL_REGULAR


def regular_on_projective_line(p: UnivarOperator) -> ProjectiveLineReport:
    """Fuchs verdicts at every rational singular point and at infinity.

    Verdicts at roots of factors of degree > 1 are not computed (no
    algebraic extensions); such factors downgrade a clean global verdict to
    "regular over tested points", never to a silent pass.
    """
    if p.is_zero():
        raise ValueError("zero operator")
    points, untested = singular_locus(denominator_lcm(p.monic().coeffs), p.var)
    certs = [fuchs_regular_at(p, pt) for pt in points]
    entries = ([SingularPoint(c.point, True, c) for c in certs]
               + [SingularPoint(f, False, None) for f in untested])
    return ProjectiveLineReport(tuple(entries),
                                global_verdict(all(c.regular for c in certs), untested))
