"""Normal-crossing pole modules and logarithmic lattices in up to three
variables.

The chart carries Z = {x_1 ... x_r = 0} inside affine n-space.  The module
of functions with poles on Z is filtered by total pole order across the
dividing coordinates; with that convention the derivation algebra raises
the filtration by exactly one from level r on, and the graded annihilator
is the squarefree ideal generated by the logarithmic symbols.  Everything
here certifies those statements on bounded monomial windows, plus the
forward direction of the comparison theorem for log lattices and the
curve-level backward extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from operator import add, sub
from typing import Iterator

from .dmod import cyclic_theta_matrix
from .ideals import Ideal, is_radical_squarefree_monomial
from .linalg import mat_mul, mat_sub
from .operators import UnivarOperator
from .polynomials import INF, MPoly, format_monomial
from .regularity import IRREGULAR, REGULAR
from .weyl import coordinate_names, symbol_names


@dataclass(frozen=True)
class NCChart:
    """A normal-crossing chart: Z = {x_1 ... x_r = 0} in A^n."""

    n: int
    r: int

    def __post_init__(self):
        if not (1 <= self.r <= self.n <= 3):
            raise ValueError("charts are desk scale: 1 <= r <= n <= 3")

    @property
    def ring(self) -> tuple:
        return coordinate_names(self.n) + symbol_names(self.n)

    def pole_order(self, alpha: tuple) -> int:
        """Total pole order across the dividing coordinates."""
        return -sum(e for e in alpha[:self.r] if e < 0)

    def monomials_with_pole(self, pole: int, max_poly: int):
        """Exponent vectors in Z^n with the given total pole order and
        polynomial degree at most max_poly, in lexicographic order.

        Built coordinate by coordinate from the pole order and degree still
        to spend; only a dividing coordinate may take a negative exponent.
        """
        def extend(i, pole_left, poly_left):
            if i == self.n or (i >= self.r and pole_left):
                if not pole_left:
                    yield ()
                return
            low = -pole_left if i < self.r else 0
            for e in range(low, poly_left + 1):
                for rest in extend(i + 1, pole_left + min(e, 0),
                                   poly_left - max(e, 0)):
                    yield (e,) + rest

        return extend(0, pole, max_poly)


def theta_XZ_ideal(chart: NCChart) -> Ideal:
    """Symbols of derivations preserving the ideal of Z:
    (x_1 xi_1, ..., x_r xi_r, xi_(r+1), ..., xi_n)."""
    ring = chart.ring
    gens = []
    for i in range(chart.n):
        e = [0] * (2 * chart.n)
        e[i] = int(i < chart.r)
        e[chart.n + i] = 1
        gens.append(MPoly.monomial(ring, e))
    return Ideal(ring, gens)


def _falling(a: int, b: int) -> int:
    out = 1
    for k in range(b):
        out *= a - k
    return out


def _apply_lift(chart: NCChart, a: tuple, b: tuple, alpha: tuple):
    """x^a d^b applied to the pole-module monomial x^alpha.

    Returns (coefficient, exponent) with coefficient 0 for the zero image.
    """
    coeff = 1
    for e, k in zip(alpha, b):
        if k:
            coeff *= _falling(e, k)
            if not coeff:
                return 0, None
    return coeff, tuple(map(sub, map(add, alpha, a), b))


@dataclass(frozen=True)
class AnnihilatorReport:
    """The window scan of one chart up to `bound`.

    `standard` holds the exponents (a, b) of the standard monomials of
    `ideal` the scan walked, in `_symbol_monomials` order: one witness
    check each.  The report reads them back for the inclusion listing and
    never prints them; they live as long as the report.
    """

    chart: NCChart          # the chart whose window was scanned
    ideal: Ideal
    stability_checks: int
    standard: tuple = field(repr=False)
    failures: tuple         # texts of the failing witness checks
    bound: int

    @property
    def witness_checks(self) -> int:
        return len(self.standard)

    @property
    def matches_ideal(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"ideal": [str(g) for g in self.ideal.gens],
                "matches_ideal": self.matches_ideal,
                "stability_checks": self.stability_checks,
                "witness_checks": self.witness_checks,
                "failures": list(self.failures)}


def _compositions(total: int, parts: int):
    """Tuples of `parts` non-negative integers summing to `total`, in
    lexicographic order.

    Stars and bars: the parts - 1 cuts, non-decreasing in 0 .. total, are
    the partial sums, and the parts are the gaps between them."""
    end = (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + end, (0,) + cuts))


def _symbol_monomials(chart: NCChart, bound: int):
    """Exponents (a, b) of monomials x^a xi^b of total degree <= bound,
    by degree, then lexicographically."""
    n = chart.n
    for total in range(1, bound + 1):
        for exps in _compositions(total, 2 * n):
            yield exps[:n], exps[n:]


def _outside_monomials(chart: NCChart, bound: int):
    """Exponents (a, b) of the x^a xi^b of degree 1 .. bound outside
    `theta_XZ_ideal(chart)`, in `_symbol_monomials` order: the standard
    monomials of the ideal.

    One composition gives a and the degree s left for b.  xi_j for j >= r
    and x_i xi_i for i < r generate the ideal, so b_j = 0 for j >= r and
    b_i = 0 for each i < r with a_i >= 1: b walks the other coordinates.
    """
    n, r = chart.n, chart.r
    for total in range(1, bound + 1):
        for exps in _compositions(total, n + 1):
            a, s = exps[:n], exps[n]
            walked = [i for i in range(r) if not a[i]]
            if not walked:
                if not s:
                    yield a, (0,) * n
                continue
            b = [0] * n
            for step in _compositions(s, len(walked)):
                for i, e in zip(walked, step):
                    b[i] = e
                yield a, tuple(b)


def _window(chart: NCChart, level: int, max_poly: int) -> tuple:
    """Pairs (pole order, exponent) of the monomials with pole order <= level
    and polynomial degree <= max_poly, deepest pole first."""
    return tuple((pole, alpha) for pole in range(level, -1, -1)
                 for alpha in chart.monomials_with_pole(pole, max_poly))


def _window_size(chart: NCChart, level: int, max_poly: int) -> int:
    """len(_window(chart, level, max_poly)) without building the window.

    Pole order 0 leaves C(m+n, n) exponents in N^n of degree <= m.  Pole
    order p >= 1 spreads over s of the r dividing coordinates, each at
    least 1, in C(r, s) C(p-1, s-1) ways, and the other n - s coordinates
    take degree <= m in C(m+n-s, n-s) ways.
    """
    n, r, m = chart.n, chart.r, max_poly
    return math.comb(m + n, n) + sum(
        math.comb(r, s) * math.comb(p - 1, s - 1) * math.comb(m + n - s, n - s)
        for p in range(1, level + 1) for s in range(1, min(r, p) + 1))


def pole_filtration_annihilator(chart: NCChart, bound: int = 6) -> AnnihilatorReport:
    """Certify Ann Gr_F = (x_l xi_l, xi_m) on the scanned window.

    Containment holds with no scan: lifted, x_l xi_l keeps the exponent and
    xi_m only lowers a non-pole exponent, so neither raises the pole order;
    `stability_checks` counts those n * |window| checks.  Reverse: every
    symbol monomial outside the ideal acts nonzero on the witness
    1/(product of the x_l named by its d-support).  The scan walks only
    those monomials, listed directly from the chart, and keeps them on the
    report: `prop21_inclusion` lists the ideal's monomials as their
    complement, with no second walk.
    """
    ideal = theta_XZ_ideal(chart)
    r = chart.r
    smooth = (0,) * (chart.n - r)
    standard = tuple(_outside_monomials(chart, bound))
    failures = []
    for a, b in standard:
        witness = tuple(-1 if e else 0 for e in b[:r]) + smooth
        coeff, exp = _apply_lift(chart, a, b, witness)
        if not (coeff and chart.pole_order(exp) == chart.pole_order(witness) + sum(b)):
            failures.append(f"x^{a} xi^{b} acts nonzero on x^{witness}")
    return AnnihilatorReport(chart, ideal, chart.n * _window_size(chart, bound, bound),
                             standard, tuple(failures), bound)


def goodness_scan(chart: NCChart, bound: int = 6) -> tuple[bool, Iterator[dict]]:
    """Certify that first-order operators generate each new level from r on:
    every top generator x^beta of F^(j+1) is a single derivation applied to a
    generator of F^j.

    This holds with no scan.  For j >= r the pole order j + 1 > r is spread
    over the r dividing coordinates, so some beta_i <= -2 (pigeonhole), and
    d_i x^(beta + e_i) = (beta_i + 1) x^beta with beta + e_i of pole order j.
    The transcript names that derivation for each generator; its entries are
    built as they are read.
    """
    return True, ({"level": j + 1, "generator": list(beta),
                   "derivation": next(i for i, e in enumerate(beta) if e <= -2),
                   "ok": True}
                  for j in range(chart.r, bound + 1)
                  for beta in chart.monomials_with_pole(j + 1, 0))


class LogLattice:
    """Rank-m lattice with logarithmic connection matrices over Q[x].

    gammas[l] is the matrix of the action of x_l d_l (l < r) or d_l
    (l >= r) on the frame, on top of the derivation itself.  The scans run
    on integers: `denominator` D is the lcm of the denominators of every
    gamma coefficient, and apply_derivation returns D times the action, so
    the image of d^b carries the implicit denominator D^|b|.  The scans
    read only supports, and cancellation is decided exactly on integers.
    The images of d^b on frame elements, and their pole profiles, are kept
    as they are computed.
    """

    __slots__ = ("chart", "rank", "gammas", "denominator", "_steps", "_images",
                 "_profiles")

    def __init__(self, chart: NCChart, rank: int, gammas):
        self.chart = chart
        self.rank = rank
        self._images: dict = {}
        self._profiles: dict = {}
        coords = coordinate_names(chart.n)
        mats = []
        if len(gammas) != chart.n:
            raise ValueError("one connection matrix per coordinate")
        for g in gammas:
            if len(g) != rank:
                raise ValueError("connection matrix of wrong rank")
            rows = []
            for row in g:
                rows.append(tuple(
                    e if isinstance(e, MPoly) else MPoly.const(coords, e)
                    for e in row))
            mats.append(tuple(rows))
        self.gammas = tuple(mats)
        scale = self.denominator = math.lcm(*(
            c.denominator for g in mats for row in g for e in row
            for c in e.terms.values()))
        # _steps[l][j]: one (i, shift, D * c) per term c x^shift of
        # gamma_l[i][j], with shift None for a constant term
        self._steps = tuple(
            tuple(tuple((i, e if any(e) else None, c.numerator * (scale // c.denominator))
                        for i in range(rank) for e, c in g[i][j].terms.items())
                  for j in range(rank))
            for g in mats)

    def _derive(self, l: int, p: MPoly) -> MPoly:
        coords = coordinate_names(self.chart.n)
        d = p.diff(coords[l])
        if l < self.chart.r:
            return MPoly.var(coords, coords[l]) * d
        return d

    def integrability_failure(self):
        """None when flat; otherwise (l, k, commutator matrix)."""
        for l in range(self.chart.n):
            for k in range(l + 1, self.chart.n):
                gl, gk = self.gammas[l], self.gammas[k]
                dlk = [[self._derive(l, gk[i][j]) for j in range(self.rank)]
                       for i in range(self.rank)]
                dkl = [[self._derive(k, gl[i][j]) for j in range(self.rank)]
                       for i in range(self.rank)]
                bracket = mat_sub(mat_mul([list(r) for r in gl], [list(r) for r in gk]),
                                  mat_mul([list(r) for r in gk], [list(r) for r in gl]))
                total = mat_sub(mat_sub(dlk, dkl), [[-e for e in row] for row in bracket])
                # total = der_l(G_k) - der_k(G_l) + [G_l, G_k]
                if any(not e.is_zero() for row in total for e in row):
                    return l, k, total
        return None

    # elements of the windowed module: dict[(alpha, frame index)] -> int,
    # nonzero entries only

    def apply_derivation(self, l: int, elem: dict) -> dict:
        """D times the action of x_l d_l (l < r) or d_l (l >= r) twisted by
        gamma."""
        scale = self.denominator
        dividing = l < self.chart.r
        steps = self._steps[l]
        out: dict = {}
        get = out.get
        for (alpha, j), c in elem.items():
            a = alpha[l]
            if a:
                key = (alpha if dividing else alpha[:l] + (a - 1,) + alpha[l + 1:], j)
                out[key] = get(key, 0) + c * a * scale
            for i, e, ce in steps[j]:
                key = (alpha if e is None else tuple(map(add, alpha, e)), i)
                out[key] = get(key, 0) + c * ce
        return {key: c for key, c in out.items() if c}

    def derivation_image(self, alpha: tuple, j: int, b: tuple) -> dict:
        """D^|b| times the image of d^b on the frame element x^alpha e_j,
        computed once per lattice and then read from its memo.

        d_l for a dividing coordinate is realized as x_l^(-1) (x_l d_l).
        The coordinates act in increasing order, so the image for b is one
        derivation, along the last nonzero coordinate l of b, on the image
        for b less one unit at l.
        """
        key = (alpha, j, b)
        image = self._images.get(key)
        if image is not None:
            return image
        l = max((i for i, e in enumerate(b) if e), default=None)
        if l is None:
            image = {(alpha, j): 1}
        else:
            lower = b[:l] + (b[l] - 1,) + b[l + 1:]
            image = self.apply_derivation(l, self.derivation_image(alpha, j, lower))
            if l < self.chart.r:
                image = {(beta[:l] + (beta[l] - 1,) + beta[l + 1:], i): c
                         for (beta, i), c in image.items()}
        self._images[key] = image
        return image

    def lift_pole_order(self, a: tuple, b: tuple, alpha: tuple, j: int) -> int | None:
        """Pole order of x^a d^b (x^alpha e_j); None for the zero image.

        Read from the pole profile of the d^b image, memoised per (alpha,
        j, b): the distinct pole vectors (max(0, -beta_i) for i < r) of its
        exponents beta, each of which x^a lowers by a.
        """
        key = (alpha, j, b)
        profile = self._profiles.get(key)
        if profile is None:
            r = self.chart.r
            profile = self._profiles[key] = tuple({
                tuple(-e if e < 0 else 0 for e in beta[:r]): None
                for beta, _i in self.derivation_image(alpha, j, b)})
        if not profile:
            return None
        return max(sum(p - s if p > s else 0 for p, s in zip(poles, a))
                   for poles in profile)


@dataclass(frozen=True)
class ForwardReport:
    ideal: Ideal
    radical: bool
    checks: int
    inclusion_holds: bool

    @property
    def certified(self) -> bool:
        return self.radical and self.inclusion_holds

    def to_dict(self) -> dict:
        return {"ideal": [str(g) for g in self.ideal.gens],
                "radical": self.radical,
                "generators_stabilize": True,
                "inclusion_holds": self.inclusion_holds,
                "checks": self.checks,
                "failures": []}


def theorem_forward_filtration(lattice: LogLattice, bound: int = 4) -> ForwardReport:
    """Forward comparison: a log lattice induces the filtration with level
    zero the lattice twisted by the r of its chart, and every logarithmic
    symbol stabilizes every scanned level, so the graded annihilator is
    the radical squarefree ideal.

    Stability holds with no scan: the gammas are polynomials, so
    x_l d_l + gamma_l and d_m + gamma_m never raise the pole order
    (Deligne, LNM 163); `checks` counts the n * rank checks of each window
    monomial at each level r .. r + bound that contains it.  Inclusion of
    the annihilator in the ideal is decided by its contrapositive: no
    x^a d^b of degree <= bound outside the ideal annihilates the window.
    Each scan walks the window deepest pole first, where a failing
    x^a d^b meets its breaking element early.

    Raises on non-integrable input, reporting the failed commutator.
    """
    chart = lattice.chart
    fail = lattice.integrability_failure()
    if fail is not None:
        l, k, mat = fail
        raise ValueError(
            f"lattice is not integrable: [D_{l+1}, D_{k+1}] has nonzero entries "
            f"{[[str(e) for e in row] for row in mat]}")
    twist = chart.r
    ideal = theta_XZ_ideal(chart)
    window = _window(chart, twist + bound, bound)
    levels = sum(twist + bound + 1 - max(pole, twist) for pole, _alpha in window)
    standard = tuple(_outside_monomials(chart, bound))
    holds = next(_outside_annihilators(lattice, window, standard), None) is None
    return ForwardReport(ideal, is_radical_squarefree_monomial(ideal),
                         chart.n * lattice.rank * levels, holds)


def _outside_annihilators(lattice: LogLattice, window: tuple, standard: tuple):
    """Exponents (a, b) of the x^a d^b in `standard`, a walk of
    `_outside_monomials`, that annihilate the window, from the top degree
    down: the reverse of `_symbol_monomials` order.

    x^a' d^b failing on the window makes x^a d^b fail for every a <= a'
    (pole orders only rise as a falls), and a' comes before a, so a
    dominated a is not scanned."""
    failed: dict = {}
    for a, b in reversed(standard):
        highs = failed.setdefault(b, [])
        if any(all(s <= t for s, t in zip(a, high)) for high in highs):
            continue
        if _breaking_element(lattice, window, a, b) is None:
            yield a, b
        else:
            highs.append(a)


@dataclass(frozen=True)
class Prop21Report:
    holds: bool
    annihilating: tuple
    violations: tuple

    def to_dict(self) -> dict:
        return {"holds": self.holds,
                "annihilating_monomials": list(self.annihilating),
                "violations": list(self.violations)}


def prop21_inclusion(report: AnnihilatorReport, bound: int = 4) -> Prop21Report:
    """Graded-annihilator monomials up to the bound all lie in the
    logarithmic symbol ideal, for the bare pole module of the chart that
    `report` scanned, at a bound at least this one.

    A passing scan certifies that the annihilator is the ideal, so the
    symbol monomials up to this bound that lie in the ideal are listed, and
    none can violate.  They are the complement of the standard monomials
    the scan walked and kept, read by a merge (`_ideal_monomials`): no
    membership test and no second walk.
    """
    if bound > report.bound:
        raise ValueError(f"inclusion bound {bound} exceeds the scan bound {report.bound}")
    if not report.matches_ideal:
        return Prop21Report(False, (), ("window scan failed",))
    return Prop21Report(True, _ideal_monomials(report.chart, bound, report.standard), ())


def _ideal_monomials(chart: NCChart, bound: int, standard) -> tuple:
    """Texts of the symbol monomials of degree 1 .. bound in the ideal whose
    standard monomials `standard` yields in `_symbol_monomials` order (it
    may go on past the bound; that part is not read).

    Both walks are ordered alike, so the ideal's monomials are those of
    `_symbol_monomials` that the next standard one does not equal.
    """
    ring = chart.ring
    outside = iter(standard)
    skip = next(outside, None)
    found = []
    for mono in _symbol_monomials(chart, bound):
        if mono == skip:
            skip = next(outside, None)
        else:
            found.append(format_monomial(ring, mono[0] + mono[1]))
    return tuple(found)


def _breaking_element(lattice: LogLattice, window: tuple, a: tuple, b: tuple):
    """The first (alpha, j) of the window such that x^a d^b does not map
    x^alpha e_j from level twist + k into level twist + k + |b| - 1, with
    twist the chart's r; None when x^a d^b annihilates the window.

    A monomial of pole order p lies in the levels with k >= max(0, p - twist);
    the target level grows with k, so the lowest of them decides.
    """
    twist = lattice.chart.r
    d = sum(b)
    for pole, alpha in window:
        k = max(0, pole - twist)
        for j in range(lattice.rank):
            order = lattice.lift_pole_order(a, b, alpha, j)
            if order is not None and (k + d - 1 < 0 or order > twist + k + d - 1):
                return alpha, j
    return None


@dataclass(frozen=True)
class BackwardReport:
    pole_bound: int
    certified: tuple        # one text per theta-matrix entry
    regular: bool
    failing_entries: tuple

    @property
    def verdict(self) -> str:
        return REGULAR if self.regular else IRREGULAR

    def to_dict(self) -> dict:
        return {"pole_bound": self.pole_bound,
                "verdict": self.verdict,
                "certified": list(self.certified),
                "obstructions": list(self.failing_entries)}


def theorem_backward_extraction(p: UnivarOperator, pole_bound: int) -> BackwardReport:
    """Backward comparison at a curve point.

    The operator's lattice has theta-action entries with poles of order at
    most s = pole_bound, so x^(s+1) d stabilizes it: every entry is
    certified, since an entry past the bound raises.  With radicality as
    the hypothesis, stability must already hold at s = 0: the verdict is
    read off the unweighted entry orders.
    """
    if not isinstance(p, UnivarOperator):
        raise TypeError(f"backward extraction needs an operator, not a {type(p).__name__}")
    matrix = cyclic_theta_matrix(p)
    certified = []
    failing = []
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            o = entry.ord_at(0)
            if o != INF and o < -pole_bound:
                raise ValueError(
                    f"entry ({i},{j}) = {entry} has pole order {-o} > {pole_bound}")
            certified.append(f"x^{pole_bound}*T[{i}][{j}] is pole-free")
            if o != INF and o < 0:
                failing.append(f"T[{i}][{j}] = {entry} has a pole")
    return BackwardReport(pole_bound, tuple(certified), not failing, tuple(failing))
