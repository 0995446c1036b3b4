"""Rank-m connection systems on opens of the line.

A system is stored through the matrix A with solutions satisfying
y' + A y = 0.  Both analyses run on the module of coefficient functionals,
whose derivation is c -> c' + c B with B = -A: iterating it from a cyclic
functional produces the scalar operator, and the theta-saturation
L -> L + theta L of the standard lattice witnesses the coherent stable
extension.  The two verdicts are produced independently and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dmod import ContradictionError
from .lattices import LocalLattice
from .linalg import determinant, gauss_solve, mat_mul
from .operators import UnivarOperator
from .polynomials import INF, MPoly, RatFun, as_rat, factor_rational, univar_gcd
from .regularity import (FuchsCertificate, GLOBAL_IRREGULAR, GLOBAL_REGULAR,
                         GLOBAL_REGULAR_TESTED, INFINITY, fuchs_regular_at)


class CyclicVectorError(RuntimeError):
    """The deterministic candidate schedule was exhausted."""


class ConnectionSystem:
    """An integrable connection of rank m given by its matrix over Q(x)."""

    __slots__ = ("var", "rank", "matrix")

    def __init__(self, matrix, var: str = "x"):
        self.rank = len(matrix)
        rows = []
        for row in matrix:
            if len(row) != self.rank:
                raise ValueError("connection matrix must be square")
            rows.append(tuple(e if isinstance(e, RatFun) else RatFun.const(var, e)
                              for e in row))
        self.var = var
        self.matrix = tuple(rows)

    @classmethod
    def companion(cls, p: UnivarOperator) -> "ConnectionSystem":
        """System whose solutions are (z, z', ..., z^(m-1)) for Pz = 0."""
        monic = p.monic()
        m = monic.order()
        var = monic.var
        zero = RatFun.zero(var)
        b = [[zero] * m for _ in range(m)]
        for i in range(m - 1):
            b[i][i + 1] = RatFun.const(var, 1)
        for j in range(m):
            b[m - 1][j] = -monic.coeff(j)
        # A = -B so that y' + A y = 0 reads y' = B y
        a = [[-e for e in row] for row in b]
        return cls(a, var)

    def flow_matrix(self):
        """B = -A: solutions satisfy y' = B y."""
        return [[-e for e in row] for row in self.matrix]

    def at_infinity(self, new_var: str = "t") -> "ConnectionSystem":
        """Chart t = 1/x: solutions transform with B~ = -t^-2 B(1/t)."""
        if new_var == self.var:
            new_var = "t" if self.var != "t" else "s"
        t2 = RatFun.x(new_var) ** 2
        a = [[-(-e.invert_var(new_var)) / t2 for e in row] for row in self.matrix]
        # A~ = -B~ = t^-2 B(1/t) = -t^-2 A(1/t)
        return ConnectionSystem(a, new_var)

    def shifted(self, c) -> "ConnectionSystem":
        """Translate the point c to the origin: A(x) -> A(x + c)."""
        return ConnectionSystem([[e.shift(c) for e in row] for row in self.matrix],
                                self.var)

    def conjugate(self, g) -> "ConnectionSystem":
        """Gauge by a constant invertible matrix: A -> g A g^-1."""
        m = self.rank
        var = self.var
        gq = [[as_rat(e) for e in row] for row in g]
        # column j of g^-1 solves g y = e_j
        inv_cols = [gauss_solve(gq, [Fraction(i == j) for i in range(m)],
                                Fraction(0), lambda f: not f) for j in range(m)]
        if None in inv_cols:
            raise ValueError("gauge matrix is singular")
        rat = [[RatFun.const(var, e) for e in row] for row in gq]
        ratinv = [[RatFun.const(var, col[i]) for col in inv_cols] for i in range(m)]
        prod = mat_mul(mat_mul(rat, [list(r) for r in self.matrix]), ratinv)
        return ConnectionSystem(prod, var)

    def functional_derivative(self, c: tuple) -> tuple:
        """Derivation on row functionals: c -> c' + c B."""
        b = self.flow_matrix()
        m = self.rank
        out = []
        for j in range(m):
            acc = c[j].derivative()
            for i in range(m):
                if not c[i].is_zero() and not b[i][j].is_zero():
                    acc = acc + c[i] * b[i][j]
            out.append(acc)
        return tuple(out)

    def pole_order_at(self, point) -> int:
        worst = 0
        for row in self.matrix:
            for e in row:
                o = e.ord_at(point)
                if o != INF:
                    worst = max(worst, -min(0, int(o)))
        return worst

    def singular_support(self):
        """Rational poles of A and the untested denominator factor."""
        denlcm = MPoly.const((self.var,), 1)
        for row in self.matrix:
            for e in row:
                g = univar_gcd(denlcm, e.den)
                extra, _ = e.den.univar_divmod(g)
                denlcm = denlcm * extra
        if denlcm.total_degree() <= 0:
            return [], MPoly.const((self.var,), 1)
        return factor_rational(denlcm)


@dataclass(frozen=True)
class CyclicVectorResult:
    operator: UnivarOperator
    cyclic_vector: tuple
    iterate_matrix: tuple
    determinant: RatFun

    def to_dict(self) -> dict:
        return {"operator": str(self.operator),
                "cyclic_vector": [str(e) for e in self.cyclic_vector],
                "determinant": str(self.determinant)}


def _candidate_schedule(system: ConnectionSystem):
    m = system.rank
    var = system.var
    one = RatFun.const(var, 1)
    zero = RatFun.zero(var)
    seen = set()

    def emit(vec):
        key = tuple(str(e) for e in vec)
        if key not in seen:
            seen.add(key)
            yield vec

    for i in range(m):
        yield from emit(tuple(one if j == i else zero for j in range(m)))
    for mask in sorted(range(1, 1 << m), key=lambda s: (bin(s).count("1"), s)):
        yield from emit(tuple(one if (mask >> j) & 1 else zero for j in range(m)))
    x = RatFun.x(var)
    for ks in _exponent_grid(m, m + 1):
        yield from emit(tuple(x ** k for k in ks))


def _exponent_grid(length: int, top: int):
    if length == 0:
        yield ()
        return
    for rest in _exponent_grid(length - 1, top):
        for k in range(top + 1):
            yield (k,) + rest


def cyclic_vector(system: ConnectionSystem) -> CyclicVectorResult:
    """Reduce the system to a monic scalar operator of order m.

    Deterministic schedule: standard functionals, then 0/1 combinations,
    then monomial-coefficient vectors over a fixed exponent grid; the first
    candidate with invertible iterate matrix wins.
    """
    m = system.rank
    var = system.var
    zero = RatFun.zero(var)
    one = RatFun.const(var, 1)
    for cand in _candidate_schedule(system):
        iterates = [cand]
        for _ in range(m - 1):
            iterates.append(system.functional_derivative(iterates[-1]))
        matrix = [list(c) for c in iterates]
        det = determinant(matrix, zero, one, lambda f: f.is_zero())
        if det.is_zero():
            continue
        final = system.functional_derivative(iterates[-1])
        # solve sum_i g_i c_i = c_m  =>  monic P = d^m - sum g_i d^i
        cols = [[iterates[i][j] for i in range(m)] for j in range(m)]
        sol = gauss_solve(cols, list(final), zero, lambda f: f.is_zero())
        if sol is None:
            continue
        coeffs = [-g for g in sol] + [one]
        p = UnivarOperator(var, coeffs)
        return CyclicVectorResult(p, cand,
                                  tuple(tuple(r) for r in matrix), det)
    raise CyclicVectorError(
        f"no cyclic functional found for rank {m} within the schedule")


STABILIZED = "stabilized"
EXCEEDED_BOUND = "exceeded_bound"


@dataclass(frozen=True)
class SaturationResult:
    status: str
    steps: int
    max_steps: int
    lattice: LocalLattice | None

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED

    def to_dict(self) -> dict:
        return {"status": self.status, "steps": self.steps,
                "max_steps": self.max_steps}


def saturate_lattice(system: ConnectionSystem, point,
                     max_steps: int | None = None) -> SaturationResult:
    """Iterate L -> L + theta L from the standard lattice at the point.

    Stabilization certifies a theta-stable coherent extension; exceeding the
    bound is explicitly not a verdict of irregularity.
    """
    if point is INFINITY:
        return saturate_lattice(system.at_infinity(), Fraction(0), max_steps)
    point = as_rat(point)
    if point:
        # valuations at the origin are trailing-exponent lookups
        return saturate_lattice(system.shifted(point), Fraction(0), max_steps)
    m = system.rank
    if max_steps is None:
        max_steps = m * (system.pole_order_at(point) + 1) + 4
    var = system.var
    shift = RatFun.x(var)

    def theta(vec):
        d = system.functional_derivative(vec)
        return tuple(shift * e for e in d)

    lattice = LocalLattice.standard(point, m, var)
    for step in range(max_steps + 1):
        images = [theta(g) for g in lattice.generators()]
        new = [v for v in images if not lattice.contains(v)]
        if not new:
            return SaturationResult(STABILIZED, step, max_steps, lattice)
        lattice = lattice.extended(new)
    return SaturationResult(EXCEEDED_BOUND, max_steps, max_steps, None)


@dataclass(frozen=True)
class SystemPointReport:
    point: object
    fuchs: FuchsCertificate
    saturation: SaturationResult
    stable_extension_exists: bool

    def to_dict(self) -> dict:
        return {"point": str(self.point),
                "fuchs": self.fuchs.verdict,
                "saturation": self.saturation.to_dict(),
                "stable_coherent_extension": self.stable_extension_exists,
                "certificate": self.fuchs.to_dict()}


@dataclass(frozen=True)
class SystemReport:
    system: ConnectionSystem
    cyclic: CyclicVectorResult
    points: tuple
    untested: tuple
    verdict: str

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "operator": str(self.cyclic.operator),
                "points": [p.to_dict() for p in self.points],
                "untested_factors": [str(f) for f in self.untested]}


def regular_system_report(system: ConnectionSystem,
                          max_steps: int | None = None) -> SystemReport:
    """Per-point verdicts from the scalar reduction and from saturation.

    A stabilized lattice together with a Fuchs-irregular verdict at the same
    point is a genuine contradiction and aborts with both certificates.
    """
    cyc = cyclic_vector(system)
    roots, leftover = system.singular_support()
    points = [root for root, _ in roots] + [INFINITY]
    reports = []
    all_regular = True
    for pt in points:
        cert = fuchs_regular_at(cyc.operator, pt)
        sat = saturate_lattice(system, pt, max_steps)
        if sat.stabilized and not cert.regular:
            raise ContradictionError(
                f"saturation stabilized at {pt} but the Fuchs test is irregular",
                details={"point": str(pt), "fuchs": cert.to_dict(),
                         "saturation": sat.to_dict(),
                         "operator": str(cyc.operator)})
        if not cert.regular:
            all_regular = False
        reports.append(SystemPointReport(pt, cert, sat, sat.stabilized))
    untested = (leftover,) if leftover.total_degree() > 0 else ()
    if not all_regular:
        verdict = GLOBAL_IRREGULAR
    elif untested:
        verdict = GLOBAL_REGULAR_TESTED
    else:
        verdict = GLOBAL_REGULAR
    return SystemReport(system, cyc, tuple(reports), untested, verdict)
