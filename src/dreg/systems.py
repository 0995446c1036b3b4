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

from .errors import ContradictionError
from .lattices import PolarLattice, laurent_rows, theta_terms
from .linalg import gauss_solve
from .operators import UnivarOperator
from .polynomials import RatFun, as_rat, denominator_lcm
from .regularity import (FuchsCertificate, INFINITY, fuchs_regular_at, global_verdict,
                         singular_locus)


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
            b[i][i + 1] = RatFun.one(var)
        for j in range(m):
            b[m - 1][j] = -monic.coeff(j)
        # A = -B so that y' + A y = 0 reads y' = B y
        a = [[-e for e in row] for row in b]
        return cls(a, var)

    def flow_matrix(self):
        """B = -A: solutions satisfy y' = B y."""
        return [[-e for e in row] for row in self.matrix]

    def at_infinity(self) -> "ConnectionSystem":
        """Chart t = 1/x: solutions transform with B~ = -t^-2 B(1/t)."""
        # A~ = -B~ = t^-2 B(1/t) = -t^-2 A(1/t); dividing by the single term
        # t^2 runs no gcd
        t2 = RatFun.x("t") ** 2
        a = [[-e.invert_var("t") / t2 for e in row] for row in self.matrix]
        return ConnectionSystem(a, "t")

    def shifted(self, c) -> "ConnectionSystem":
        """Translate the point c to the origin: A(x) -> A(x + c)."""
        return ConnectionSystem([[e.shift(c) for e in row] for row in self.matrix],
                                self.var)

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


@dataclass(frozen=True)
class CyclicVectorResult:
    operator: UnivarOperator
    cyclic_vector: tuple
    determinant: RatFun

    def to_dict(self) -> dict:
        return {"operator": str(self.operator),
                "cyclic_vector": [str(e) for e in self.cyclic_vector],
                "determinant": str(self.determinant)}


def _candidate_schedule(system: ConnectionSystem):
    m = system.rank
    var = system.var
    one = RatFun.one(var)
    zero = RatFun.zero(var)
    seen = set()

    def emit(vec):
        if vec not in seen:
            seen.add(vec)
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
    one = RatFun.one(var)
    for cand in _candidate_schedule(system):
        iterates = [cand]
        for _ in range(m):
            iterates.append(system.functional_derivative(iterates[-1]))
        final = iterates.pop()
        # solve sum_i g_i c_i = c_m  =>  monic P = d^m - sum g_i d^i; the
        # columns c_i have the determinant of the iterate matrix
        cols = [[c[j] for c in iterates] for j in range(m)]
        det, sol = gauss_solve(cols, final, zero, one)
        if sol is None:
            continue
        p = UnivarOperator(var, [-g for g in sol] + [one])
        return CyclicVectorResult(p, cand, det)
    raise CyclicVectorError(
        f"no cyclic functional found for rank {m} within the schedule")


STABILIZED = "stabilized"
EXCEEDED_BOUND = "exceeded_bound"


@dataclass(frozen=True)
class SaturationResult:
    status: str
    steps: int
    max_steps: int
    lattice: PolarLattice | None

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED

    def to_dict(self) -> dict:
        return {"status": self.status, "steps": self.steps,
                "max_steps": self.max_steps}


def saturate_lattice(system: ConnectionSystem, point,
                     max_steps: int | None = None) -> SaturationResult:
    """Iterate L -> L + theta L from the standard lattice at the point.

    Every iterate contains O^m, so it is held by its polar parts.  theta is
    Q-linear and theta(f v) = x f' v + f theta(v) with x f' in O, so step s
    needs theta only of the rows added at step s - 1; theta of older rows
    already lies in L_s.  Step 0 tests theta(e_i) = x (row i of B), which
    puts theta(O^m) inside L_1.

    Step s thus inserts theta of the rows L_s added (L_0 = O^m) and builds
    L_(s+1) = L_s + theta L_s: step s adding nothing means that L_s is
    theta-stable.  A rank-m connection is regular at the point exactly when
    L_(m-1) = L + theta L + ... + theta^(m-1) L is theta-stable (Gerard &
    Levelt 1973), and a theta-stable lattice forces regularity (Deligne,
    LNM 163).  So if step m - 1 still adds rows no later step can
    stabilize: the loop stops after step min(max_steps, m - 1) with what
    the run to max_steps would return, exceeded_bound with steps =
    max_steps.  max_steps defaults to m - 1, the fewest steps that decide.

    Stabilization certifies a theta-stable coherent extension.  The result
    fields keep their meaning: exceeded_bound reports the bound running
    out, not an irregularity verdict, although at max_steps >= m - 1 it was
    decided at step m - 1.
    """
    if point is INFINITY:
        return saturate_lattice(system.at_infinity(), Fraction(0), max_steps)
    point = as_rat(point)
    if point:
        # lattices live at the origin, where Laurent tails are power-series divisions
        return saturate_lattice(system.shifted(point), Fraction(0), max_steps)
    m = system.rank
    if max_steps is None:
        max_steps = m - 1
    # theta = x (v' + v B), of which the lattice reads only the polar terms
    flow = laurent_rows(system.flow_matrix())
    lattice = PolarLattice(m)
    new = [{(0, i): 1} for i in range(m)]
    for step in range(min(max_steps, m - 1) + 1):
        added = []
        for v in new:
            added += lattice.insert(theta_terms(v, flow))
        if not added:
            return SaturationResult(STABILIZED, step, max_steps, lattice)
        new = added
    return SaturationResult(EXCEEDED_BOUND, max_steps, max_steps, None)


@dataclass(frozen=True)
class SystemPointReport:
    point: object
    fuchs: FuchsCertificate
    saturation: SaturationResult

    def to_dict(self) -> dict:
        return {"point": str(self.point),
                "fuchs": self.fuchs.verdict,
                "saturation": self.saturation.to_dict(),
                "stable_coherent_extension": self.saturation.stabilized,
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
    point is a genuine contradiction and aborts with both certificates; so
    is a Fuchs-regular point whose saturation exceeded a bound of at least
    m - 1 steps, since by Gerard-Levelt L_(m-1) is then theta-stable.
    """
    cyc = cyclic_vector(system)
    points, untested = singular_locus(
        denominator_lcm(e for row in system.matrix for e in row), system.var)
    reports = []
    for pt in points:
        cert = fuchs_regular_at(cyc.operator, pt)
        sat = saturate_lattice(system, pt, max_steps)
        decided = sat.stabilized or sat.max_steps >= system.rank - 1
        if decided and sat.stabilized != cert.regular:
            raise ContradictionError(
                f"saturation {sat.status} at {pt} but the Fuchs test is {cert.verdict}",
                details={"point": str(pt), "fuchs": cert.to_dict(),
                         "saturation": sat.to_dict(),
                         "operator": str(cyc.operator)})
        reports.append(SystemPointReport(pt, cert, sat))
    regular = all(r.fuchs.regular for r in reports)
    return SystemReport(system, cyc, tuple(reports), untested,
                        global_verdict(regular, untested))
