"""Request pools for the four benchmark workloads.

Every request any seed can choose lives in a fixed pool built from
POOL_SEED, so the SHA-256 of every request's report bytes can be recorded
once (expected.json) and checked on every later run.  The pool is split
into cells of inputs that cost about the same (one operator shape, one
Weyl family and verb, one chart); the run seed picks `per_cell` inputs
from every cell and shuffles the requests.  Every seed thus runs the same
mix, which keeps the seed-to-seed spread of the timings small.

A request carries its argv for `dreg.cli.main`, the files it reads
(written before timing starts) and the answers theory predicts for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

POOL_SEED = 20261017
WORK_DIR = "perfbench/work"

REGULAR = "regular"
IRREGULAR = "irregular"
TESTED = "regular over tested points"


@dataclass(frozen=True)
class Request:
    key: str                      # stable name within the pool
    argv: tuple
    files: tuple = ()             # (path relative to the checkout, content)
    checks: tuple = ()            # (json path, expected value) pairs
    exit_code: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple                  # cell -> groups -> requests; a group shares one input
    per_cell: int                 # groups a seed picks from each cell
    fixed: tuple = ()             # requests every seed runs
    cliffs: tuple = ()            # run once per traced pass, outside the loop

    @property
    def pool(self) -> tuple:
        """Every request some seed can run, in a fixed order."""
        grouped = [r for cell in self.cells for group in cell for r in group]
        return tuple(grouped) + tuple(self.fixed) + tuple(self.cliffs)

    def select(self, seed: int) -> list:
        rng = random.Random(seed)
        chosen = list(self.fixed)
        for cell in self.cells:
            for group in rng.sample(cell, self.per_cell):
                chosen += group
        rng.shuffle(chosen)
        return chosen


# -- formatting ----------------------------------------------------------------


def _sum(terms) -> str:
    """Sum of (coefficient, monomial word) pairs in parser syntax; "1" is a constant."""
    parts = []
    for c, word in terms:
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if word == "1" else (word if mag == 1 else f"{mag}*{word}")
        if parts:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) or "0"


def _poly(coeffs, var: str = "x") -> str:
    """Dense univariate polynomial, coefficients from degree 0 up."""
    words = ["1", var] + [f"{var}^{k}" for k in range(2, len(coeffs))]
    return _sum(reversed(list(zip(coeffs, words))))


def _evaluate(coeffs, x: Q) -> Q:
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisible_by_x2_plus_1(coeffs) -> bool:
    # x^2 = -1: fold powers and test the remainder a + b*x for zero
    a = sum(c * (-1) ** (k // 2) for k, c in enumerate(coeffs) if k % 2 == 0)
    b = sum(c * (-1) ** (k // 2) for k, c in enumerate(coeffs) if k % 2 == 1)
    return a == 0 and b == 0


# -- curves and systems: monic operators with prescribed pole orders ------------

POINTS = tuple(Q(s) for s in ("1", "-1", "2", "-2", "1/2", "-1/2", "2/3",
                               "-3/2", "3", "1/3", "-3/4", "5/2"))
SMALL = tuple(Q(s) for s in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3",
                              "2/3", "-3/4", "5/3", "4"))
KINDS = ("fuchsian", "quadratic", "irregular_0", "irregular_c", "irregular_inf")


@dataclass(frozen=True)
class Operator:
    expression: str
    coeff_strings: tuple          # b_0 .. b_{n-1}, "0" when absent
    c: Q                          # the nonzero rational pole
    at_0: str                     # Fuchs verdict at 0 by construction
    at_c: str
    at_inf: str
    global_verdict: str


def _numerator(rng, degree: int, c: Q, k0: int, kc: int, quad: int):
    """Random polynomial of exact degree that keeps every prescribed pole."""
    while True:
        coeffs = [rng.choice(SMALL + (Q(0),)) for _ in range(degree)]
        coeffs.append(rng.choice(SMALL))
        if k0 and coeffs[0] == 0:
            continue
        if kc and _evaluate(coeffs, c) == 0:
            continue
        if quad and _divisible_by_x2_plus_1(coeffs):
            continue
        return coeffs


def _denominator(c: Q, k0: int, kc: int, quad: int) -> str:
    den = []
    if k0:
        den.append("x" if k0 == 1 else f"x^{k0}")
    if kc:
        lin = f"(x {'-' if c > 0 else '+'} {abs(c)})"
        den.append(lin if kc == 1 else f"{lin}^{kc}")
    if quad:
        den.append("(x^2 + 1)" if quad == 1 else f"(x^2 + 1)^{quad}")
    return "*".join(den)


def operator_shape(rng, order: int, kind: str) -> tuple:
    """Pole orders and numerator degree of each coefficient of a random operator.

    For d^n + sum b_i d^i with b_i = N_i / (x^k0 (x - c)^kc (x^2 + 1)^q), the
    Fuchs bound at a finite point allows a pole of order at most n - i in
    b_i; at infinity it asks deg N_i - deg D_i <= -(n - i).  One coefficient
    breaks the bound that `kind` names, or (quadratic) carries an x^2 + 1
    pole, which the program cannot test over Q.  Entries are
    (k0, kc, q, deg N_i), or None for a zero coefficient.
    """
    n = order
    bad = rng.randrange(n)
    shape = []
    for i in range(n):
        slack = n - i
        breaks = i == bad
        k0 = slack + 1 if breaks and kind == "irregular_0" else rng.randint(0, slack)
        kc = slack + 1 if breaks and kind == "irregular_c" else rng.randint(0, slack)
        quad = 0
        if kind == "quadratic" and breaks:
            quad = slack
        elif kind == "quadratic" and rng.random() < 0.5:
            quad = rng.randint(1, slack)
        top = k0 + kc + 2 * quad - slack      # highest numerator degree regular at infinity
        if breaks and kind == "irregular_inf":
            shape.append((k0, kc, quad, max(top + 1, 0)))
        elif top < 0 or (not breaks and rng.random() < 0.2):
            shape.append(None)
        else:
            shape.append((k0, kc, quad, rng.randint(0, top)))
    return tuple(shape)


def random_operator(rng, kind: str, shape: tuple) -> Operator:
    """An operator of the given shape with random pole c and numerators."""
    n = len(shape)
    c = rng.choice(POINTS)
    coeffs = []
    for spec in shape:
        if spec is None:
            coeffs.append("0")
            continue
        k0, kc, quad, degree = spec
        body = f"({_poly(_numerator(rng, degree, c, k0, kc, quad))})"
        den = _denominator(c, k0, kc, quad)
        if "*" in den:
            den = f"({den})"
        coeffs.append(f"{body}/{den}" if den else body)
    parts = [f"d^{n}" if n > 1 else "d"]
    for i in range(n - 1, -1, -1):
        if coeffs[i] != "0":
            parts.append(f"+ {coeffs[i]}" + ("" if i == 0 else ("*d" if i == 1 else f"*d^{i}")))
    used_quad = any(spec is not None and spec[2] for spec in shape)
    verdict = IRREGULAR if kind.startswith("irregular") else (TESTED if used_quad else REGULAR)
    return Operator(" ".join(parts), tuple(coeffs), c,
                    IRREGULAR if kind == "irregular_0" else REGULAR,
                    IRREGULAR if kind == "irregular_c" else REGULAR,
                    IRREGULAR if kind == "irregular_inf" else REGULAR,
                    verdict)


# -- curves ---------------------------------------------------------------------------

J = ("--format", "json")
VERDICT0 = ("verdicts", 0, "verdict")
AGREE = (("summary", "agree"), True)
POLE_BOUND = "8"


def _curve_requests(key: str, expr: str, global_verdict: str, op: Operator | None = None) -> tuple:
    """fuchs on P^1, compare at 0 and infinity, newton, theta and backward theorem.

    A generated operator `op` also carries its verdicts at 0, c and infinity.
    """
    reqs = [Request(f"{key}/fuchs", ("fuchs", expr) + J,
                    checks=((VERDICT0, global_verdict),))]
    for point in ("0", "inf"):
        checks = (AGREE,)
        if op is not None:
            want = op.at_0 if point == "0" else op.at_inf
            checks += ((("summary", "fuchs"), want), (("summary", "kashiwara"), want))
        reqs.append(Request(f"{key}/compare-{point}",
                            ("compare", expr, "--point", point) + J, checks=checks))
    if op is not None:
        reqs.append(Request(f"{key}/newton-c", ("newton", expr, f"--point={op.c}") + J,
                            checks=((VERDICT0, op.at_c),)))
        reqs.append(Request(f"{key}/theta", ("theta", expr) + J,
                            checks=((VERDICT0, op.at_0),)))
        reqs.append(Request(f"{key}/backward",
                            ("theorem", "--backward", expr, "--pole-bound", POLE_BOUND) + J,
                            checks=((VERDICT0, op.at_0),)))
    else:
        reqs.append(Request(f"{key}/newton-0", ("newton", expr) + J))
        reqs.append(Request(f"{key}/theta", ("theta", expr) + J))
        reqs.append(Request(f"{key}/backward",
                            ("theorem", "--backward", expr, "--pole-bound", POLE_BOUND) + J))
    return tuple(reqs)


def curves(corpus) -> Workload:
    """Cells hold one operator shape each; a seed picks one of its realizations."""
    rng = random.Random(POOL_SEED)
    cells = []
    for order in (1, 2, 3):
        for kind in KINDS:
            for s in range(3):
                shape = operator_shape(rng, order, kind)
                cell = []
                for v in range(3):
                    op = random_operator(rng, kind, shape)
                    key = f"curves/n{order}-{kind}-{s}{'abc'[v]}"
                    cell.append(_curve_requests(key, op.expression, op.global_verdict, op))
                cells.append(tuple(cell))
    fixed = []
    for entry in corpus.OPERATORS:
        fixed += _curve_requests(f"curves/{entry.name}", entry.expression, entry.global_verdict)
    return Workload("curves", tuple(cells), per_cell=1, fixed=tuple(fixed))


# -- systems ----------------------------------------------------------------------------

MAX_STEPS = "6"
# Companion system of d^3 + 3/4*x^2*d + 2/3/x^2: saturation at infinity
# swells (lattice entry degree 11 -> 16 -> 28 -> 48 over steps 4-7).
CLIFF_D3 = "rank 3\n0 ; -1 ; 0\n0 ; 0 ; -1\n2/3/x^2 ; 3/4*x^2 ; 0\n"


def _system_request(key: str, name: str, content: str, checks=()) -> Request:
    path = f"{WORK_DIR}/systems/{name}"
    return Request(key, ("system", "--file", path, "--max-steps", MAX_STEPS) + J,
                   files=((path, content),), checks=checks)


def systems(corpus) -> Workload:
    """Rank-2 companion systems y' + A y = 0, A = [[0, -1], [b_0, b_1]].

    Cells hold one shape of (b_0, b_1) each, since the pole orders set the
    cost; a seed picks one of its realizations.
    """
    rng = random.Random(POOL_SEED + 1)
    cells = []
    for kind in KINDS:
        for s in range(16):
            shape = operator_shape(rng, 2, kind)
            cell = []
            for v in range(3):
                op = random_operator(rng, kind, shape)
                b0, b1 = op.coeff_strings
                name = f"{kind}-{s}{'abc'[v]}.sys"
                checks = ((VERDICT0, op.global_verdict),)
                cell.append((_system_request(f"systems/{name}", name,
                                             f"rank 2\n0 ; -1\n{b0} ; {b1}\n", checks),))
            cells.append(tuple(cell))
    fixed = [_system_request(f"systems/{name}", name, content)
             for name, content in sorted(corpus.SYSTEM_FILES.items())]
    fixed.append(_system_request("systems/cliff-d3-saturation-inf", "cliff_d3.sys", CLIFF_D3))
    return Workload("systems", tuple(cells), per_cell=1, fixed=tuple(fixed))


# -- weyl -----------------------------------------------------------------------------------

PARAMS = tuple(Q(s) for s in ("1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5",
                               "3/5", "5/2", "7/3", "-1/2", "-1/3", "5/3", "3/7"))
CLIFF_WEYL = "x*dx*(x*dx + y*dy) - x*(x*dx + y*dy + 1)*(x*dx+1/2) ; dx*dy - 1"


def _appell_f1(a, b, b2, c):
    return [_sum([(1, "x*dx^2"), (-1, "x^2*dx^2"), (1, "y*dx*dy"), (-1, "x*y*dx*dy"),
                  (c, "dx"), (-(a + b + 1), "x*dx"), (-b, "y*dy"), (-a * b, "1")]),
            _sum([(1, "y*dy^2"), (-1, "y^2*dy^2"), (1, "x*dx*dy"), (-1, "x*y*dx*dy"),
                  (c, "dy"), (-(a + b2 + 1), "y*dy"), (-b2, "x*dx"), (-a * b2, "1")])]


def _appell_f2(a, b, b2, c, c2):
    return [_sum([(1, "x*dx^2"), (-1, "x^2*dx^2"), (-1, "x*y*dx*dy"),
                  (c, "dx"), (-(a + b + 1), "x*dx"), (-b, "y*dy"), (-a * b, "1")]),
            _sum([(1, "y*dy^2"), (-1, "y^2*dy^2"), (-1, "x*y*dx*dy"),
                  (c2, "dy"), (-(a + b2 + 1), "y*dy"), (-b2, "x*dx"), (-a * b2, "1")])]


def _appell_f3(a, a2, b, b2, c):
    return [_sum([(1, "x*dx^2"), (-1, "x^2*dx^2"), (1, "y*dx*dy"),
                  (c, "dx"), (-(a + b + 1), "x*dx"), (-a * b, "1")]),
            _sum([(1, "y*dy^2"), (-1, "y^2*dy^2"), (1, "x*dx*dy"),
                  (c, "dy"), (-(a2 + b2 + 1), "y*dy"), (-a2 * b2, "1")])]


def _appell_f4(a, b, c, c2):
    s = a + b + 1
    return [_sum([(1, "x*dx^2"), (-1, "x^2*dx^2"), (-1, "y^2*dy^2"), (-2, "x*y*dx*dy"),
                  (c, "dx"), (-s, "x*dx"), (-s, "y*dy"), (-a * b, "1")]),
            _sum([(1, "y*dy^2"), (-1, "y^2*dy^2"), (-1, "x^2*dx^2"), (-2, "x*y*dx*dy"),
                  (c2, "dy"), (-s, "y*dy"), (-s, "x*dx"), (-a * b, "1")])]


def _gkz(b1, b2):
    """GKZ system of A = [[1, 1, 1], [0, 1, 2]] with parameter (b1, b2)."""
    return [_sum([(1, "dx*dz"), (-1, "dy^2")]),
            _sum([(1, "x*dx"), (1, "y*dy"), (1, "z*dz"), (-b1, "1")]),
            _sum([(1, "y*dy"), (2, "z*dz"), (-b2, "1")])]


FAMILIES = (("appell-f1", _appell_f1, 4, "x,y"), ("appell-f2", _appell_f2, 5, "x,y"),
            ("appell-f3", _appell_f3, 5, "x,y"), ("appell-f4", _appell_f4, 4, "x,y"),
            ("gkz", _gkz, 2, "x,y,z"))


def weyl(corpus) -> Workload:
    rng = random.Random(POOL_SEED + 2)
    cells = []
    for family, build, nparams, variables in FAMILIES:
        n = str(len(variables.split(",")))
        for verb in ("charvar", "holonomic"):
            cell = []
            for v in range(8):
                params = rng.sample(PARAMS, nparams)
                text = " ; ".join(build(*params))
                checks = ((("verdicts", 1 if verb == "charvar" else 0, "verdict"), n),
                          (("verdicts", 2 if verb == "charvar" else 1, "verdict"), "True"),
                          (("verdicts", 3 if verb == "charvar" else 2, "verdict"), "True"))
                cell.append((Request(f"weyl/{family}-{v}/{verb}",
                                     (verb, "--vars", variables, text) + J, checks=checks),))
            cells.append(tuple(cell))
    cliff = Request("weyl/cliff-unit-ideal/charvar",
                    ("charvar", "--vars", "x,y", CLIFF_WEYL) + J, exit_code=1)
    return Workload("weyl", tuple(cells), per_cell=4, cliffs=(cliff,))


# -- polelattice -------------------------------------------------------------------------

CHARTS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
POLELATTICE_CHECKS = ((("verdicts", 0, "verdict"), "matches"),
                      (("verdicts", 1, "verdict"), "True"),
                      (("verdicts", 3, "verdict"), "True"))
CERTIFIED = ((VERDICT0, "certified"),)


def _chart_text(n: int, r: int, gammas) -> str:
    lines = [f"n {n}", f"r {r}", f"rank {len(gammas[0])}"]
    for l, rows in enumerate(gammas):
        lines.append(f"gamma {l + 1}")
        lines += [" ; ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _theorem_request(key: str, name: str, content: str, bound: int, checks=()) -> Request:
    path = f"{WORK_DIR}/polelattice/{name}"
    return Request(key, ("theorem", "--file", path, "--bound", str(bound)) + J,
                   files=((path, content),), checks=checks)


def _random_chart(rng, n: int, r: int, rank: int) -> str:
    """Integrable chart: commuting constant gammas, g_l = p_l * g + q_l * I.

    g has no zero entry, so the charts of one cell cost about the same.
    """
    g = [[rng.choice(PARAMS) for _ in range(rank)] for _ in range(rank)]
    gammas = []
    for _ in range(n):
        p, q = rng.choice(PARAMS), rng.choice(PARAMS)
        gammas.append([[str(p * g[i][j] + (q if i == j else 0)) for j in range(rank)]
                       for i in range(rank)])
    return _chart_text(n, r, gammas)


def polelattice(corpus) -> Workload:
    """Every polelattice chart and bound, plus seeded and shipped chart files."""
    rng = random.Random(POOL_SEED + 3)
    fixed = [Request(f"polelattice/n{n}-r{r}-b{b}",
                     ("polelattice", "--n", str(n), "--r", str(r), "--bound", str(b)) + J,
                     checks=POLELATTICE_CHECKS)
             for n, r in CHARTS for b in (range(2, 9) if n < 3 else range(2, 7))]
    cells = []
    for n, r, rank in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 1), (2, 2, 2)):
        bound = 3 if n == 2 else 6
        cells.append(tuple(
            (_theorem_request(f"polelattice/chart-n{n}-r{r}-m{rank}-{v}",
                              f"n{n}-r{r}-m{rank}-{v}.chart",
                              _random_chart(rng, n, r, rank), bound, CERTIFIED),)
            for v in range(6)))
    fixed += [_theorem_request(f"polelattice/{name}", name, content,
                               3 if name.startswith("plane") else 6, CERTIFIED)
              for name, content in sorted(corpus.CHART_FILES.items())]
    return Workload("polelattice", tuple(cells), per_cell=4, fixed=tuple(fixed))


BUILDERS = {"curves": curves, "systems": systems, "weyl": weyl, "polelattice": polelattice}
