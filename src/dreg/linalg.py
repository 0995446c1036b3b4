"""Small dense linear algebra over exact coefficient types.

Matrices are lists of row lists whose entries support +, -, * and (for the
field routines) /.  Used for rational-function systems, log-connection
integrability checks and theta-action matrices; sizes stay tiny.
"""

from __future__ import annotations

from typing import Callable, Sequence


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out

def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]



def gauss_solve(matrix, rhs, zero, is_zero: Callable) -> list | None:
    """Solve matrix * x = rhs over a field; None when inconsistent.

    Free variables are set to zero.  Entries must support exact division.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    m = len(rows)
    n = len(matrix[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if not is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(m):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not is_zero(rows[i][n]):
            return None
    sol = [zero] * n
    for i, c in enumerate(pivots):
        sol[c] = rows[i][n]
    return sol


def rank(matrix, is_zero: Callable) -> int:
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if not is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, m):
            if not is_zero(rows[i][c]):
                f = rows[i][c] / pv
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


def determinant(matrix, zero, one, is_zero: Callable):
    """Fraction-free-ish Gaussian determinant over a field."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = one
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            return zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        pv = rows[c][c]
        det = det * pv
        for i in range(c + 1, n):
            if not is_zero(rows[i][c]):
                f = rows[i][c] / pv
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[c])]
    if sign < 0:
        det = zero - det
    return det
