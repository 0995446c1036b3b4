"""Small dense linear algebra over exact coefficient types.

Matrices are lists of row lists whose entries support +, -, *, negation and
truth testing (zero is false), and for the elimination exact /.  Used for
rational-function systems, log-connection integrability checks and
theta-action matrices; sizes stay tiny.
"""

from __future__ import annotations

from typing import Sequence


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



def gauss_solve(matrix, rhs, zero, one):
    """Determinant of a square matrix over a field, and x with matrix * x = rhs.

    One forward elimination gives both; x is None when the determinant is 0.
    """
    n = len(matrix)
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    det = one
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return zero, None
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        pv = rows[c][c]
        det = det * pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[c])]
    x = [zero] * n
    for c in range(n - 1, -1, -1):
        acc = rows[c][n]
        for j in range(c + 1, n):
            acc = acc - rows[c][j] * x[j]
        x[c] = acc / rows[c][c]
    return det, x
