"""Small exact integer-matrix utilities: products, powers, determinants and
the row Hermite normal form.  Everything operates on lists of lists of
Python ints; matrices in this package stay tiny (a handful of rows), so the
textbook algorithms are the right tool.
"""

from __future__ import annotations

from typing import Sequence

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_pow(a: Sequence[Sequence[int]], k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative power")
    n = len(a)
    result = identity(n)
    base = [list(row) for row in a]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def trace(a: Sequence[Sequence[int]]) -> int:
    return sum(a[i][i] for i in range(len(a)))


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def row_hermite_form(rows: Sequence[Sequence[int]]) -> Matrix:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Returns the nonzero rows: row-echelon with positive pivots and entries
    above each pivot reduced into [0, pivot).
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    cols = len(work[0])
    basis: Matrix = []
    pivot_row = 0
    for col in range(cols):
        # gcd-reduce all rows below pivot_row in this column
        idx = None
        for i in range(pivot_row, len(work)):
            if work[i][col] != 0:
                idx = i
                break
        if idx is None:
            continue
        work[pivot_row], work[idx] = work[idx], work[pivot_row]
        changed = True
        while changed:
            changed = False
            for i in range(pivot_row + 1, len(work)):
                if work[i][col] == 0:
                    continue
                if abs(work[i][col]) < abs(work[pivot_row][col]):
                    work[pivot_row], work[i] = work[i], work[pivot_row]
                f = work[i][col] // work[pivot_row][col]
                if f:
                    work[i] = [x - f * y for x, y in zip(work[i], work[pivot_row])]
                if work[i][col] != 0:
                    changed = True
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-x for x in work[pivot_row]]
        pivot_row += 1
        if pivot_row == len(work):
            break
    work = [r for r in work[:pivot_row] if any(r)]
    # reduce entries above each pivot, in ascending pivot order: reducing by
    # row i leaves the columns of earlier pivots alone
    pivots = [next(j for j, v in enumerate(r) if v) for r in work]
    for i in range(1, len(work)):
        c = pivots[i]
        p = work[i][c]
        for j in range(i):
            f = work[j][c] // p
            if f:
                work[j] = [x - f * y for x, y in zip(work[j], work[i])]
    return work
