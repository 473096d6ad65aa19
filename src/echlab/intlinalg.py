"""Small exact integer-matrix utilities: products, powers, determinants,
Hermite and Smith normal forms.  Everything operates on lists of lists of
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
    # reduce entries above each pivot
    pivots = []
    for r in work:
        c = next(j for j, v in enumerate(r) if v)
        pivots.append(c)
    for i in range(len(work) - 1, -1, -1):
        c = pivots[i]
        p = work[i][c]
        for j in range(i):
            f = work[j][c] // p
            if f:
                work[j] = [x - f * y for x, y in zip(work[j], work[i])]
    return work


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """(U, S, V) with U*A*V = S diagonal, s_i | s_{i+1}, U and V unimodular."""
    s = [list(row) for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        s[dst] = [x + f * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in s:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # locate a smallest-magnitude nonzero entry in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(s[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if s[t][t] < 0:
            negate_row(t)
        while True:
            # clear row/column t; a nonzero remainder becomes a smaller pivot
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    add_row(i, t, -(s[i][t] // s[t][t]))
                    if s[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    add_col(j, t, -(s[t][j] // s[t][t]))
                    if s[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # pivot must divide the trailing block; otherwise fold an offending
        # row into row t and redo this step (pivot magnitude strictly drops)
        p = s[t][t]
        offender = None
        for i in range(t + 1, m):
            if any(s[i][j] % p for j in range(t + 1, n)):
                offender = i
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1
    for k in range(min(m, n)):
        if s[k][k] < 0:
            negate_row(k)
    return u, s, v
