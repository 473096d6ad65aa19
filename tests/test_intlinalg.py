"""Integer matrix utilities against sympy and brute-force oracles.

smith_normal_form left the package when the nullhomologous lattice and the
torus-map obstruction row got direct constructions; it stays here as their
oracle.
"""

from typing import Sequence

import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sp_snf

from echlab.intlinalg import Matrix, det, identity, mat_mul, mat_pow, row_hermite_form, trace


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


def int_matrices(n_min=1, n_max=4, lo=-9, hi=9):
    def build(n):
        return st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )

    return st.integers(n_min, n_max).flatmap(build)


def rect_matrices(rows=(1, 4), cols=(1, 5), lo=-9, hi=9):
    def build(shape):
        r, c = shape
        return st.lists(
            st.lists(st.integers(lo, hi), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )

    return st.tuples(st.integers(*rows), st.integers(*cols)).flatmap(build)


@settings(max_examples=150)
@given(int_matrices())
def test_det_matches_sympy(m):
    assert det(m) == int(sp.Matrix(m).det())


def test_det_empty_and_identity():
    assert det([]) == 1
    assert det(identity(3)) == 1


@settings(max_examples=60)
@given(int_matrices(n_min=2, n_max=3), st.integers(0, 8))
def test_mat_pow_matches_repeated_multiplication(m, k):
    direct = identity(len(m))
    for _ in range(k):
        direct = mat_mul(direct, m)
    assert mat_pow(m, k) == direct


@settings(max_examples=150, deadline=None)
@given(rect_matrices())
def test_smith_normal_form_properties(a):
    u, s, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    # U A V == S
    assert mat_mul(mat_mul(u, a), v) == s
    # unimodular transforms
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    # diagonal, nonnegative, divisibility chain
    diag = []
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
        if i < n:
            diag.append(s[i][i])
    assert all(x >= 0 for x in diag)
    for a_prev, b_next in zip(diag, diag[1:]):
        if a_prev and b_next:
            assert b_next % a_prev == 0
        if a_prev == 0:
            assert b_next == 0


@settings(max_examples=60, deadline=None)
@given(int_matrices(n_min=1, n_max=4))
def test_smith_diagonal_matches_sympy(m):
    _, s, _ = smith_normal_form(m)
    expected = sp_snf(sp.Matrix(m))
    k = min(len(m), len(m[0]))
    got = sorted(abs(s[i][i]) for i in range(k))
    want = sorted(abs(int(expected[i, i])) for i in range(k))
    assert got == want


@settings(max_examples=100, deadline=None)
@given(rect_matrices(rows=(1, 6), cols=(1, 4), lo=-6, hi=6))
@example([[1, 5, 7], [0, 2, 9], [0, 0, 6]])
def test_hermite_form_spans_same_lattice(rows):
    basis = row_hermite_form(rows)
    # reduced echelon form: pivots strictly move right and are positive, and
    # every entry above a pivot lies in [0, pivot)
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(set(pivots))
    for i, (b, c) in enumerate(zip(basis, pivots)):
        assert b[c] > 0
        assert all(0 <= basis[k][c] < b[c] for k in range(i))
    assert row_hermite_form(basis) == basis
    # every original row reduces to zero against the basis, and vice versa
    def reduces(vec, rows_basis):
        vec = list(vec)
        for b in rows_basis:
            pivot_col = next((j for j, x in enumerate(b) if x), None)
            if pivot_col is None:
                continue
            if vec[pivot_col] % b[pivot_col] == 0:
                f = vec[pivot_col] // b[pivot_col]
                vec = [x - f * y for x, y in zip(vec, b)]
        return all(x == 0 for x in vec)

    for r in rows:
        assert reduces(r, basis)
    # basis rows are integer combinations of the originals: check via sympy rank
    if basis:
        stacked = sp.Matrix(list(rows) + list(basis))
        assert stacked.rank() == sp.Matrix(rows).rank()


def test_trace():
    assert trace([[2, 1], [1, 1]]) == 3
