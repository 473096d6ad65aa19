"""Lefschetz zeta bookkeeping for surface diffeomorphisms with elliptic
periodic orbits, and exact periodic-point detection for affine torus maps.

With every periodic point counting with weight +1, the zeta product formula
reads det(1 - tA) * prod_orbits (1 - t^p) = (1 - t)^2, where A is the induced
map on first homology.  The polynomial identity is its own certificate:
its log-derivative is the list of per-iterate fixed-point counts, and its
degree leaves two solutions, which the solver returns in closed form.  Affine
maps x -> Ax + b on the torus are checked for p-periodic points in integer
arithmetic alone: a tabulated period costs one 2 x 2 integer product and sum,
and a singular period adds one or two divisibility tests on the integer parts
(num, q, den, d) of the translation, read once per map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Sequence

from .exactreal import ExactReal, make_exact
from .intlinalg import det, mat_pow, trace

Poly = list[int]  # coefficient list, index = power of t

SQUARE_ONE_MINUS_T = [1, -2, 1]


def _times_one_minus_power(a: Poly, p: int) -> Poly:
    """a(t) * (1 - t^p): a shift by p and a subtraction."""
    out = a + [0] * p
    for i, x in enumerate(a):
        out[i + p] -= x
    return out


def _poly_trim(a: Poly) -> Poly:
    end = len(a)
    while end > 1 and a[end - 1] == 0:
        end -= 1
    return a[:end]


def char_reciprocal(a: Sequence[Sequence[int]]) -> Poly:
    """det(I - tA) = sum_k (-1)^k E_k t^k with E_k the k-th principal minor sum."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for k in range(1, n + 1):
        total = 0
        for rows in combinations(range(n), k):
            minor = [[a[i][j] for j in rows] for i in rows]
            total += det(minor)
        coeffs[k] = total if k % 2 == 0 else -total
    return coeffs


@dataclass(frozen=True, slots=True)
class ZetaInstance:
    """Genus, induced 2g x 2g map on H1, and the multiset of irreducible
    periodic-orbit periods."""

    genus: int
    matrix: tuple[tuple[int, ...], ...]
    periods: tuple[int, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        size = 2 * self.genus
        try:
            rows = tuple(tuple(row) for row in self.matrix)
        except TypeError as exc:  # a matrix or a row that is not a sequence
            raise ValueError("matrix must be 2g x 2g") from exc
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("matrix must be 2g x 2g")
        object.__setattr__(self, "matrix", rows)
        if any(type(v) is not int for row in rows for v in row):
            raise ValueError("matrix entries must be integers")
        if size and abs(det(rows)) != 1:
            raise ValueError("induced map must be invertible over the integers")
        if any(p < 1 for p in self.periods):
            raise ValueError("periods must be positive")


def lefschetz_number(instance: ZetaInstance, p: int) -> int:
    """Lefschetz number 2 - tr(A^p) of the p-th iterate."""
    if p < 1:
        raise ValueError("iterate must be >= 1")
    if instance.genus == 0:
        return 2
    return 2 - trace(mat_pow(instance.matrix, p))


@dataclass(frozen=True, slots=True)
class ZetaCheck:
    passed: bool
    first_failing_power: int | None = None
    detail: str | None = None


def zeta_identity_check(instance: ZetaInstance, degree: int | None = None) -> ZetaCheck:
    """Exact check of det(1-tA) * prod (1-t^p) == (1-t)^2 as polynomials.

    The identity also settles the per-iterate fixed-point counts.  Applying
    -t d/dt log to both sides gives sum_k (tr(A^k) + sum_{p | k} p) t^k on
    the left and sum_k 2 t^k on the right, so the identity holds exactly when
    2 - tr(A^k) == sum_{p | k} p for every k >= 1: both sides have constant
    term 1, so equal log-derivatives mean equal polynomials.  A passed
    identity therefore certifies every iterate up to `degree` (and beyond);
    `degree`, when given, must still reach its lower bound.
    """
    minimum = max(2, sum(instance.periods), 2 * instance.genus)
    if degree is not None and degree < minimum:
        raise ValueError(f"degree must be at least {minimum}")
    product = char_reciprocal(instance.matrix)
    for p in instance.periods:
        product = _times_one_minus_power(product, p)
    product = _poly_trim(product)
    if product != SQUARE_ONE_MINUS_T:
        width = max(len(product), 3)
        padded = product + [0] * (width - len(product))
        target = SQUARE_ONE_MINUS_T + [0] * (width - 3)
        power = next(i for i in range(width) if padded[i] != target[i])
        return ZetaCheck(
            False, power,
            f"coefficient of t^{power} is {padded[power]}, expected {target[power]}",
        )
    return ZetaCheck(True)


@dataclass(frozen=True, slots=True)
class ZetaSolution:
    genus: int
    trace: int | None
    det: int | None
    periods: tuple[int, ...]


def zeta_solve(
    g_max: int, period_sum_max: int, trace_bound: int = 5
) -> list[ZetaSolution]:
    """All (genus, H1-map invariants, period multiset) satisfying the product
    identity within the bounds, in closed form.

    det(1-tA) has degree 2g with unit leading coefficient and 1 - t^p has
    degree p with leading coefficient -1, so the left side has degree
    2g + sum p and the identity forces sum p = 2 - 2g: genus >= 2 is ruled
    out.  In genus 0 every factor 1 - t^p vanishes to order exactly 1 at
    t = 1, against order 2 on the right, so the periods are (1, 1), within
    the bounds when period_sum_max >= 2.  In genus 1 there are no periods and
    det(1-tA) = 1 - tr(A) t + det(A) t^2 must be (1-t)^2: trace 2 and det 1,
    within the bounds when g_max >= 1 and trace_bound >= 2.
    """
    if g_max < 0 or period_sum_max < 0 or trace_bound < 0:
        raise ValueError("bounds must be nonnegative")
    solutions: list[ZetaSolution] = []
    if period_sum_max >= 2:
        solutions.append(ZetaSolution(0, None, None, (1, 1)))
    if g_max >= 1 and trace_bound >= 2:
        solutions.append(ZetaSolution(1, 2, 1, ()))
    return solutions


# -- affine torus maps --------------------------------------------------------

_SHAPE_ERROR = "torus maps are 2 x 2 with a length-2 translation"


@dataclass(frozen=True, slots=True)
class AffineTorusMap:
    """x -> Ax + b on the 2-torus, with det A = 1 and exact translation."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    translation: tuple[ExactReal, ExactReal]

    def __post_init__(self):
        if (len(self.matrix) != 2 or any(len(row) != 2 for row in self.matrix)
                or len(self.translation) != 2):
            raise ValueError(_SHAPE_ERROR)
        if det(self.matrix) != 1:
            raise ValueError("matrix must have determinant 1")

    @staticmethod
    def build(matrix: Sequence[Sequence[int]], translation: Sequence) -> "AffineTorusMap":
        try:
            rows = tuple(tuple(row) for row in matrix)
        except TypeError as exc:  # a matrix or a row that is not a sequence
            raise ValueError(_SHAPE_ERROR) from exc
        if any(type(v) is not int for row in rows for v in row):
            raise ValueError("torus map matrix entries must be integers")
        b = tuple(make_exact(v) for v in translation)
        return AffineTorusMap(rows, b)  # type: ignore[arg-type]


NONE = "none"
COUNT = "count"
POSITIVE_DIMENSIONAL = "positive-dimensional"


@dataclass(frozen=True, slots=True)
class PeriodicPointReport:
    kind: str
    count: int | None = None


# the two reports that carry no count, shared by every period that has one
_NO_POINTS = PeriodicPointReport(NONE)
_CIRCLES = PeriodicPointReport(POSITIVE_DIMENSIONAL)


def _translation_parts(tm: AffineTorusMap) -> tuple[int, ...]:
    """(n0, q0, r0, d0, n1, q1, r1, d1) with b_i = (n_i + q_i sqrt(d_i)) / r_i."""
    b0, b1 = tm.translation
    return b0.num, b0.q, b0.den, b0.d, b1.num, b1.q, b1.den, b1.d


def _classify(a00: int, a01: int, a10: int, a11: int, s00: int, s01: int,
              s10: int, s11: int, parts: tuple[int, ...]) -> PeriodicPointReport:
    """Solutions of (A^p - I) x = -c_p (mod Z^2), given A^p = [[a00, a01],
    [a10, a11]], the geometric sum S_p = I + A + ... + A^(p-1) = [[s00, s01],
    [s10, s11]] and the translation's _translation_parts, with c_p = S_p b."""
    lefschetz = 2 - a00 - a11  # det(A^p - I), since det A^p = 1
    if lefschetz:
        return PeriodicPointReport(COUNT, abs(lefschetz))
    # singular: solvable exactly when u . c_p = (u S_p) . b is integral for
    # every row u of the left kernel of A^p - I, spanned by the primitive row
    # orthogonal to a nonzero column (a, c), or all of Z^2 when A^p = I
    a, c = (a00 - 1, a10) if a00 - 1 or a10 else (a01, a11 - 1)
    g = gcd(a, c)
    kernel = ((c // g, -a // g),) if g else ((1, 0), (0, 1))
    n0, q0, r0, d0, n1, q1, r1, d1 = parts
    for u0, u1 in kernel:
        k0, k1 = u0 * s00 + u1 * s10, u0 * s01 + u1 * s11
        # k0 b0 + k1 b1 has rational part (k0 n0 r1 + k1 n1 r0) / (r0 r1), and
        # its radical parts cancel only within one radicand
        radical = k0 * q0 * r1 + k1 * q1 * r0 if d0 == d1 else k0 * q0 or k1 * q1
        if radical or (k0 * n0 * r1 + k1 * n1 * r0) % (r0 * r1):
            return _NO_POINTS
    return _CIRCLES


def torus_periodic_points(tm: AffineTorusMap, p: int) -> PeriodicPointReport:
    """Solutions of (A^p - I) x = -c_p (mod Z^2) with c_p = (A^{p-1}+...+I) b.

    det(A^p - I) != 0 gives exactly |det| solutions for any translation; a
    singular nonzero difference is solvable (then a union of circles) exactly
    when its primitive left-kernel row maps c_p into the integers; A^p = I
    makes every point periodic when c_p is integral and none otherwise.

    A^p and S_p = I + A + ... + A^(p-1) come from one O(log p) matrix power:
    the block matrix [[A, I], [0, I]] has p-th power [[A^p, S_p], [0, I]],
    since multiplying [[A^k, S_k], [0, I]] by it gives S_{k+1} = A^k + S_k.
    """
    if p < 1:
        raise ValueError("iterate must be >= 1")
    (a, b), (c, d) = tm.matrix
    block = mat_pow([[a, b, 1, 0], [c, d, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    (a00, a01, s00, s01), (a10, a11, s10, s11) = block[:2]
    return _classify(a00, a01, a10, a11, s00, s01, s10, s11, _translation_parts(tm))


@dataclass(frozen=True, slots=True)
class TorusOrbitReport:
    rows: tuple[tuple[int, PeriodicPointReport], ...]
    first_period: int | None

    @property
    def verdict(self) -> str:
        if self.first_period is None:
            top = self.rows[-1][0] if self.rows else 0
            return f"no periodic orbits up to period {top}"
        return f"first periodic points at period {self.first_period}"


def torus_orbit_report(tm: AffineTorusMap, p_max: int) -> TorusOrbitReport:
    """Tabulate torus_periodic_points for p = 1..p_max, carrying A^p and
    S_p from one period to the next as eight ints: a period costs eight
    integer products and four sums, and its row is a count |2 - tr(A^p)|,
    or, at a singular period, one or two integer divisibility tests on the
    translation's parts, read once per map."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    (m00, m01), (m10, m11) = tm.matrix
    parts = _translation_parts(tm)
    rows, first = [], None
    a00, a01, a10, a11, s00, s01, s10, s11 = 1, 0, 0, 1, 0, 0, 0, 0  # A^0, S_0
    for p in range(1, p_max + 1):
        s00, s01, s10, s11 = s00 + a00, s01 + a01, s10 + a10, s11 + a11
        a00, a01, a10, a11 = (a00 * m00 + a01 * m10, a00 * m01 + a01 * m11,
                              a10 * m00 + a11 * m10, a10 * m01 + a11 * m11)
        report = _classify(a00, a01, a10, a11, s00, s01, s10, s11, parts)
        rows.append((p, report))
        if first is None and report.kind != NONE:
            first = p
    return TorusOrbitReport(tuple(rows), first)
