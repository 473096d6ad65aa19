"""Complete enumeration of nullhomologous generators by index.

Enumeration refuses to run without either a quadrant-positivity certificate
for the quadratic form (which yields a provably sufficient search box) or an
explicit user box; a silent incomplete census is never produced.  On top of
the census sit the index spectrum, growth-exponent fits, the lattice-point
triangle oracle, and the one-generator-per-even-index verification.

One private walk is the only census loop (min_index_on_shells runs it
without a cutoff, inside a ball); it reads the elliptic flags, 2*eta and the
lattice from indices.compile_system's record.  The walk is a depth-first
search over the coordinates in orbit order: it steps along the lattice's
row Hermite basis, so it never tests membership, and it ends each column
once a certified lower bound on the index passes the cutoff, so its cost
follows the number of generators, not the volume of the box.  It carries the
index down the search instead of calling indices.index_formula: a node is
priced as its parent's value + m_k s_k + 2F_k(m_k), the next term of the
same fold (s_k from indices.index_slope, once per column).

Each caller names the leaf record it reads, so no caller repacks another's:
the index alone (spectrum, and so growth_exponent), the pair (m, I)
(enumerate_generators, min_index_on_shells, ellipsoid_verify), or the flat
row (m_1, ..., m_n, I) that the census command writes, optionally with J0.
I - J0 is a sum of one closed-form term per orbit (indices.index_residual),
so J0 is carried down the search as I is: a node passes its parent's sum
plus the term of its own m_k, read from one column per orbit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import ceil, inf, isqrt, log
from operator import itemgetter
from statistics import linear_regression
from typing import Callable, Literal, Sequence

from .errors import (
    CensusBoundError,
    DegenerateAngleError,
    HyperbolicOrbitError,
    IndexParityError,
)
from .exactreal import ExactReal, floor_mult, floor_sum
from .orbits import (
    ELLIPTIC,
    Generator,
    Homology,
    Orbit,
    OrbitSystem,
    nullhomologous_lattice,
)
from .indices import (
    compile_system,
    doubled_eta,
    index_residual,
    index_slope,
    qbar_quadrant_positive,
)

_BOUND_BITS = 32

# the leaf records of the census walk, each with its one leaf m = () of a
# system without orbits, where I = J0 = 0
Record = Literal["value", "pair", "row", "row_j0"]
_EMPTY_LEAF = {"value": 0, "pair": ((), 0), "row": (0,), "row_j0": (0, 0)}


@dataclass(frozen=True, slots=True)
class CensusResult:
    """All generators with index <= cutoff, sorted by (index, multiplicities).

    box is None for a certified-complete census; otherwise completeness is
    only relative to the recorded box.  nodes counts the search nodes the
    walk visited (prefixes m_0..m_k, leaves included).
    """

    cutoff: int
    entries: tuple[tuple[Generator, int], ...]
    lattice_index: int
    box: tuple[int, ...] | None = None
    nodes: int = 0

    def count_up_to(self, j: int) -> int:
        """N(j) = number of enumerated generators with index <= j."""
        return bisect_right(self.entries, j, key=itemgetter(1))


def floor_prefix_table(phi: ExactReal, m_max: int) -> list[int]:
    """table[m] = sum_{k=1..m} floor(k*phi), for m = 0..m_max."""
    table = [0] * (m_max + 1)
    acc = 0
    for k in range(1, m_max + 1):
        acc += floor_mult(phi, k)
        table[k] = acc
    return table


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    return Fraction(isqrt(x.numerator * x.denominator) + 1, x.denominator)


def _linear_slack(system: OrbitSystem) -> Fraction:
    """A rational s >= 0 with I(m) > Qbar(m) - s sum m_i on the quadrant:
    the largest 2 - 2 eta_i - phi_i, phi_i read from below."""
    slack = Fraction(0)
    for orbit in system.orbits:
        lo, _ = orbit.phi.rational_bounds(_BOUND_BITS)
        slack = max(slack, 2 - 2 * orbit.eta - lo)
    return slack


def _certified_box(system: OrbitSystem, i_max: int, c: Fraction) -> int:
    """Per-coordinate bound B: any m with some m_i > B has index > i_max.

    Uses I(m) > Qbar(m) - slack sum m_i (_linear_slack) together with the
    coercivity constant c of the quadrant-positive form.
    """
    if i_max < 0:
        return 0
    slack = _linear_slack(system)
    n = system.n
    # solve c t^2 - n*slack*t - i_max <= 0 for t
    disc = (n * slack) ** 2 + 4 * c * i_max
    radius = (n * slack + _sqrt_upper(disc)) / (2 * c)
    return ceil(radius) + 1


def _walk(
    system: OrbitSystem,
    i_max: int | float,
    box: Sequence[int] | int | None,
    norm_sq: int | float = inf,
    record: Record = "pair",
) -> tuple[int, list[int], list, int]:
    """The lattice index, the box's per-orbit bounds (from the quadrant
    certificate when box is None), one record in box order for every lattice
    point m in the box with I(m) <= i_max and sum m_i^2 <= norm_sq, and the
    number of search nodes.  The record is I(m) for "value", (m, I(m)) for
    "pair", (m_1, ..., m_n, I(m)) for "row" and (m_1, ..., m_n, I(m), J0(m))
    for "row_j0".  Raises, in this order: a hyperbolic orbit, the lattice's
    error, no certificate or a malformed box, eta outside (1/2)Z, an odd
    index.

    A depth-first search fixes m_0, m_1, ... in turn, each in increasing
    order, so leaves come out in box (lexicographic) order.  The lattice's
    row Hermite basis b is upper triangular: once m_0..m_{k-1} fix the
    coefficients c_0..c_{k-1}, m_k runs over offset_k + b[k][k]*Z with
    offset_k = sum_{i<k} c_i b[i][k], so every leaf is a lattice point.

    A node m_0..m_k is priced at v = I(m_0..m_k, 0..0) + tail[k+1], and the
    first term is carried down the search rather than re-summed: it is the
    parent's I(m_0..m_{k-1}, 0..0) (0 for column 0) + m_k s_k + 2F_k(m_k),
    with s_k = indices.index_slope computed once per column, so a node costs
    one multiply, one read of the doubled prefix table and two adds.  For
    "row_j0" a node also carries r = (I - J0)(m_0..m_k, 0..0), its parent's
    r + residual[k][m_k] with residual[k][t] = index_residual(t e_k), and a
    leaf's J0 is I - r.

    When no linking number is negative, the cross terms of any completion
    are >= 0 and tail[j] = sum_{l>=j} min_t (t 2eta_l + 2F_l(t)) over the
    box, so v bounds I below on the whole subtree and a node with v > i_max
    is skipped; otherwise tail[j] = -inf for j < n and only leaves are
    priced.  Along a column v is linear plus 2F_k(m_k), convex when phi_k >= 0
    (F_k(t+1) - F_k(t) = floor((t+1) phi_k) never decreases) and still
    convex on the progression m_k = offset_k mod b[k][k]; so once v > i_max
    and v has not fallen from the node before it, no later node of the
    column can come back under the cutoff and the column ends.  A column
    with phi_k < 0 (a user box only) runs to its bound.  Squared norms only
    grow along a column, so it also ends past norm_sq."""
    compiled = compile_system(system)
    if not all(compiled.elliptic):
        orbit = system.orbits[compiled.elliptic.index(False)]
        raise HyperbolicOrbitError(
            f"orbit {orbit.name} is hyperbolic; the census covers all-elliptic systems"
        )
    if compiled.lattice is None:
        nullhomologous_lattice(system)  # raises, as it did when the record was built
    n = system.n
    if box is None:
        cert = qbar_quadrant_positive(system)
        if cert.verdict != "positive":
            raise CensusBoundError(
                f"no positivity certificate (verdict: {cert.verdict}); supply a box"
            )
        limits = [_certified_box(system, i_max, cert.coercivity)] * n
    else:
        limits = [int(box)] * n if isinstance(box, int) else [int(b) for b in box]
        if len(limits) != n or any(b < 0 for b in limits):
            raise ValueError("box must give a nonnegative bound per orbit")
    for i in compiled.faults:  # every orbit is elliptic, so only eta is left
        doubled_eta(system.orbits[i])  # raises, as it did when the record was built
    lattice = compiled.lattice
    if not n:
        return lattice.index, limits, [_EMPTY_LEAF[record]] if i_max >= 0 else [], 1
    # doubled[k][t] = 2F_k(t), the floor term of orbit k at m_k = t
    doubled = [
        [2 * f for f in floor_prefix_table(o.phi, b)] for o, b in zip(system.orbits, limits)
    ]
    pairs, values, carry = record == "pair", record == "value", record == "row_j0"
    if carry:  # residual[k][t] = (I - J0)(t e_k), the term of orbit k
        residual = [
            [index_residual(compiled, (0,) * k + (t,) + (0,) * (n - k - 1))
             for t in range(b + 1)]
            for k, b in enumerate(limits)
        ]
    else:  # r stays 0
        residual = [[0] * (b + 1) for b in limits]
    basis = lattice.basis
    least = [
        min(t * two_eta + f for t, f in enumerate(table))
        for two_eta, table in zip(compiled.two_eta, doubled)
    ]
    cross_free = all(q >= 0 for i, row in enumerate(compiled.linking) for q in row[i + 1:])
    tail = [sum(least[j:]) if cross_free else -inf for j in range(n)] + [0]
    convex = [orbit.phi.sign() >= 0 for orbit in system.orbits]
    m = [0] * n
    coefficients = [0] * n
    entries: list = []
    nodes = 0

    def column(k: int, used_sq: int, base: int, r: int) -> None:
        nonlocal nodes
        pivot, rest, stops, leaf = basis[k][k], tail[k + 1], convex[k], k == n - 1
        slope, twice_f, terms = index_slope(compiled, m, k), doubled[k], residual[k]
        offset = sum(coefficients[i] * basis[i][k] for i in range(k))
        top = limits[k] if norm_sq == inf else min(limits[k], isqrt(norm_sq - used_sq))
        append = entries.append
        previous = inf
        # a column's nodes are counted when it ends, not one by one
        steps = range(offset % pivot, top + 1, pivot)
        for mk in steps:
            m[k] = mk
            here = base + mk * slope + twice_f[mk]  # I(m_0..m_k, 0..0)
            value = here + rest
            if value > i_max:
                if stops and value >= previous:
                    nodes += steps.index(mk) + 1
                    break
            elif leaf:
                if value % 2:
                    raise IndexParityError(
                        f"odd index {value} at {tuple(m)}; eta inputs inconsistent"
                    )
                if pairs:
                    append((tuple(m), value))
                elif values:
                    append(value)
                elif carry:
                    append((*m, value, value - r - terms[mk]))
                else:
                    append((*m, value))
            else:
                coefficients[k] = (mk - offset) // pivot
                column(k + 1, used_sq + mk * mk, here, r + terms[mk])
            previous = value
        else:
            nodes += len(steps)
        m[k] = 0

    try:
        column(0, 0, 0, 0)
    finally:
        # column refers to itself through its closure; that cycle would keep
        # entries and the tables alive until the cyclic collector ran
        del column
    return lattice.index, limits, entries, nodes


def enumerate_generators(
    system: OrbitSystem,
    i_max: int,
    box: Sequence[int] | int | None = None,
) -> CensusResult:
    """All nullhomologous generators with index <= i_max.

    Without a box the search radius is derived from the quadrant-positivity
    certificate; if the certificate is not "positive" the census refuses.
    """
    lattice_index, limits, entries, nodes = _walk(system, i_max, box)
    entries.sort(key=itemgetter(1))  # stable, so ties stay in box order: by (I, m)
    recorded_box = None if box is None else tuple(limits)
    return CensusResult(i_max, tuple(entries), lattice_index, recorded_box, nodes)


def census_rows(
    system: OrbitSystem,
    i_max: int,
    box: Sequence[int] | int | None = None,
    j0: bool = False,
) -> tuple[int, tuple[int, ...] | None, list[tuple[int, ...]]]:
    """The census of enumerate_generators as flat rows: the lattice index,
    the recorded box (None for a certified-complete census) and the rows
    (m_1, ..., m_n, I), or (m_1, ..., m_n, I, J0) with j0, sorted by (I, m).
    The same walk, so the same checks and errors in the same order."""
    lattice_index, limits, rows, _ = _walk(
        system, i_max, box, record="row_j0" if j0 else "row"
    )
    rows.sort(key=itemgetter(system.n))  # stable, so ties stay in box order
    return lattice_index, None if box is None else tuple(limits), rows


def spectrum(system: OrbitSystem, i_max: int, box=None) -> list[int]:
    """Sorted multiset of indices of all generators with index <= i_max."""
    values = _walk(system, i_max, box, record="value")[2]
    values.sort()
    return values


@dataclass(frozen=True, slots=True)
class GrowthFit:
    """Log-log slope of the census counting function over the sampled cutoffs;
    the fit uses only the upper half of the samples (the asymptotic regime)."""

    exponent: float
    max_residual: float
    samples: tuple[int, ...]
    counts: tuple[int, ...]


def growth_exponent(system: OrbitSystem, k_samples: Sequence[int]) -> GrowthFit:
    """Fit N(k) ~ k^e over the given index cutoffs (at least 4 required)."""
    ks = sorted(set(int(k) for k in k_samples))
    if len(ks) < 4:
        raise ValueError("need at least 4 sample cutoffs")
    if ks[0] < 1:
        raise ValueError("cutoffs must be positive")
    indices = spectrum(system, ks[-1])
    counts = [bisect_right(indices, k) for k in ks]
    if any(c == 0 for c in counts):
        raise ValueError("a sample cutoff has no generators; enlarge the cutoffs")
    upper = len(ks) // 2
    xs = [log(k) for k in ks[upper:]]
    ys = [log(c) for c in counts[upper:]]
    fit = linear_regression(xs, ys)
    residual = max(abs(fit.slope * x + fit.intercept - y) for x, y in zip(xs, ys))
    return GrowthFit(fit.slope, residual, tuple(ks), tuple(counts))


def triangle_lattice_count(phi1: ExactReal, m: Sequence[int]) -> int:
    """Lattice points (x, y) with x, y >= 0 on or under the line of slope
    -phi1 through (m1, m2), i.e. phi1*x + y <= phi1*m1 + m2, counted exactly."""
    if phi1.is_rational():
        raise DegenerateAngleError("triangle count needs an irrational slope")
    if phi1.sign() <= 0:
        raise ValueError("slope parameter must be positive")
    m1, m2 = (int(v) for v in m)
    if m1 < 0 or m2 < 0:
        raise ValueError("corner point must sit in the closed quadrant")
    return _triangle_count(
        m1, m2, partial(floor_sum, phi1), partial(floor_mult, phi1.reciprocal())
    )


def _triangle_count(
    m1: int, m2: int, sums: Callable[[int], int], rights: Callable[[int], int]
) -> int:
    """triangle_lattice_count for a checked slope phi1, with
    sums(k) = floor_sum(phi1, k) and rights(k) = floor_mult(1/phi1, k).  The
    count reads phi1 only through sums at k = m1 and k = floor(m2 / phi1) and
    through rights at k = m2, so a caller that counts many corners may pass
    memos of both."""
    # column x = m1 - j (j = 0..m1) holds m2 + floor(j phi1) + 1 points;
    # column x = m1 + j (j = 1..right) holds m2 - floor(j phi1), where
    # right = floor(m2 / phi1) is the last j with anything under the line
    right = rights(m2) if m2 else 0
    return (m1 + 1) * (m2 + 1) + sums(m1) + right * m2 - sums(right)


def _ellipsoid_system(phi1: ExactReal) -> OrbitSystem:
    one = Fraction(1)
    orbits = (
        Orbit("short", ELLIPTIC, eta=one, phi=phi1),
        Orbit("long", ELLIPTIC, eta=one, phi=phi1.reciprocal()),
    )
    return OrbitSystem(orbits, ((0, 1), (1, 0)), Homology())


@dataclass(frozen=True, slots=True)
class EllipsoidVerification:
    passed: bool
    first_discrepancy: str | None
    i_max: int
    generator_count: int


def ellipsoid_verify(phi1: ExactReal, i_max: int) -> EllipsoidVerification:
    """Check the two-orbit system with eta = Q12 = phi1*phi2 = 1: the spectrum
    must hit every even index in [0, i_max] exactly once, and each index must
    agree with the triangle lattice-point count.

    Every entry is checked against the closed-form count, whose floor sums
    come from the continued-fraction floor_sum.  The entries ask for few
    distinct arguments k = m1 and k = floor(m2 / phi1) (76 among 4,751
    entries for the golden ratio at i_max = 9500), so each floor_sum(phi1, k)
    is computed once per distinct k, and each floor_mult(1/phi1, m2) once per
    distinct m2, in memos that live only for this call.  The oracle
    deliberately reads neither the census's floor_prefix_table nor indices'
    process-wide floor-prefix cache: sharing the census's prefix sums would
    let one wrong table pass its own check."""
    if phi1.is_rational():
        raise DegenerateAngleError("the verification needs an irrational slope")
    if phi1.sign() <= 0:
        raise ValueError("slope parameter must be positive")
    system = _ellipsoid_system(phi1)
    phi2 = system.orbits[1].phi  # 1/phi1, built once for the system
    sums = cache(partial(floor_sum, phi1))
    rights = cache(partial(floor_mult, phi2))
    census = enumerate_generators(system, i_max)
    seen: dict[int, Generator] = {}
    for m, value in census.entries:
        if value in seen:
            return EllipsoidVerification(
                False, f"indices collide: {seen[value]} and {m} both have I={value}",
                i_max, len(census.entries),
            )
        seen[value] = m
        expected = 2 * (_triangle_count(*m, sums, rights) - 1)
        if value != expected:
            return EllipsoidVerification(
                False,
                f"triangle oracle mismatch at m={m}: I={value}, lattice gives {expected}",
                i_max, len(census.entries),
            )
    for even in range(0, i_max + 1, 2):
        if even not in seen:
            return EllipsoidVerification(
                False, f"missing index {even}", i_max, len(census.entries)
            )
    return EllipsoidVerification(True, None, i_max, len(census.entries))


def min_index_on_shells(
    system: OrbitSystem, radii: Sequence[int]
) -> list[tuple[int, int]]:
    """(radius, min index) over generators whose Euclidean norm rounds up to
    the given radius; radius 0 is the empty generator.  The census walk over
    the ball of the largest radius (norm limit r_max^2), without a cutoff."""
    radii = sorted(set(int(r) for r in radii))
    if any(r < 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    r_max = radii[-1] if radii else 0
    _, _, entries, _ = _walk(system, inf, r_max, r_max * r_max)
    best: dict[int, int] = {}
    for m, value in entries:
        norm_sq = sum(v * v for v in m)
        radius = isqrt(norm_sq - 1) + 1 if norm_sq else 0  # ceil of the Euclidean norm
        best[radius] = min(value, best.get(radius, value))
    return [(r, best[r]) for r in radii if r in best]
