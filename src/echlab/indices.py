"""Exact evaluation of the absolute ECH-type indices of orbit sets.

For an all-elliptic nullhomologous generator m over orbits with constants
(eta_i, phi_i) and linking numbers Q_ij:

    I(m)/2  = sum_i m_i eta_i + sum_{i<j} m_i m_j Q_ij
              + sum_i sum_{k=1..m_i} floor(k phi_i)
    J0(m)/2 = sum_i m_i (1 - eta_i) + sum_{i<j} m_i m_j Q_ij
              + sum_i sum_{k=1..m_i-1} floor(k phi_i) - #{i : m_i != 0}/2

together with the closed-form difference I - J0, the mod-2 grading, the
quadratic form approximating I, an exact integer envelope for I, and the
per-curve bounds (intersection bound, genus budget, cylinder criterion).
Everything is computed in exact integer arithmetic.  I is evaluated by
index_formula alone, and J0 as I minus the closed-form difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    DegenerateAngleError,
    HyperbolicOrbitError,
    IndexParityError,
    MixedFieldError,
    NotNullhomologousError,
    RefinementError,
)
from .exactreal import (
    ExactReal,
    ceil_mult,
    floor_mult,
    floor_radical_sum,
    floor_sum,
    multiple_is_integral,
)
from .orbits import Generator, OrbitSystem, is_valid_generator, nullhomologous_lattice

POSITIVE = "positive"
NEGATIVE = "negative"


def conley_zehnder(theta: ExactReal, k: int) -> int:
    """Conley-Zehnder index 2*floor(k*theta) + 1 of the k-th iterate."""
    if k < 1:
        raise ValueError("iterate must be >= 1")
    return 2 * floor_mult(theta, k) + 1


@lru_cache(maxsize=4096)
def _floor_prefix(phi: ExactReal, m: int) -> int:
    """sum_{k=1..m} floor(k*phi); memoized since index formulas reuse it."""
    return floor_sum(phi, m)


def doubled_eta(orbit) -> int:
    """2*eta as an integer; eta must lie in (1/2)Z."""
    eta = orbit.eta  # in lowest terms, so 2*eta is integral iff den is 1 or 2
    if eta.denominator > 2:
        raise ValueError(f"orbit {orbit.name}: eta must lie in (1/2)Z")
    return 2 * eta.numerator // eta.denominator


def index_formula(
    system: OrbitSystem, m: Sequence[int], two_eta: Sequence[int], prefixes: Sequence
) -> int:
    """sum m_i 2eta_i + 2 sum F_i(m_i) + 2 sum_{i<j} m_i m_j Q_ij over the
    nonzero m_i, where prefixes[i][k] = F_i(k) = sum_{j=1..k} floor(j phi_i)
    and two_eta[i] = doubled_eta(orbit i).  Nothing is checked here: callers
    pass a validated generator."""
    linking = system.linking
    n = len(m)
    total = 0
    for i in range(n):
        mi = m[i]
        if mi:
            total += mi * two_eta[i] + 2 * prefixes[i][mi]
            row = linking[i]
            for j in range(i + 1, n):
                if m[j]:
                    total += 2 * mi * m[j] * row[j]
    return total


def index_residual(system: OrbitSystem, m: Sequence[int], two_eta: Sequence[int]) -> int:
    """Closed form for I - J0 on a validated generator:
    sum m_i(4 eta_i - 2) + 2 sum floor(m_i phi_i) + #nonzero."""
    total = 0
    for orbit, mult, doubled in zip(system.orbits, m, two_eta):
        if mult:
            total += mult * (2 * doubled - 2) + 2 * floor_mult(orbit.phi, mult) + 1
    return total


def _check_generator(system: OrbitSystem, m: Sequence[int]) -> tuple[Generator, list[int]]:
    """The generator as a tuple, with 2*eta per orbit (0 where m_i = 0)."""
    m = tuple(int(v) for v in m)
    if not is_valid_generator(system, m):
        raise ValueError(f"invalid generator multiplicities {m}")
    two_eta = []
    for orbit, mult in zip(system.orbits, m):
        if mult > 0 and not orbit.is_elliptic():
            raise HyperbolicOrbitError(
                f"orbit {orbit.name} is hyperbolic; index formulas need elliptic orbits"
            )
        two_eta.append(doubled_eta(orbit) if mult else 0)
    if not nullhomologous_lattice(system).contains(m):
        raise NotNullhomologousError(f"generator {m} is not nullhomologous")
    return m, two_eta


def _index(system: OrbitSystem, m: Generator, two_eta: list[int]) -> int:
    """I on a checked generator; an odd value means inconsistent eta."""
    prefixes = [
        {mult: _floor_prefix(orbit.phi, mult)} if mult else None
        for orbit, mult in zip(system.orbits, m)
    ]
    total = index_formula(system, m, two_eta, prefixes)
    if total % 2:
        raise IndexParityError(
            f"index {total} is odd for all-elliptic generator {m}; eta inputs inconsistent"
        )
    return total


def ech_index(system: OrbitSystem, m: Sequence[int]) -> int:
    """Absolute ECH index; an even integer, with I(empty) = 0."""
    return _index(system, *_check_generator(system, m))


def j0_index(system: OrbitSystem, m: Sequence[int]) -> int:
    """Absolute J0 index, with J0(empty) = 0, as I minus the closed form I - J0."""
    m, two_eta = _check_generator(system, m)
    return _index(system, m, two_eta) - index_residual(system, m, two_eta)


def index_identity_residual(system: OrbitSystem, m: Sequence[int]) -> int:
    """Closed form for I - J0: sum m_i(4 eta_i - 2) + 2 sum floor(m_i phi_i) + #nonzero."""
    return index_residual(system, *_check_generator(system, m))


def mod2_grading(system: OrbitSystem, m: Sequence[int]) -> int:
    """Parity of the count of positive-hyperbolic orbits in the generator."""
    m = tuple(int(v) for v in m)
    if not is_valid_generator(system, m):
        raise ValueError(f"invalid generator multiplicities {m}")
    count = sum(
        1
        for orbit, mult in zip(system.orbits, m)
        if mult and orbit.kind == "positive-hyperbolic"
    )
    return count % 2


def qbar(system: OrbitSystem, m: Sequence) -> ExactReal:
    """Quadratic form sum m_i^2 phi_i + sum_{i != j} m_i m_j Q_ij, exactly.

    Accepts integer or rational multiplicities.  Raises MixedFieldError when
    the participating phi values live in different quadratic fields.
    """
    if len(m) != system.n:
        raise ValueError("dimension mismatch")
    weights = [Fraction(v) for v in m]
    total = ExactReal.from_rational(0)
    for orbit, w in zip(system.orbits, weights):
        if w == 0:
            continue
        if not orbit.is_elliptic():
            raise HyperbolicOrbitError(f"orbit {orbit.name} is hyperbolic; qbar needs phi")
        total = total + orbit.phi * (w * w)
    cross = Fraction(0)
    for i in range(system.n):
        for j in range(i + 1, system.n):
            cross += 2 * weights[i] * weights[j] * system.linking[i][j]
    return total + cross


@dataclass(frozen=True, slots=True)
class QuadrantCertificate:
    """Outcome of the quadrant-positivity test for the quadratic form.

    verdict is one of "positive", "degenerate-direction", "indefinite",
    "unknown"; null_direction carries the kernel direction in the closed
    quadrant when the form degenerates there.  coercivity is set exactly
    when the verdict is "positive": a certified rational c > 0 with
    Qbar(m) >= c |m|^2 on the quadrant.
    """

    verdict: str
    null_direction: tuple[ExactReal, ExactReal] | None = None
    coercivity: Fraction | None = None


def qbar_quadrant_positive(system: OrbitSystem) -> QuadrantCertificate:
    """Decide positivity of the quadratic form on the closed quadrant minus 0,
    and certify its coercivity constant when it is positive.

    Exact for n <= 2.  For n >= 3 two sufficient criteria are applied (all
    cross-linking nonnegative, or strict diagonal dominance); otherwise the
    verdict is "unknown".  The constant comes from rational enclosures of the
    phi values, refined until the chosen criterion holds for them; for n = 2
    over mixed fields the same refinement decides the sign of phi1 phi2 - Q12^2.
    """
    phis = []
    for orbit in system.orbits:
        if not orbit.is_elliptic():
            raise HyperbolicOrbitError(f"orbit {orbit.name} is hyperbolic")
        phis.append(orbit.phi)
    if any(phi.sign() <= 0 for phi in phis):
        return QuadrantCertificate("indefinite")
    n = system.n
    linking = system.linking
    nonnegative = all(linking[i][j] >= 0 for i in range(n) for j in range(i + 1, n))
    row_sums = [sum(abs(linking[i][j]) for j in range(n) if j != i) for i in range(n)]
    mixed = False
    if not nonnegative and n == 2:
        q12 = linking[0][1]
        try:
            s = (phis[0] * phis[1] - q12 * q12).sign()
        except MixedFieldError:  # the product is irrational: refinement decides
            mixed = True
        else:
            if s == 0:
                direction = (ExactReal.from_rational(-q12), phis[0])
                return QuadrantCertificate("degenerate-direction", direction)
            if s < 0:
                return QuadrantCertificate("indefinite")
    elif not nonnegative and not all(phi > r for phi, r in zip(phis, row_sums)):
        return QuadrantCertificate("unknown")
    bits = 32
    while bits <= 1 << 16:
        bounds = [phi.rational_bounds(bits) for phi in phis]
        los = [lo for lo, _ in bounds]
        his = [hi for _, hi in bounds]
        if mixed and his[0] * his[1] < q12 * q12:
            return QuadrantCertificate("indefinite")
        if nonnegative:
            c = min(los, default=Fraction(1))  # n = 0: the quadrant minus 0 is empty
        elif n == 2:
            # Qbar * phi_j = (phi_j m_j + q12 m_i)^2 + det * m_i^2
            det_lo = los[0] * los[1] - q12 * q12
            c = min(det_lo / his[1], det_lo / his[0]) / 2
        else:  # strict diagonal dominance
            c = min(lo - r for lo, r in zip(los, row_sums))
        # c > 0 forces every lo > 0; for n = 2, since lo > phi - 1 > -1,
        # two negative lo have a product below 1 <= Q12^2
        if c > 0:
            return QuadrantCertificate("positive", coercivity=c)
        bits *= 2
    raise RefinementError("quadrant certificate refinement did not converge")


def index_envelope(system: OrbitSystem, m: Sequence[int]) -> tuple[int, int]:
    """Exact integer interval guaranteed to contain the ECH index.

    From k*phi - 1 < floor(k*phi) <= k*phi the index satisfies
    2S - 2|m| < I <= 2S with S the formula's floor-free evaluation; the
    bounds are rounded outward with a certified multi-radical floor.
    """
    return _envelope(system, *_check_generator(system, m))


def _envelope(system: OrbitSystem, m: Generator, two_eta: list[int]) -> tuple[int, int]:
    total_mult = sum(m)
    if total_mult == 0:
        return (0, 0)
    # the formula with every floor prefix F_i(m_i) read as 0
    integer_part = index_formula(system, m, two_eta, [{mult: 0} for mult in m])
    rational_part = Fraction(0)
    radicals: list[tuple[Fraction, int]] = []
    for orbit, mult in zip(system.orbits, m):
        if mult == 0:
            continue
        rat, coeff, d = orbit.phi.decompose()
        weight = mult * (mult + 1)
        rational_part += rat * weight
        if coeff:
            radicals.append((coeff * weight, d))
    hi = integer_part + floor_radical_sum(rational_part, radicals)
    lo = hi - 2 * total_mult + 1
    return (lo, hi)


@dataclass(frozen=True, slots=True)
class IndexReport:
    """Bundle of the index data for one generator."""

    I: int
    J0: int
    mod2: int
    qbar: ExactReal | None
    envelope: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "I": self.I,
            "J0": self.J0,
            "mod2": self.mod2,
            "qbar": self.qbar.to_json() if self.qbar is not None else None,
            "envelope": list(self.envelope),
        }


def index_report(system: OrbitSystem, m: Sequence[int]) -> IndexReport:
    """Full report; qbar is omitted (None) when phis span mixed fields."""
    m, two_eta = _check_generator(system, m)
    value_i = _index(system, m, two_eta)
    try:
        q = qbar(system, m)
    except MixedFieldError:
        q = None
    return IndexReport(
        I=value_i,
        J0=value_i - index_residual(system, m, two_eta),
        mod2=0,  # every orbit a checked generator covers is elliptic
        qbar=q,
        envelope=_envelope(system, m, two_eta),
    )


# -- per-curve bounds --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class End:
    """One end of a curve: the orbit it limits on, its covering multiplicity,
    the sign of the end, and (when needed) the raw monodromy angle there."""

    orbit: str
    multiplicity: int
    sign: str
    theta: ExactReal | None = None

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("end multiplicity must be positive")
        if self.sign not in (POSITIVE, NEGATIVE):
            raise ValueError(f"sign must be '{POSITIVE}' or '{NEGATIVE}'")


@dataclass(frozen=True, slots=True)
class EndData:
    """End structure of a curve plus the trivial-cylinder flags and the
    relative intersection number in the chosen trivialization."""

    ends: tuple[End, ...] = ()
    trivial_positive: frozenset[str] = frozenset()
    trivial_negative: frozenset[str] = frozenset()
    q_tau: int = 0


def intersection_bound(end_data: EndData) -> int:
    """Upper bound Q_tau + sum_+ k*floor(k*theta) - sum_- k*ceil(k*theta)
    for the intersection count with a nearby curve.  Trivialization-dependent:
    theta and q_tau must be taken in the same trivialization."""
    total = end_data.q_tau
    for end in end_data.ends:
        if end.theta is None:
            raise ValueError(f"end at {end.orbit} is missing its monodromy angle")
        k = end.multiplicity
        if multiple_is_integral(end.theta, k):
            raise DegenerateAngleError(
                f"angle at {end.orbit} has integral multiple k={k}"
            )
        if end.sign == POSITIVE:
            total += k * floor_mult(end.theta, k)
        else:
            total -= k * ceil_mult(end.theta, k)
    return total


def _end_complexity(end_data: EndData) -> int:
    """sum over (orbit, sign) groups of 2n + t - 1, the end budget."""
    counts: dict[tuple[str, str], int] = {}
    for end in end_data.ends:
        key = (end.orbit, end.sign)
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for (orbit, sign), n_ends in counts.items():
        trivial = (
            end_data.trivial_positive if sign == POSITIVE else end_data.trivial_negative
        )
        total += 2 * n_ends + (1 if orbit in trivial else 0) - 1
    return total


def genus_bound(j0: int, end_data: EndData) -> int | None:
    """Largest genus compatible with the complexity bound, or None when the
    configuration is infeasible at this J0."""
    budget = j0 + 2 - _end_complexity(end_data)
    g = budget // 2
    return g if g >= 0 else None


CYLINDER = "cylinder"
NOT_CYLINDER = "not-cylinder"
INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class CylinderReport:
    verdict: str
    max_genus: int | None = None


def cylinder_criterion(
    j0: int,
    end_data: EndData,
    m: Sequence[int],
    m_prime: Sequence[int],
) -> CylinderReport:
    """Two-elliptic-orbit cylinder test: J0 < 2 is infeasible, J0 = 2 forces
    a cylinder, J0 > 2 leaves the topology undetermined (genus budget given).

    Requires all four multiplicities nonzero and ends declared at both orbits.
    """
    if len(m) != 2 or len(m_prime) != 2:
        raise ValueError("exactly two orbits are required")
    if not all(m) or not all(m_prime):
        raise ValueError("all four multiplicities must be nonzero")
    names = {end.orbit for end in end_data.ends}
    if len(names) != 2:
        raise ValueError("the non-trivial part must have ends at both orbits")
    if j0 < 2:
        return CylinderReport(INFEASIBLE)
    if j0 == 2:
        return CylinderReport(CYLINDER, 0)
    return CylinderReport(NOT_CYLINDER, genus_bound(j0, end_data))
