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
Everything is computed in exact integer arithmetic.  I has one
implementation: the fold I(m) = sum_k [m_k s_k + 2 F_k(m_k)], where
s_k = 2 eta_k + 2 sum_{i<k} m_i Q_ik is index_slope's.  index_formula folds
it over a whole generator, and the census walk adds one term per search node
as it fixes m_0, m_1, ... in turn.  J0 is I minus the closed-form difference.

Every checked call (ech_index, j0_index, index_identity_residual,
index_envelope, index_report), qbar, the census and its CSV's J0 column
read one CompiledSystem, built once per system by compile_system behind the
package's one per-system cache.  It holds the elliptic flags, 2*eta from
doubled_eta (or the error it raised, re-raised by the calls it blocks), the
linking rows, the nullhomologous lattice, and each phi as integers (P, Q, d)
over one common denominator R, with every radicand of one field rescaled to
the field's smallest.  qbar, the envelope and I - J0 are integer sums over R,
and the floor prefixes F_i(m_i) of I come from a memo keyed on the record's
integers (P, Q, R, d) and m_i, so a checked call hashes no ExactReal.
qbar is defined exactly when the irrational phi_i with m_i != 0 lie in one
field, whatever the orbit order; otherwise it raises MixedFieldError and
index_report gives None.  In that one-field case the envelope's floor is one
isqrt certificate too; only mixed fields need floor_radical_sum's refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import (
    DegenerateAngleError,
    HyperbolicOrbitError,
    IndexParityError,
    MixedFieldError,
    NonTorsionClassError,
    NotNullhomologousError,
    RefinementError,
)
from .exactreal import (
    ExactReal,
    _floor_state,
    _floor_sum_state,
    ceil_mult,
    floor_mult,
    floor_radical_sum,
    multiple_is_integral,
    same_field,
)
from .orbits import (
    Generator,
    NullLattice,
    OrbitSystem,
    is_valid_generator,
    nullhomologous_lattice,
)

POSITIVE = "positive"
NEGATIVE = "negative"


def conley_zehnder(theta: ExactReal, k: int) -> int:
    """Conley-Zehnder index 2*floor(k*theta) + 1 of the k-th iterate."""
    if k < 1:
        raise ValueError("iterate must be >= 1")
    return 2 * floor_mult(theta, k) + 1


@lru_cache(maxsize=4096)
def _floor_prefix(phi: tuple[int, int, int], r: int, m: int) -> int:
    """sum_{k=1..m} floor(k*phi) for phi = (P + Q*sqrt(d))/r, memoized since
    checked calls reuse it.  The key is a CompiledSystem's integers: its
    (P, Q, d) tuple for phi and its denominator R.  One value may sit under
    several keys (over different R), but a key never names two values."""
    p, q, d = phi
    return _floor_sum_state(p, q, r, d, m)


def doubled_eta(orbit) -> int:
    """2*eta as an integer; eta must lie in (1/2)Z."""
    eta = orbit.eta  # in lowest terms, so 2*eta is integral iff den is 1 or 2
    if eta.denominator > 2:
        raise ValueError(f"orbit {orbit.name}: eta must lie in (1/2)Z")
    return 2 * eta.numerator // eta.denominator


def index_slope(compiled: CompiledSystem, m: Sequence[int], k: int) -> int:
    """s_k = 2eta_k + 2 sum_{i<k} m_i Q_ik, from the record; m_i for i >= k
    is not read.  With m_0..m_{k-1} fixed, I gains m_k s_k + 2F_k(m_k) as
    m_k runs and the later multiplicities stay 0."""
    linking = compiled.linking
    cross = 0
    for i in range(k):
        mi = m[i]
        if mi:
            cross += mi * linking[i][k]
    return compiled.two_eta[k] + 2 * cross


def index_formula(compiled: CompiledSystem, m: Sequence[int], prefixes: Sequence) -> int:
    """I(m) = sum_k [m_k s_k + 2 F_k(m_k)] over the nonzero m_k, with s_k from
    index_slope and prefixes[k][t] = F_k(t) = sum_{j=1..t} floor(j phi_k);
    prefixes[k] needs to hold only m_k.  Nothing is checked here: callers
    pass a validated generator."""
    total = 0
    for k, mk in enumerate(m):
        if mk:
            total += mk * index_slope(compiled, m, k) + 2 * prefixes[k][mk]
    return total


def index_residual(compiled: CompiledSystem, m: Sequence[int]) -> int:
    """Closed form for I - J0 on a validated generator, floors from the record:
    sum m_i(4 eta_i - 2) + 2 sum floor(m_i phi_i) + #nonzero."""
    den = compiled.denominator
    total = 0
    for mult, doubled, phi in zip(m, compiled.two_eta, compiled.phi):
        if mult:
            p, q, d = phi
            total += mult * (2 * doubled - 2) + 2 * _floor_state(mult * p, mult * q, den, d) + 1
    return total


@dataclass(frozen=True, slots=True, eq=False)
class CompiledSystem:
    """What every checked index call reads of one system, built once.

    two_eta[i] is doubled_eta of orbit i, or 0 when it has none.  faults
    lists, in orbit order, the orbits a nonzero multiplicity may not touch:
    the hyperbolic ones, and those whose doubled_eta raises.  phi[i] is
    (P, Q, d) with phi_i = (P + Q sqrt(d))/denominator, one d per field (the
    smallest radicand of the system in it), or None for an orbit without
    phi.  lattice is None when nullhomologous_lattice raises.
    """

    elliptic: tuple[bool, ...]
    two_eta: tuple[int, ...]
    faults: tuple[int, ...]
    phi: tuple[tuple[int, int, int] | None, ...]
    denominator: int
    linking: tuple[tuple[int, ...], ...]
    lattice: NullLattice | None


@lru_cache(maxsize=256)
def compile_system(system: OrbitSystem) -> CompiledSystem:
    """The system's CompiledSystem; the one per-system cache of the package.

    Nothing is raised here: _check_generator repeats a failing step when a
    generator reaches it, so each error keeps its place in the check order.
    """
    elliptic = tuple(orbit.is_elliptic() for orbit in system.orbits)
    two_eta: list[int] = []
    faults: list[int] = []
    for i, orbit in enumerate(system.orbits):
        doubled = 0
        if elliptic[i]:
            try:
                doubled = doubled_eta(orbit)
            except (ValueError, AttributeError):  # raised again by a call with m_i != 0
                faults.append(i)
        else:
            faults.append(i)
        two_eta.append(doubled)
    phis = [orbit.phi if e else None for orbit, e in zip(system.orbits, elliptic)]
    field: dict[int, int] = {}  # radicand -> the smallest radicand of its field
    for d in sorted({phi.d for phi in phis if phi is not None and phi.q}):
        field[d] = next((e for e in field.values() if same_field(e, d)), d)
    phis = [
        phi.over_radicand(field[phi.d]) if phi is not None and phi.q and field[phi.d] != phi.d
        else phi
        for phi in phis
    ]
    den = lcm(*(phi.den for phi in phis if phi is not None))
    try:
        lattice = nullhomologous_lattice(system)
    except (NonTorsionClassError, IndexError):  # raised again once the generator checks pass
        lattice = None
    return CompiledSystem(
        elliptic=elliptic,
        two_eta=tuple(two_eta),
        faults=tuple(faults),
        phi=tuple(
            None if phi is None else (phi.num * (den // phi.den), phi.q * (den // phi.den), phi.d)
            for phi in phis
        ),
        denominator=den,
        linking=system.linking,
        lattice=lattice,
    )


def _check_generator(system: OrbitSystem, m: Sequence[int]) -> tuple[Generator, CompiledSystem]:
    """The generator as a tuple, with the system's compiled record.  Raises,
    in this order: an invalid generator, then per orbit with m_i != 0 a
    hyperbolic orbit or eta outside (1/2)Z, then the lattice's errors."""
    compiled = compile_system(system)
    m = tuple(map(int, m))
    if not is_valid_generator(system, m):
        raise ValueError(f"invalid generator multiplicities {m}")
    for i in compiled.faults:
        if m[i]:
            orbit = system.orbits[i]
            if not compiled.elliptic[i]:
                raise HyperbolicOrbitError(
                    f"orbit {orbit.name} is hyperbolic; index formulas need elliptic orbits"
                )
            doubled_eta(orbit)  # raises, as it did when the record was built
    lattice = compiled.lattice or nullhomologous_lattice(system)  # the latter raises
    if not lattice.contains(m):
        raise NotNullhomologousError(f"generator {m} is not nullhomologous")
    return m, compiled


def _index(m: Generator, compiled: CompiledSystem) -> int:
    """I on a checked generator; an odd value means inconsistent eta."""
    den = compiled.denominator
    prefixes = [
        {mult: _floor_prefix(phi, den, mult)} if mult else None
        for mult, phi in zip(m, compiled.phi)
    ]
    total = index_formula(compiled, m, prefixes)
    if total % 2:
        raise IndexParityError(
            f"index {total} is odd for all-elliptic generator {m}; eta inputs inconsistent"
        )
    return total


def ech_index(system: OrbitSystem, m: Sequence[int]) -> int:
    """Absolute ECH index; an even integer, with I(empty) = 0."""
    m, compiled = _check_generator(system, m)
    return _index(m, compiled)


def j0_index(system: OrbitSystem, m: Sequence[int]) -> int:
    """Absolute J0 index, with J0(empty) = 0, as I minus the closed form I - J0."""
    m, compiled = _check_generator(system, m)
    value_i = _index(m, compiled)
    return value_i - index_residual(compiled, m)


def index_identity_residual(system: OrbitSystem, m: Sequence[int]) -> int:
    """Closed form for I - J0: sum m_i(4 eta_i - 2) + 2 sum floor(m_i phi_i) + #nonzero."""
    m, compiled = _check_generator(system, m)
    return index_residual(compiled, m)


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

    Accepts integer or rational multiplicities.  Raises HyperbolicOrbitError
    when an orbit without phi has m_i != 0, then MixedFieldError when the
    irrational phi_i with m_i != 0 lie in two or more quadratic fields.
    Rational m is scaled to integers w = scale * m, and Qbar(m) is
    Qbar(w)/scale^2.
    """
    if len(m) != system.n:
        raise ValueError("dimension mismatch")
    compiled = compile_system(system)
    scale = 1
    if not all(type(v) is int for v in m):
        weights = [Fraction(v) for v in m]
        scale = lcm(*(w.denominator for w in weights))
        m = [w.numerator * (scale // w.denominator) for w in weights]
    for i, w in enumerate(m):
        if w and not compiled.elliptic[i]:
            raise HyperbolicOrbitError(f"orbit {system.orbits[i].name} is hyperbolic; qbar needs phi")
    value = _qbar(compiled, m)
    if value is None:
        raise MixedFieldError("the irrational phi_i with m_i != 0 span several quadratic fields")
    if scale == 1:
        return value
    return ExactReal._in_field(value.num, value.q, value.den * scale * scale, value.d)


def _qbar(compiled: CompiledSystem, m: Sequence[int]) -> ExactReal | None:
    """qbar on integer m of the system's length whose nonzero entries sit on
    elliptic orbits, over the compiled record; None when the irrational phi_i
    with m_i != 0 span two or more fields."""
    n = len(m)
    rational = radical = cross = 0
    field = None
    for i in range(n):
        w = m[i]
        if not w:
            continue
        p, q, d = compiled.phi[i]
        rational += w * w * p
        if q:
            if field is not None and d != field:
                return None
            radical += w * w * q
            field = d
        row = compiled.linking[i]
        for j in range(i + 1, n):
            if m[j]:
                cross += w * m[j] * row[j]
    den = compiled.denominator
    return ExactReal._in_field(rational + 2 * cross * den, radical, den, field or 1)


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
    bounds are rounded outward with a certified floor: one isqrt when the
    irrational phi_i with m_i != 0 lie in one field, the multi-radical
    refinement of floor_radical_sum when they span several.
    """
    return _envelope(*_check_generator(system, m))


class _ReadAs:
    """A read-only table that holds one value under every key."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __getitem__(self, key):
        return self.value


# index_formula's prefixes with every F_k(t) read as 0, shared by every call
_NO_FLOORS = _ReadAs(_ReadAs(0))


def _envelope(m: Generator, compiled: CompiledSystem) -> tuple[int, int]:
    """index_envelope on a checked generator.  hi is the formula with every
    floor prefix read as 0 plus floor(sum m_i(m_i + 1) phi_i).  That floor is
    one _floor_state certificate when the irrational phi_i with m_i != 0
    share one radicand, which compile_system makes true of one field, or
    when there are none; only mixed fields reach floor_radical_sum."""
    total_mult = sum(m)
    if total_mult == 0:
        return (0, 0)
    floor_free = index_formula(compiled, m, _NO_FLOORS)
    # sum m_i(m_i + 1) phi_i = (rational + sum radical_d sqrt(d))/R, and for
    # an integer R > 0, floor(x/R) = floor(floor(x)/R)
    den = compiled.denominator
    rational = radical = 0
    field = None  # the radicand of the first irrational phi_i met
    others = []  # (coefficient, radicand) of the phi_i in other fields
    for mult, phi in zip(m, compiled.phi):
        if mult:
            p, q, d = phi
            weight = mult * (mult + 1)
            rational += p * weight
            if not q:
                continue
            if field is None or d == field:
                radical += q * weight
                field = d
            else:
                others.append((q * weight, d))
    if others:
        hi = floor_free + floor_radical_sum(rational, [(radical, field), *others]) // den
    else:
        hi = floor_free + _floor_state(rational, radical, den, field or 1)
    return (hi - 2 * total_mult + 1, hi)


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
    """Full report; qbar is None when the irrational phi_i with m_i != 0 span
    two or more fields."""
    m, compiled = _check_generator(system, m)
    value_i = _index(m, compiled)
    return IndexReport(
        I=value_i,
        J0=value_i - index_residual(compiled, m),
        mod2=0,  # every orbit a checked generator covers is elliptic
        qbar=_qbar(compiled, m),
        envelope=_envelope(m, compiled),
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
