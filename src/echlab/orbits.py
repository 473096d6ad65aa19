"""Data model for embedded Reeb orbits and orbit systems.

An orbit system packages the orbits (with their trivialization-invariant
constants eta and phi for elliptic orbits), the symmetric linking matrix,
and the first homology of the ambient manifold as a direct sum of cyclic
groups.  Generators are plain tuples of nonnegative multiplicities indexed
like the orbit list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .errors import NonTorsionClassError
from .exactreal import ExactReal, make_exact
from .intlinalg import row_hermite_form

ELLIPTIC = "elliptic"
POSITIVE_HYPERBOLIC = "positive-hyperbolic"
NEGATIVE_HYPERBOLIC = "negative-hyperbolic"
ORBIT_KINDS = (ELLIPTIC, POSITIVE_HYPERBOLIC, NEGATIVE_HYPERBOLIC)

Generator = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Orbit:
    """One embedded orbit.  Elliptic orbits carry eta (a half-integer) and
    phi (an exact real); hyperbolic orbits carry neither."""

    name: str
    kind: str
    eta: Fraction | None = None
    phi: ExactReal | None = None
    homology_class: tuple[int, ...] = ()

    def is_elliptic(self) -> bool:
        return self.kind == ELLIPTIC


@dataclass(frozen=True, slots=True)
class Homology:
    """H1 as a direct sum of Z/d_j; order 0 encodes an infinite cyclic factor."""

    orders: tuple[int, ...] = ()

    def __post_init__(self):
        if any(d < 0 for d in self.orders):
            raise ValueError("cyclic orders must be nonnegative")


@dataclass(frozen=True, slots=True)
class OrbitSystem:
    orbits: tuple[Orbit, ...]
    linking: tuple[tuple[int, ...], ...]
    homology: Homology = Homology()
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        # Per-system caches are keyed by the system on every index call;
        # hashing every orbit's eta and phi each time dominated those calls.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.orbits, self.linking, self.homology)))
        return self._hash

    @property
    def n(self) -> int:
        return len(self.orbits)


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_system(system: OrbitSystem) -> ValidationReport:
    """Check the type invariants; rational phi is reported as a warning
    (degenerate-risk), not a violation."""
    bad: list[str] = []
    warn: list[str] = []
    n = system.n
    names = [o.name for o in system.orbits]
    if len(set(names)) != n:
        bad.append("orbit names not distinct")
    if len(system.linking) != n or any(len(row) != n for row in system.linking):
        bad.append("linking matrix shape does not match orbit count")
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if system.linking[i][j] != system.linking[j][i]:
                    bad.append("linking not symmetric")
                    break
            else:
                continue
            break
    rank = len(system.homology.orders)
    for o in system.orbits:
        if o.kind not in ORBIT_KINDS:
            bad.append(f"orbit {o.name}: unknown kind {o.kind!r}")
            continue
        if o.is_elliptic():
            if o.eta is None or o.phi is None:
                bad.append(f"orbit {o.name}: elliptic orbit must carry eta and phi")
            else:
                if (2 * o.eta).denominator != 1:
                    bad.append(f"orbit {o.name}: eta must lie in (1/2)Z")
                if o.phi.is_rational():
                    warn.append(f"orbit {o.name}: rational phi (degenerate-risk)")
        else:
            if o.eta is not None or o.phi is not None:
                bad.append(f"orbit {o.name}: hyperbolic orbit must not carry eta or phi")
        if len(o.homology_class) != rank:
            bad.append(f"orbit {o.name}: homology class length != number of H1 factors")
    return ValidationReport(tuple(bad), tuple(warn))


def orbit_order(orbit: Orbit, homology: Homology) -> int:
    """Smallest l >= 1 with l * [orbit] = 0; requires a torsion class."""
    order = 1
    for a, d in zip(orbit.homology_class, homology.orders):
        if d == 0:
            if a != 0:
                raise NonTorsionClassError(f"orbit {orbit.name} is not torsion")
            continue
        order = lcm(order, d // gcd(d, a))
    return order


@dataclass(frozen=True, slots=True)
class NullLattice:
    """Full-rank sublattice of Z^n of multiplicity vectors with vanishing
    weighted homology class.  basis is in row Hermite form."""

    basis: tuple[tuple[int, ...], ...]
    index: int

    def contains(self, m: Sequence[int]) -> bool:
        n = len(self.basis)
        if len(m) != n:
            raise ValueError("dimension mismatch")
        if self.index == 1:  # a full-rank sublattice of index 1 is all of Z^n
            return True
        residual = list(m)
        for i in range(n):
            pivot = self.basis[i][i]
            if residual[i] % pivot:
                return False
            f = residual[i] // pivot
            for j in range(i, n):
                residual[j] -= f * self.basis[i][j]
        return all(v == 0 for v in residual)


def nullhomologous_lattice(system: OrbitSystem) -> NullLattice:
    """Solve sum_i m_i [gamma_i] = 0 in H1 over the integers.

    One row Hermite form of the augmented rows (class_i | e_i), one per
    orbit, and (d_j e_j | 0), one per finite factor Z/d_j, spans the pairs
    (class of m, m) modulo the orders.  Its rows with a zero class block
    are the reduced row Hermite basis of the lattice of m with class 0;
    index is the lattice's index in Z^n (reciprocal of its density).
    """
    for o in system.orbits:
        orbit_order(o, system.homology)  # raises NonTorsionClassError if needed
    finite = [(j, d) for j, d in enumerate(system.homology.orders) if d != 0]
    k, n = len(finite), system.n
    rows = [[o.homology_class[j] for j, _ in finite] + [int(i == t) for t in range(n)]
            for i, o in enumerate(system.orbits)]
    rows += [[d * int(j == t) for t in range(k)] + [0] * n for j, (_, d) in enumerate(finite)]
    basis = tuple(tuple(r[k:]) for r in row_hermite_form(rows) if not any(r[:k]))
    return NullLattice(basis, prod(basis[i][i] for i in range(n)))


def is_valid_generator(system: OrbitSystem, m: Sequence[int]) -> bool:
    """Multiplicities are nonnegative, and 1 is the cap on hyperbolic orbits."""
    if len(m) != system.n:
        raise ValueError("dimension mismatch")
    for orbit, mult in zip(system.orbits, m):
        if mult < 0 or (mult > 1 and orbit.kind != ELLIPTIC):
            return False
    return True


# -- JSON wire format -------------------------------------------------------


def orbit_from_json(obj: Mapping) -> Orbit:
    kind = obj["kind"]
    eta = obj.get("eta")
    phi = obj.get("phi")
    return Orbit(
        name=str(obj["name"]),
        kind=kind,
        eta=Fraction(int(eta["num"]), int(eta["den"])) if eta is not None else None,
        phi=make_exact(phi) if phi is not None else None,
        homology_class=tuple(int(c) for c in obj.get("class", ())),
    )


def orbit_to_json(orbit: Orbit) -> dict:
    out: dict = {"name": orbit.name, "kind": orbit.kind, "class": list(orbit.homology_class)}
    if orbit.eta is not None:
        out["eta"] = {"num": orbit.eta.numerator, "den": orbit.eta.denominator}
    if orbit.phi is not None:
        out["phi"] = orbit.phi.to_json()
    return out


def system_from_json(obj: Mapping) -> OrbitSystem:
    orbits = tuple(orbit_from_json(o) for o in obj["orbits"])
    linking = tuple(tuple(int(v) for v in row) for row in obj["linking"])
    homology = Homology(tuple(int(d) for d in obj.get("homology", ())))
    return OrbitSystem(orbits, linking, homology)


def system_to_json(system: OrbitSystem) -> dict:
    return {
        "orbits": [orbit_to_json(o) for o in system.orbits],
        "linking": [list(row) for row in system.linking],
        "homology": list(system.homology.orders),
    }


def load_system(path) -> OrbitSystem:
    with open(path) as fh:
        return system_from_json(json.load(fh))
