"""Orbit model: validation, torsion orders, nullhomologous lattices."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echlab.errors import NonTorsionClassError
from echlab.exactreal import make_exact
from echlab.orbits import (
    ELLIPTIC,
    POSITIVE_HYPERBOLIC,
    Homology,
    Orbit,
    OrbitSystem,
    is_valid_generator,
    nullhomologous_lattice,
    orbit_order,
    validate_system,
)
from echlab.intlinalg import row_hermite_form
from echlab.presets_io import SYSTEM_PRESETS, load_system_preset
from test_intlinalg import smith_normal_form

SQRT2 = make_exact((0, 1, 1, 2))
ONE = Fraction(1)


def two_orbit_system(classes=((), ()), homology=(), q12=1):
    orbits = (
        Orbit("a", ELLIPTIC, eta=ONE, phi=SQRT2, homology_class=classes[0]),
        Orbit("b", ELLIPTIC, eta=ONE, phi=make_exact((3, -1, 1, 2)), homology_class=classes[1]),
    )
    return OrbitSystem(orbits, ((0, q12), (q12, 0)), Homology(homology))


def test_validate_ellipsoid_preset_ok():
    report = validate_system(load_system_preset("ellipsoid-sqrt2"))
    assert report.ok
    assert report.warnings == ()


def test_validate_flags_asymmetric_linking():
    orbits = (
        Orbit("a", ELLIPTIC, eta=ONE, phi=SQRT2),
        Orbit("b", ELLIPTIC, eta=ONE, phi=SQRT2),
    )
    system = OrbitSystem(orbits, ((0, 1), (2, 0)), Homology())
    report = validate_system(system)
    assert not report.ok
    assert any("symmetric" in v for v in report.violations)


def test_validate_flags_rational_phi_as_degenerate_risk():
    orbits = (Orbit("a", ELLIPTIC, eta=ONE, phi=make_exact((1, 2))),)
    report = validate_system(OrbitSystem(orbits, ((0,),), Homology()))
    assert report.ok  # warning, not violation
    assert any("degenerate" in w for w in report.warnings)


def test_validate_rejects_hyperbolic_with_constants():
    orbits = (Orbit("h", POSITIVE_HYPERBOLIC, eta=ONE),)
    report = validate_system(OrbitSystem(orbits, ((0,),), Homology()))
    assert not report.ok


def test_orbit_order_examples():
    assert orbit_order(Orbit("a", ELLIPTIC, ONE, SQRT2, (1,)), Homology((3,))) == 3
    assert orbit_order(Orbit("a", ELLIPTIC, ONE, SQRT2, (2,)), Homology((4,))) == 2
    assert orbit_order(Orbit("a", ELLIPTIC, ONE, SQRT2, (1, 2)), Homology((3, 4))) == 6


def test_orbit_order_oracle_scan():
    homology = Homology((3, 4))
    orbit = Orbit("a", ELLIPTIC, ONE, SQRT2, (1, 2))
    order = orbit_order(orbit, homology)
    hits = [
        l
        for l in range(1, 13)
        if all((l * a) % d == 0 for a, d in zip(orbit.homology_class, homology.orders))
    ]
    assert hits[0] == order


@settings(max_examples=100)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    st.lists(st.integers(-12, 12), min_size=3, max_size=3),
)
def test_orbit_order_divides_every_annihilator(orders, cls):
    homology = Homology(tuple(orders))
    orbit = Orbit("a", ELLIPTIC, ONE, SQRT2, tuple(cls[: len(orders)]))
    order = orbit_order(orbit, homology)
    for l in range(1, 4 * order + 1):
        annihilates = all(
            (l * a) % d == 0 for a, d in zip(orbit.homology_class, homology.orders)
        )
        assert annihilates == (l % order == 0)


def test_orbit_order_rejects_non_torsion():
    with pytest.raises(NonTorsionClassError):
        orbit_order(Orbit("a", ELLIPTIC, ONE, SQRT2, (1,)), Homology((0,)))


def test_lattice_lens_example():
    system = two_orbit_system(classes=((1,), (2,)), homology=(3,))
    lattice = nullhomologous_lattice(system)
    assert lattice.index == 3
    assert lattice.contains((1, 1))
    assert not lattice.contains((1, 0))


def test_lattice_trivial_homology():
    lattice = nullhomologous_lattice(two_orbit_system())
    assert lattice.index == 1
    assert lattice.contains((7, 5))


def test_lattice_z2_diagonal_example():
    system = two_orbit_system(classes=((1,), (1,)), homology=(2,))
    lattice = nullhomologous_lattice(system)
    assert lattice.index == 2
    for m1, m2 in product(range(-6, 7), repeat=2):
        assert lattice.contains((m1, m2)) == ((m1 + m2) % 2 == 0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=2),
    st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2), min_size=1, max_size=2),
)
def test_lattice_membership_matches_congruence_scan(orders, classes_by_factor):
    rank = len(orders)
    classes = [tuple(cc[:rank]) for cc in [list(c) + [0] * 2 for c in zip(*classes_by_factor)]]
    system = two_orbit_system(classes=tuple(classes), homology=tuple(orders))
    lattice = nullhomologous_lattice(system)
    for m in product(range(-20, 21), repeat=2):
        direct = all(
            sum(mi * cls[j] for mi, cls in zip(m, classes)) % d == 0
            for j, d in enumerate(orders)
        )
        assert lattice.contains(m) == direct


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(lambda t: t[0] * t[1] <= 64),
    st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_lattice_index_equals_subgroup_order(orders, classes):
    d1, d2 = orders
    cls_a = (classes[0][0] % d1, classes[0][1] % d2)
    cls_b = (classes[1][0] % d1, classes[1][1] % d2)
    system = two_orbit_system(classes=(cls_a, cls_b), homology=(d1, d2))
    lattice = nullhomologous_lattice(system)
    subgroup = {
        ((m1 * cls_a[0] + m2 * cls_b[0]) % d1, (m1 * cls_a[1] + m2 * cls_b[1]) % d2)
        for m1 in range(d1 * d2)
        for m2 in range(d1 * d2)
    }
    assert lattice.index == len(subgroup)


def smith_kernel_lattice(system):
    """Oracle: the integer kernel of [class-matrix | diag(orders)] from the
    Smith form, projected onto the m coordinates and Hermite-reduced."""
    n = system.n
    finite = [(j, d) for j, d in enumerate(system.homology.orders) if d != 0]
    rows = []
    for k, (j, d) in enumerate(finite):
        row = [o.homology_class[j] for o in system.orbits]
        row += [d if t == k else 0 for t in range(len(finite))]
        rows.append(row)
    if not rows or n == 0:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1
    _, s, v = smith_normal_form(rows)
    rank = sum(1 for t in range(min(len(rows), len(rows[0]))) if s[t][t] != 0)
    generators = [[v[i][col] for i in range(n)] for col in range(rank, len(rows[0]))]
    basis = row_hermite_form(generators)
    index = 1
    for i in range(n):
        index *= basis[i][i]
    return tuple(tuple(r) for r in basis), index


def random_torsion_system(rng):
    n = rng.randint(1, 4)
    orders = tuple(rng.choice((0, 1, 2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(0, 3)))
    classes = [
        tuple(0 if d == 0 else rng.randint(-2 * d, 2 * d) for d in orders) for _ in range(n)
    ]
    orbits = tuple(
        Orbit(f"o{i}", ELLIPTIC, eta=ONE, phi=SQRT2, homology_class=c)
        for i, c in enumerate(classes)
    )
    linking = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return OrbitSystem(orbits, linking, Homology(orders))


_SCAN_RADIUS = {1: 24, 2: 10, 3: 4, 4: 2}


def test_lattice_matches_smith_kernel_oracle():
    rng = random.Random(9)
    systems = [load_system_preset(name) for name in SYSTEM_PRESETS]
    systems += [random_torsion_system(rng) for _ in range(240)]
    seen = set()
    for system in systems:
        lattice = nullhomologous_lattice(system)
        basis, index = smith_kernel_lattice(system)
        assert (lattice.basis, lattice.index) == (basis, index)
        assert row_hermite_form(lattice.basis) == [list(r) for r in lattice.basis]
        orders = system.homology.orders
        classes = [o.homology_class for o in system.orbits]
        radius = _SCAN_RADIUS.get(system.n, 1)
        for m in product(range(-radius, radius + 1), repeat=system.n):
            direct = all(
                d == 0 or sum(mi * c[j] for mi, c in zip(m, classes)) % d == 0
                for j, d in enumerate(orders)
            )
            assert lattice.contains(m) == direct
        seen.add((system.n, len(orders), 0 in orders, index > 1))
    assert {n for n, *_ in seen} == {1, 2, 3, 4}
    assert {k for _, k, *_ in seen} == {0, 1, 2, 3}
    assert (True, True) in {(infinite, big) for *_, infinite, big in seen}


def test_generator_validity():
    elliptic_only = load_system_preset("ellipsoid-sqrt2")
    assert is_valid_generator(elliptic_only, (5, 9))
    eh = load_system_preset("eh-system")
    assert is_valid_generator(eh, (7, 1))
    assert is_valid_generator(eh, (7, 0))
    assert not is_valid_generator(eh, (7, 2))
    assert not is_valid_generator(eh, (-1, 0))
    with pytest.raises(ValueError):
        is_valid_generator(eh, (1, 1, 1))
