"""Acceptance suite: the nine exit criteria, each at its stated tolerance
and runtime budget.  One pass/fail line prints per criterion (run with -s)."""

import random
import time
from fractions import Fraction
from itertools import product

from echlab.census import (
    ellipsoid_verify,
    enumerate_generators,
    growth_exponent,
    triangle_lattice_count,
)
from echlab.exactreal import ExactReal, make_exact
from echlab.indices import (
    CYLINDER,
    INFEASIBLE,
    End,
    EndData,
    cylinder_criterion,
    ech_index,
    genus_bound,
    index_identity_residual,
    j0_index,
)
from echlab.intlinalg import det, identity, mat_pow, mat_sub
from echlab.lefschetz import (
    COUNT,
    NONE,
    ZetaSolution,
    torus_orbit_report,
    torus_periodic_points,
    zeta_identity_check,
    zeta_solve,
    ZetaInstance,
)
from echlab.orbits import nullhomologous_lattice
from echlab.presets_io import load_system_preset, load_torus_preset
from echlab.stheta import density_profile, s_theta_up_to, semiconvergents_above

from test_indices import j0_oracle
from test_lefschetz import grid_count

SQRT2 = make_exact((0, 1, 1, 2))
SQRT2M1 = make_exact((-1, 1, 1, 2))
GOLDEN = make_exact((1, 1, 2, 5))
SQRT3 = make_exact((0, 1, 1, 3))

ALL_ELLIPTIC_PRESETS = (
    "ellipsoid-sqrt2",
    "ellipsoid-golden",
    "ellipsoid-sqrt3",
    "lens3",
    "n1",
    "n3",
)


class _Stopwatch:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s / budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s budget"
        return False


def test_criterion_1_ellipsoid_spectrum():
    for phi1, name in ((SQRT2, "sqrt2"), (GOLDEN, "golden"), (SQRT3, "sqrt3")):
        with _Stopwatch(f"1 ellipsoid spectrum ({name})", 1.0):
            outcome = ellipsoid_verify(phi1, 200)
            assert outcome.passed, outcome.first_discrepancy
            assert outcome.generator_count == 101  # 0,2,...,200 exactly once


def test_criterion_2_lattice_triangle_oracle():
    with _Stopwatch("2 lattice-triangle oracle", 1.0):
        for phi1, preset in (
            (SQRT2, "ellipsoid-sqrt2"),
            (GOLDEN, "ellipsoid-golden"),
            (SQRT3, "ellipsoid-sqrt3"),
        ):
            system = load_system_preset(preset)
            for m1 in range(41):
                for m2 in range(41 - m1):
                    half_index = ech_index(system, (m1, m2)) // 2
                    assert half_index == triangle_lattice_count(phi1, (m1, m2)) - 1


def test_criterion_3_growth_trichotomy():
    with _Stopwatch("3 growth trichotomy", 30.0):
        samples = sorted({round(200 * (4000 / 200) ** (j / 11)) for j in range(12)})
        fit_n1 = growth_exponent(load_system_preset("n1"), samples)
        assert abs(fit_n1.exponent - 0.5) <= 0.1, fit_n1
        fit_ell = growth_exponent(load_system_preset("ellipsoid-sqrt2"), samples)
        assert abs(fit_ell.exponent - 1.0) <= 0.05, fit_ell
        samples3 = sorted({round(200 * (2000 / 200) ** (j / 9)) for j in range(10)})
        fit_n3 = growth_exponent(load_system_preset("n3"), samples3)
        assert abs(fit_n3.exponent - 1.5) <= 0.1, fit_n3


def _random_generator(rng, system, name):
    m = [rng.randint(0, 50) for _ in range(system.n)]
    if name == "lens3":
        m[0] += (-(m[0] + 2 * m[1])) % 3
    return tuple(m)


def test_criterion_4_index_identity():
    with _Stopwatch("4 index identity", 5.0):
        rng = random.Random(20260810)
        per_preset = 10_000 // len(ALL_ELLIPTIC_PRESETS) + 1
        total = 0
        for name in ALL_ELLIPTIC_PRESETS:
            system = load_system_preset(name)
            for _ in range(per_preset):
                m = _random_generator(rng, system, name)
                value_i = ech_index(system, m)
                value_j0 = j0_index(system, m)
                assert value_i % 2 == 0, (name, m)
                assert value_i - value_j0 == index_identity_residual(system, m), (name, m)
                assert value_j0 == j0_oracle(system, m), (name, m)
                total += 1
        assert total >= 10_000


def test_criterion_5_s_theta_suite():
    with _Stopwatch("5 S_theta suite", 20.0):
        assert s_theta_up_to(SQRT2M1, 12) == [1, 2, 7, 12]

        rng = random.Random(5)
        squarefree = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26]
        for _ in range(20):
            theta = ExactReal.from_quadratic(
                rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]),
                rng.randint(1, 9), rng.choice(squarefree),
            )
            members = s_theta_up_to(theta, 10**4)
            dual = [f.denominator for f in semiconvergents_above(theta, 10**4)]
            assert members == dual, theta

        for theta in (SQRT2M1, GOLDEN, SQRT3):
            members = s_theta_up_to(theta, 10**5)
            gaps = [b - a for a, b in zip(members, members[1:])]
            assert all(x <= y for x, y in zip(gaps, gaps[1:])), theta
            mirror = set(s_theta_up_to(-theta, max(gaps)))
            assert all(g in mirror for g in gaps), theta
            (_, density), = density_profile(theta, 10**5, [10**5])
            assert density < Fraction(5, 1000), (theta, density)


def test_criterion_6_zeta_solver():
    with _Stopwatch("6 zeta solver", 1.0):
        solutions = zeta_solve(3, 6, 5)
        assert solutions == [
            ZetaSolution(0, None, None, (1, 1)),
            ZetaSolution(1, 2, 1, ()),
        ]
        failing = zeta_identity_check(ZetaInstance(0, (), (2,)), 4)
        assert not failing.passed and failing.first_failing_power == 1


def test_criterion_7_torus_maps():
    with _Stopwatch("7 torus maps", 5.0):
        for name in ("irrational-rotation", "twist"):
            report = torus_orbit_report(load_torus_preset(name), 100)
            assert report.first_period is None, name
        anosov = load_torus_preset("anosov")
        matrix = ((2, 1), (1, 1))
        for p in range(1, 9):
            outcome = torus_periodic_points(anosov, p)
            assert outcome.kind == COUNT
            expected = abs(det(mat_sub(mat_pow(matrix, p), identity(2))))
            assert outcome.count == expected
            assert outcome.count == grid_count(matrix, (Fraction(0), Fraction(0)), p)


def test_criterion_8_census_completeness():
    with _Stopwatch("8 census completeness", 10.0):
        for name in ALL_ELLIPTIC_PRESETS:
            system = load_system_preset(name)
            certified = enumerate_generators(system, 60)
            lattice = nullhomologous_lattice(system)
            brute = []
            for m in product(range(65), repeat=system.n):
                if not lattice.contains(m):
                    continue
                value = ech_index(system, m)
                if value <= 60:
                    brute.append((m, value))
            brute.sort(key=lambda e: (e[1], e[0]))
            assert certified.entries == tuple(brute), name


def test_criterion_9_bound_feasibility():
    with _Stopwatch("9 bound feasibility", 1.0):
        rng = random.Random(9)
        single_end = EndData(ends=(End("a", 1, "positive"),))
        assert genus_bound(-1, single_end) == 0
        assert genus_bound(-2, single_end) is None

        for _ in range(500):
            n_plus = rng.randint(1, 3)
            n_minus = rng.randint(0, 3)
            ends = tuple(
                End(rng.choice("ab"), rng.randint(1, 4), "positive")
                for _ in range(n_plus)
            ) + tuple(
                End(rng.choice("ab"), rng.randint(1, 4), "negative")
                for _ in range(n_minus)
            )
            trivial_pos = frozenset(
                name for name in "ab" if rng.random() < 0.3
            )
            data = EndData(ends=ends, trivial_positive=trivial_pos)
            j0 = rng.randint(-3, 8)
            g = genus_bound(j0, data)
            if g is not None:
                assert g >= 0
            if j0 < -1:
                assert genus_bound(j0, EndData(ends=(ends[0],))) is None

            both = EndData(ends=(End("a", 2, "positive"), End("b", 1, "negative")))
            verdict = cylinder_criterion(j0, both, (1, 2), (3, 4)).verdict
            if j0 < 2:
                assert verdict == INFEASIBLE
            elif j0 == 2:
                assert verdict == CYLINDER
            else:
                assert verdict in ("not-cylinder",)
