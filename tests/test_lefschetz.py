"""Zeta identity, solver completeness, and torus-map periodic points."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echlab.exactreal import make_exact
from echlab.intlinalg import det, identity, mat_mul, mat_pow, mat_sub, trace
from echlab.lefschetz import (
    COUNT,
    NONE,
    POSITIVE_DIMENSIONAL,
    AffineTorusMap,
    PeriodicPointReport,
    ZetaInstance,
    ZetaSolution,
    char_reciprocal,
    lefschetz_number,
    torus_orbit_report,
    torus_periodic_points,
    zeta_identity_check,
    zeta_solve,
)
from echlab.presets_io import load_torus_preset
from test_intlinalg import smith_normal_form

ANOSOV = ((2, 1), (1, 1))


def test_lefschetz_number_examples():
    assert lefschetz_number(ZetaInstance(1, ((1, 0), (0, 1)), ()), 5) == 0
    assert lefschetz_number(ZetaInstance(0, (), (1,)), 1) == 2
    assert lefschetz_number(ZetaInstance(1, ANOSOV, ()), 1) == -1


def test_zeta_instance_validation():
    with pytest.raises(ValueError):
        ZetaInstance(1, ((2, 0), (0, 2)), ())  # det 4, not invertible over Z
    with pytest.raises(ValueError):
        ZetaInstance(0, (), (0,))
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        ZetaInstance(1, ((1.9, 0), (0.5, 1)), ())  # would truncate to the identity
    with pytest.raises(ValueError, match="matrix must be 2g x 2g"):
        ZetaInstance(1, (1, 2), ())  # rows that are not sequences
    assert ZetaInstance(1, [[1, 0], [0, 1]], ()).matrix == ((1, 0), (0, 1))


def test_zeta_identity_examples():
    assert zeta_identity_check(ZetaInstance(1, ((1, 0), (0, 1)), ()), 4).passed
    assert zeta_identity_check(ZetaInstance(0, (), (1, 1)), 4).passed
    failing = zeta_identity_check(ZetaInstance(0, (), (2,)), 4)
    assert not failing.passed
    assert failing.first_failing_power == 1


def test_zeta_identity_fixed_point_crosscheck():
    # passes the polynomial identity => per-iterate counts agree up to 20
    inst = ZetaInstance(0, (), (1, 1))
    check = zeta_identity_check(inst, 20)
    assert check.passed
    for p in range(1, 21):
        assert lefschetz_number(inst, p) == sum(q for q in inst.periods if p % q == 0)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def identity_product(instance):
    """det(1 - tA) * prod (1 - t^p) by schoolbook multiplication, trimmed."""
    product_poly = char_reciprocal(instance.matrix)
    for p in instance.periods:
        product_poly = poly_mul(product_poly, [1] + [0] * (p - 1) + [-1])
    while len(product_poly) > 1 and product_poly[-1] == 0:
        product_poly.pop()
    return product_poly


def fixed_point_loop(instance, degree):
    """Per-iterate oracle: the first k <= degree with 2 - tr(A^k) differing
    from sum_{p | k} p, as (k, detail), or None."""
    for k in range(1, degree + 1):
        count = sum(q for q in instance.periods if k % q == 0)
        lefschetz = lefschetz_number(instance, k)
        if lefschetz != count:
            return k, f"fixed-point count at iterate {k}: Lefschetz gives {lefschetz}, orbits give {count}"
    return None


def zeta_check_oracle(instance, degree):
    """The polynomial comparison followed by the per-iterate loop."""
    product_poly = identity_product(instance)
    if product_poly != [1, -2, 1]:
        width = max(len(product_poly), 3)
        padded = product_poly + [0] * (width - len(product_poly))
        target = [1, -2, 1] + [0] * (width - 3)
        k = next(i for i in range(width) if padded[i] != target[i])
        return False, k, f"coefficient of t^{k} is {padded[k]}, expected {target[k]}"
    failure = fixed_point_loop(instance, degree)
    return (True, None, None) if failure is None else (False, *failure)


def random_unimodular(rng, size):
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        f = rng.randint(-2, 2)
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    if size and rng.random() < 0.2:
        m[0] = [-x for x in m[0]]  # det -1
    return tuple(tuple(r) for r in m)


def random_zeta_instance(rng):
    family = rng.randrange(5)
    if family == 0:  # genus 0, passing or near it
        return ZetaInstance(0, (), rng.choice(((1, 1), (1,), (2,), (1, 1, 1), (1, 2), ())))
    if family == 1:  # genus 1 with trace 2: passes without periods
        k = rng.choice((0, 1, 2, -1, -3))
        c = random_unimodular(rng, 2)
        a = mat_mul(mat_mul(c, ((1, k), (0, 1))), _inverse2(c))
        periods = () if rng.random() < 0.6 else (rng.randint(1, 3),)
        return ZetaInstance(1, tuple(tuple(r) for r in a), periods)
    genus = rng.choice((1, 1, 2))
    periods = tuple(sorted(rng.randint(1, 6) for _ in range(rng.randint(0, 4))))
    return ZetaInstance(genus, random_unimodular(rng, 2 * genus), periods)


def _inverse2(c):
    return ((c[1][1], -c[0][1]), (-c[1][0], c[0][0]))


def test_zeta_identity_matches_the_per_iterate_oracle():
    """The identity is the certificate: a passed identity means the loop
    passes up to any degree, a failed one reports the first differing
    coefficient, and the loop passing up to the product's degree gives the
    identity back (Newton's identities)."""
    rng = random.Random(7)
    verdicts = set()
    for _ in range(400):
        inst = random_zeta_instance(rng)
        minimum = max(2, sum(inst.periods), 2 * inst.genus)
        degree = minimum + rng.randint(0, 40)
        check = zeta_identity_check(inst, degree)
        got = (check.passed, check.first_failing_power, check.detail)
        assert got == zeta_check_oracle(inst, degree), inst
        if check.passed:
            assert fixed_point_loop(inst, degree + 60) is None, inst
        full_degree = max(2, 2 * inst.genus + sum(inst.periods))
        if fixed_point_loop(inst, full_degree) is None:
            assert check.passed, inst
        verdicts.add((inst.genus, check.passed))
    assert verdicts >= {(0, True), (0, False), (1, True), (1, False), (2, False)}


def test_zeta_identity_degree_lower_bound():
    with pytest.raises(ValueError, match="degree must be at least 5"):
        zeta_identity_check(ZetaInstance(0, (), (2, 3)), 4)
    with pytest.raises(ValueError, match="degree must be at least 4"):
        zeta_identity_check(ZetaInstance(2, tuple(map(tuple, identity(4))), ()), 3)


def partition_walk(g_max, period_sum_max, trace_bound):
    """Oracle for zeta_solve: every period multiset up to the sum bound and
    every genus-1 trace in the bound, multiplied out and compared."""
    solutions = []
    for periods in _all_partitions(period_sum_max):
        base = [1]
        for p in periods:
            base = poly_mul(base, [1] + [0] * (p - 1) + [-1])
        if base == [1, -2, 1]:
            solutions.append(ZetaSolution(0, None, None, periods))
        if g_max >= 1:
            for tr in range(-trace_bound, trace_bound + 1):
                if poly_mul([1, -tr, 1], base) == [1, -2, 1]:
                    solutions.append(ZetaSolution(1, tr, 1, periods))
    solutions.sort(key=lambda s: (s.genus, s.trace if s.trace is not None else 0, s.periods))
    return solutions


def test_zeta_solve_matches_the_partition_walk():
    for g_max, period_sum_max, trace_bound in product(range(4), range(11), range(7)):
        assert zeta_solve(g_max, period_sum_max, trace_bound) == partition_walk(
            g_max, period_sum_max, trace_bound
        ), (g_max, period_sum_max, trace_bound)


def test_zeta_solve_rejects_negative_bounds():
    for bounds in ((-1, 3, 2), (1, -3, 2), (1, 3, -2)):
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            zeta_solve(*bounds)


def test_zeta_solve_paper_solutions():
    solutions = zeta_solve(3, 6, 5)
    assert solutions == [
        ZetaSolution(0, None, None, (1, 1)),
        ZetaSolution(1, 2, 1, ()),
    ]


def test_zeta_solve_edge_bounds():
    assert zeta_solve(0, 1, 5) == []
    assert zeta_solve(2, 0, 5) == [ZetaSolution(1, 2, 1, ())]


def test_zeta_solver_completeness_by_rescan():
    """Independent re-scan: every candidate in the bounds passes
    zeta_identity_check exactly when the solver returned it."""
    found = set()
    for genus in range(0, 3):
        partitions = _all_partitions(6)
        for periods in partitions:
            if genus == 0:
                inst = ZetaInstance(0, (), periods)
                if zeta_identity_check(inst, max(2, sum(periods))).passed:
                    found.add((0, None, periods))
            elif genus == 1:
                for tr in range(-5, 6):
                    companion = ((tr, -1), (1, 0))
                    inst = ZetaInstance(1, companion, periods)
                    if zeta_identity_check(inst, max(2, sum(periods), 2)).passed:
                        found.add((1, tr, periods))
            # genus 2: degree of det(1-tA) is 4 with unit leading coefficient,
            # so the product degree exceeds 2 for every candidate
    solved = {
        (s.genus, s.trace, s.periods) for s in zeta_solve(2, 6, 5)
    }
    assert found == solved


def _all_partitions(total_max):
    out = [()]
    for total in range(1, total_max + 1):
        out.extend(_partitions_of(total, total))
    return out


def _partitions_of(total, cap):
    if total == 0:
        return [()]
    out = []
    for first in range(min(cap, total), 0, -1):
        for rest in _partitions_of(total - first, first):
            out.append((first,) + rest)
    return out


def test_matrix_power_telescoping():
    a = ANOSOV
    for p, q in [(1, 1), (2, 3), (4, 2)]:
        assert trace(mat_pow(a, p + q)) == trace(mat_mul(mat_pow(a, p), mat_pow(a, q)))


# -- torus maps ---------------------------------------------------------------


def test_irrational_rotation_has_no_periodic_points():
    tm = load_torus_preset("irrational-rotation")
    report = torus_orbit_report(tm, 100)
    assert report.first_period is None
    assert all(r.kind == NONE for _, r in report.rows)


def test_twist_has_no_periodic_points():
    tm = load_torus_preset("twist")
    report = torus_orbit_report(tm, 100)
    assert report.first_period is None


def test_rational_rotation_positive_dimensional():
    tm = AffineTorusMap.build(((1, 0), (0, 1)), [make_exact((1, 3)), make_exact((1, 2))])
    assert torus_periodic_points(tm, 5).kind == NONE
    assert torus_periodic_points(tm, 6).kind == POSITIVE_DIMENSIONAL


def test_anosov_counts():
    tm = load_torus_preset("anosov")
    for p in range(1, 9):
        report = torus_periodic_points(tm, p)
        assert report.kind == COUNT
        b = mat_sub(mat_pow(ANOSOV, p), identity(2))
        assert report.count == abs(det(b))
    assert torus_orbit_report(tm, 8).first_period == 1


def grid_count(matrix, translation_fracs, p):
    """Brute-force oracle: count fixed points of x -> A^p x + c_p on the
    rational grid with denominator D * |det(A^p - I)|."""
    a_pow = mat_pow(matrix, p)
    b = mat_sub(a_pow, identity(2))
    k = abs(det(b))
    assert k != 0
    acc = identity(2)
    term = identity(2)
    for _ in range(p - 1):
        term = mat_mul(term, matrix)
        acc = [[acc[i][j] + term[i][j] for j in range(2)] for i in range(2)]
    d_common = 1
    for f in translation_fracs:
        d_common = np.lcm(d_common, f.denominator)
    grid = d_common * k
    c0 = sum(acc[0][j] * translation_fracs[j] for j in range(2))
    c1 = sum(acc[1][j] * translation_fracs[j] for j in range(2))
    i, j = np.meshgrid(np.arange(grid, dtype=np.int64), np.arange(grid, dtype=np.int64))
    r0 = (b[0][0] * i + b[0][1] * j + int(c0 * grid)) % grid == 0
    r1 = (b[1][0] * i + b[1][1] * j + int(c1 * grid)) % grid == 0
    return int(np.count_nonzero(r0 & r1))


def test_count_matches_rational_grid_oracle():
    from fractions import Fraction

    cases = [
        (ANOSOV, (Fraction(0), Fraction(0))),
        (ANOSOV, (Fraction(1, 2), Fraction(1, 3))),
        (((1, 1), (1, 2)), (Fraction(0), Fraction(1, 4))),
        (((0, -1), (1, 0)), (Fraction(1, 5), Fraction(0))),
    ]
    for matrix, b_fracs in cases:
        tm = AffineTorusMap.build(matrix, [make_exact(f) for f in b_fracs])
        for p in range(1, 5):
            b_mat = mat_sub(mat_pow(matrix, p), identity(2))
            k = abs(det(b_mat))
            if k == 0 or k > 20:
                continue
            report = torus_periodic_points(tm, p)
            assert report.kind == COUNT
            assert report.count == grid_count(matrix, b_fracs, p)


def test_twist_closed_form_obstruction():
    # A = [[1,1],[0,1]], b = (0, beta): c_p = (beta p(p-1)/2, p beta); periodic
    # points need p*beta integral, impossible for irrational beta
    beta = make_exact((0, 1, 2, 2))
    tm = AffineTorusMap.build(((1, 1), (0, 1)), [make_exact(0), beta])
    for p in (1, 2, 3, 7, 30):
        assert torus_periodic_points(tm, p).kind == NONE


def test_torus_map_requires_det_one():
    with pytest.raises(ValueError):
        AffineTorusMap.build(((1, 0), (0, -1)), [make_exact(0), make_exact(0)])


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 6))
def test_determinant_count_invariance_under_translation(a, b, c, p):
    # det A = 1 forces a*d - b*c = 1; pick d accordingly when divisible
    if b * c == -1:
        d = 0
    else:
        if a == 0 or (1 + b * c) % a != 0:
            return
        d = (1 + b * c) // a
    matrix = ((a, b), (c, d))
    if det(matrix) != 1:
        return
    b_mat = mat_sub(mat_pow(matrix, p), identity(2))
    if det(b_mat) == 0:
        return
    plain = AffineTorusMap.build(matrix, [make_exact(0), make_exact(0)])
    shifted = AffineTorusMap.build(matrix, [make_exact((0, 1, 2, 2)), make_exact((1, 3))])
    assert (
        torus_periodic_points(plain, p).count
        == torus_periodic_points(shifted, p).count
        == abs(det(b_mat))
    )


def _integral(pairs):
    rational, radicals = Fraction(0), {}
    for coeff, value in pairs:
        rat, rad, d = value.decompose()
        rational += coeff * rat
        if rad:
            radicals[d] = radicals.get(d, 0) + coeff * rad
    return all(v == 0 for v in radicals.values()) and rational.denominator == 1


def linear_periodic_points(tm, p):
    """Oracle: A^p by mat_pow and I + A + ... + A^(p-1) term by term, then
    the zero / nonzero-det / Smith-form classification."""
    a_pow = mat_pow(tm.matrix, p)
    diff = mat_sub(a_pow, identity(2))
    acc, term = identity(2), identity(2)
    for _ in range(p - 1):
        term = mat_mul(term, tm.matrix)
        acc = [[acc[i][j] + term[i][j] for j in range(2)] for i in range(2)]
    b0, b1 = tm.translation
    if not any(diff[0] + diff[1]):
        solvable = all(_integral([(acc[i][0], b0), (acc[i][1], b1)]) for i in range(2))
        return PeriodicPointReport(POSITIVE_DIMENSIONAL if solvable else NONE)
    if det(diff):
        return PeriodicPointReport(COUNT, abs(det(diff)))
    u = smith_normal_form(diff)[0][1]
    coeffs = [u[0] * acc[0][j] + u[1] * acc[1][j] for j in range(2)]
    solvable = _integral([(coeffs[0], b0), (coeffs[1], b1)])
    return PeriodicPointReport(POSITIVE_DIMENSIONAL if solvable else NONE)


_FINITE_ORDER = (((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)),
                 ((0, -1), (1, -1)), ((1, -1), (1, 0)))


def random_torus_map(rng, family):
    if family == "finite-order":
        core = rng.choice(_FINITE_ORDER)
    elif family == "parabolic":
        s, k = rng.choice((1, -1)), rng.choice((1, 2, 3, -1, -2))
        core = ((s, s * k), (0, s))
    else:
        core = ((rng.choice((3, 4, 5, -3, -4)), -1), (1, 0))
    c = random_unimodular(rng, 2)
    if det(c) != 1:
        c = (tuple(-x for x in c[0]), c[1])
    a = mat_mul(mat_mul(c, core), _inverse2(c))
    translation = [
        make_exact((rng.randint(-5, 5), rng.randint(1, 6))) if rng.random() < 0.5
        else make_exact((0, 1, 1, rng.choice((2, 3, 5, 6, 7, 10))))
        for _ in range(2)
    ]
    return AffineTorusMap.build(a, translation)


def test_torus_orbit_report_matches_the_linear_oracle():
    rng = random.Random(11)
    kinds = set()
    for i in range(24):
        family = ("finite-order", "parabolic", "hyperbolic")[i % 3]
        tm = random_torus_map(rng, family)
        p_max = 200 if i < 6 else rng.randint(1, 60)
        report = torus_orbit_report(tm, p_max)
        assert [p for p, _ in report.rows] == list(range(1, p_max + 1))
        for p, row in report.rows:
            assert row == linear_periodic_points(tm, p), (tm, p)
            kinds.add(row.kind)
        first = next((p for p, r in report.rows if r.kind != NONE), None)
        assert report.first_period == first
    assert kinds == {NONE, COUNT, POSITIVE_DIMENSIONAL}


def test_torus_periodic_points_matches_the_linear_oracle():
    rng = random.Random(13)
    maps = [load_torus_preset(n) for n in ("anosov", "twist", "irrational-rotation")]
    maps += [random_torus_map(rng, f) for f in ("finite-order", "parabolic", "hyperbolic") * 2]
    for tm in maps:
        for p in list(range(1, 41)) + [97, 500]:
            assert torus_periodic_points(tm, p) == linear_periodic_points(tm, p), (tm, p)


def test_torus_map_shape_is_checked_on_direct_construction():
    zero = make_exact(0)
    for matrix, translation in [
        (((1, 1), (0,)), (zero, zero)),
        (((1, 1, 0), (0, 1, 0)), (zero, zero)),
        (((1, 0), (0, 1), (0, 0)), (zero, zero)),
        (((1, 1), (0, 1)), (zero,)),
    ]:
        with pytest.raises(ValueError, match="2 x 2"):
            AffineTorusMap(matrix, translation)


def _kernel_row_one_one(k):
    """I + k (1, -1)^T (1, 1): A^p - I = pk [[1, 1], [-1, -1]] has the left
    kernel row (1, 1), and (1, 1) S_p = (p, p)."""
    return ((1 + k, k), (-k, 1 - k))


def _conjugated(rng, core, b):
    """C A C^-1 with translation C b for a seeded C of determinant 1: the
    map x -> Cx carries one map's periodic points onto the other's."""
    c = random_unimodular(rng, 2)
    if det(c) != 1:
        c = (tuple(-x for x in c[0]), c[1])
    a = mat_mul(mat_mul(c, core), _inverse2(c))
    return AffineTorusMap.build(a, [c[i][0] * b[0] + c[i][1] * b[1] for i in range(2)])


def _rational(rng):
    return make_exact(Fraction(rng.randint(-7, 7), rng.randint(2, 6)))


def test_torus_rows_match_the_linear_oracle_on_one_field_and_rational_translations():
    """Translations whose radical parts cancel along the kernel row while
    their rational parts, over unequal denominators, decide the period;
    translations over two radicands; rational translations with
    denominators 2..6.  Every row of both entry points against the
    Fraction-based oracle."""
    rng = random.Random(29)
    x = make_exact((1, 2, 4, 2))  # (1 + 2 sqrt 2) / 4
    y = make_exact((1, -1, 2, 2))  # (1 - sqrt 2) / 2: x + y = 3/4
    maps = [
        AffineTorusMap.build(_kernel_row_one_one(1), [x, -x]),
        AffineTorusMap.build(_kernel_row_one_one(1), [x, y]),
        AffineTorusMap.build(_kernel_row_one_one(-2), [y, x]),
        AffineTorusMap.build(((1, 0), (0, 1)), [x, -x]),
        AffineTorusMap.build(((1, 0), (0, 1)), [make_exact((1, 2)), make_exact((5, 6))]),
        # kernel row (0, -1) reads b1 alone, whatever b0's radicand
        AffineTorusMap.build(((1, 3), (0, 1)), [make_exact((1, 3, 3, 2)), make_exact((1, 4))]),
        AffineTorusMap.build(((1, 3), (0, 1)), [make_exact((0, 1, 1, 3)), x]),
        AffineTorusMap.build(_kernel_row_one_one(1), [make_exact((0, 1, 1, 3)), x]),
        # sqrt 3 - sqrt 2 is not rational, though its coefficients cancel
        AffineTorusMap.build(_kernel_row_one_one(2), [make_exact((0, 1, 1, 3)),
                                                      make_exact((0, -1, 1, 2))]),
    ]
    for _ in range(12):
        k = rng.choice((1, 2, 3, -1, -2))
        z = make_exact((rng.randint(-5, 5), rng.randint(1, 4), rng.randint(2, 6),
                        rng.choice((2, 3, 5))))
        maps.append(_conjugated(rng, _kernel_row_one_one(k),
                                [z + _rational(rng), _rational(rng) - z]))
        maps.append(_conjugated(rng, ((1, 0), (0, 1)), [_rational(rng), _rational(rng)]))
        family = ("finite-order", "parabolic", "hyperbolic")[rng.randrange(3)]
        tm = random_torus_map(rng, family)
        maps.append(AffineTorusMap.build(tm.matrix, [_rational(rng), _rational(rng)]))
    singular = set()
    for tm in maps:
        report = torus_orbit_report(tm, 40)
        for p, row in report.rows:
            assert row == linear_periodic_points(tm, p) == torus_periodic_points(tm, p), (tm, p)
            if row.kind != COUNT:
                singular.add((row.kind, len({v.den for v in tm.translation}) > 1))
    assert singular == {(kind, unequal) for kind in (NONE, POSITIVE_DIMENSIONAL)
                        for unequal in (False, True)}
