"""Approximation sets: the semiconvergent route against a linear scan of the
definition, density, difference law, and end-multiplicity admissibility."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echlab.errors import DegenerateAngleError
from echlab.exactreal import ExactReal, ceil_mult, make_exact, multiple_is_integral
from echlab.stheta import (
    admissible_end_multiplicity,
    density_profile,
    in_s_theta,
    s_theta_up_to,
    semiconvergents_above,
)

SQRT2M1 = make_exact((-1, 1, 1, 2))  # sqrt2 - 1
TWO_MINUS_SQRT2 = make_exact((2, -1, 1, 2))
GOLDEN = make_exact((1, 1, 2, 5))
SQRT3 = make_exact((0, 1, 1, 3))

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]


def quadratics():
    return st.builds(
        ExactReal.from_quadratic,
        st.integers(-20, 20),
        st.integers(-20, 20).filter(lambda q: q != 0),
        st.integers(1, 20),
        st.sampled_from(SQUAREFREE),
    )


def rational_angles():
    return st.builds(make_exact, st.tuples(st.integers(-300, 300), st.integers(2, 300)))


def scan_members(theta, limit):
    """Linear scan of the defining condition, keeping the running minimum of
    ceil(q*theta)/q as an integer pair; raises DegenerateAngleError at the
    first q with q*theta an integer, where the set is undefined."""
    members = []
    best_num, best_den = 0, 0  # empty minimum: q = 1 joins vacuously
    for q in range(1, limit + 1):
        if multiple_is_integral(theta, q):
            raise DegenerateAngleError(f"{q}*theta is an integer")
        c = ceil_mult(theta, q)
        if best_den == 0 or c * best_den < best_num * q:
            members.append(q)
            best_num, best_den = c, q
    return members


def brute_members(theta, bound):
    """Definition scan, one full re-check per q (independent of the running
    minimum scan_members keeps)."""
    members = []
    for q in range(1, bound + 1):
        ok = all(
            ceil_mult(theta, qq) * q > ceil_mult(theta, q) * qq for qq in range(1, q)
        )
        if ok:
            members.append(q)
    return members


def test_membership_examples():
    assert in_s_theta(SQRT2M1, 1)
    assert in_s_theta(SQRT2M1, 2)
    assert not in_s_theta(SQRT2M1, 3)
    assert in_s_theta(SQRT2M1, 7)


def test_members_examples():
    assert s_theta_up_to(SQRT2M1, 12) == [1, 2, 7, 12]
    # the defining condition admits the odd denominators here; see the
    # brute-force oracle (each gives a strictly better upper approximation)
    assert s_theta_up_to(TWO_MINUS_SQRT2, 5) == [1, 3, 5]
    assert s_theta_up_to(GOLDEN, 8) == [1, 3, 8]


def test_members_match_brute_force():
    for theta in (SQRT2M1, TWO_MINUS_SQRT2, GOLDEN, SQRT3):
        assert s_theta_up_to(theta, 200) == brute_members(theta, 200)


def test_semiconvergents_examples():
    fracs = semiconvergents_above(SQRT2M1, 12)
    assert fracs == [Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(5, 12)]
    with pytest.raises(DegenerateAngleError):
        semiconvergents_above(make_exact((2, 5)), 10)


def test_semiconvergents_are_the_exact_upper_records():
    for theta in (SQRT2M1, GOLDEN, SQRT3):
        members = scan_members(theta, 1500)
        fracs = semiconvergents_above(theta, 1500)
        assert [f.denominator for f in fracs] == members
        for f, q in zip(fracs, members):
            assert f == Fraction(ceil_mult(theta, q), q)
        assert all(a > b for a, b in zip(fracs, fracs[1:]))


@settings(max_examples=40, deadline=None)
@given(quadratics())
def test_dual_route_agreement_random(theta):
    members = scan_members(theta, 600)
    assert [f.denominator for f in semiconvergents_above(theta, 600)] == members
    assert s_theta_up_to(theta, 600) == members
    assert [q for q in range(1, 120) if in_s_theta(theta, q)] == [
        q for q in members if q < 120
    ]


@settings(max_examples=60, deadline=None)
@given(rational_angles())
def test_rational_theta_matches_scan_below_denominator(theta):
    members = scan_members(theta, theta.den - 1)
    assert [q for q in range(1, theta.den) if in_s_theta(theta, q)] == members
    if members:
        assert s_theta_up_to(theta, theta.den - 1) == members
    with pytest.raises(DegenerateAngleError):
        in_s_theta(theta, theta.den)


def test_density_examples():
    assert density_profile(SQRT2M1, 1, [1]) == [(1, Fraction(1))]
    (n, d), = density_profile(SQRT2M1, 10**4, [10**4])
    assert d <= Fraction(1, 100)
    (n, d), = density_profile(GOLDEN, 10**4, [10**4])
    assert d <= Fraction(1, 100)


def test_rational_theta_rejected_beyond_denominator():
    third = make_exact((1, 3))
    assert s_theta_up_to(third, 2) == [1, 2]
    assert in_s_theta(third, 2)
    assert in_s_theta(make_exact((5, 7)), 4)
    assert not in_s_theta(make_exact((5, 7)), 5)
    with pytest.raises(DegenerateAngleError):
        s_theta_up_to(third, 3)
    with pytest.raises(DegenerateAngleError):
        in_s_theta(third, 3)
    with pytest.raises(DegenerateAngleError):
        density_profile(third, 6, [2])


def test_difference_law_and_monotone_gaps():
    for theta in (SQRT2M1, GOLDEN, SQRT3):
        members = s_theta_up_to(theta, 20000)
        gaps = [b - a for a, b in zip(members, members[1:])]
        assert all(x <= y for x, y in zip(gaps, gaps[1:]))
        mirror = set(s_theta_up_to(-theta, max(gaps)))
        assert all(g in mirror for g in gaps)


def test_shift_invariance():
    for theta in (SQRT2M1, GOLDEN):
        shifted = theta + 1
        assert s_theta_up_to(theta, 1000) == s_theta_up_to(shifted, 1000)


@settings(max_examples=30, deadline=None)
@given(quadratics())
def test_shift_invariance_random(theta):
    assert s_theta_up_to(theta, 300) == s_theta_up_to(theta + 1, 300)


def test_admissibility_examples():
    assert admissible_end_multiplicity(SQRT2M1, 1, "positive")
    assert admissible_end_multiplicity(SQRT2M1, 1, "negative")
    assert not admissible_end_multiplicity(SQRT2M1, 3, "negative")
    assert admissible_end_multiplicity(SQRT2M1, 5, "positive")


def test_admissibility_mirrors_membership():
    for m in range(1, 40):
        assert admissible_end_multiplicity(SQRT2M1, m, "negative") == in_s_theta(
            SQRT2M1, m
        )
        assert admissible_end_multiplicity(SQRT2M1, m, "positive") == in_s_theta(
            TWO_MINUS_SQRT2, m
        )
