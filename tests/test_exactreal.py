"""Exact-real arithmetic: certified floors, comparisons, continued fractions."""

from fractions import Fraction
from math import isqrt

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echlab.errors import EchlabError, MixedFieldError, RefinementError
from echlab.exactreal import (
    ExactReal,
    _floor_sum_state,
    ceil_mult,
    compare,
    continued_fraction,
    convergents,
    floor_mult,
    floor_radical_sum,
    floor_sum,
    make_exact,
    multiple_is_integral,
    same_field,
)

SQRT2 = make_exact((0, 1, 1, 2))
GOLDEN = make_exact((1, 1, 2, 5))
SQRT3 = make_exact((0, 1, 1, 3))

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23]


def quadratics(max_coeff=40):
    return st.builds(
        ExactReal.from_quadratic,
        st.integers(-max_coeff, max_coeff),
        st.integers(-max_coeff, max_coeff).filter(lambda q: q != 0),
        st.integers(1, max_coeff),
        st.sampled_from(SQUAREFREE),
    )


def rationals(max_coeff=200):
    return st.builds(
        ExactReal.from_rational,
        st.integers(-max_coeff, max_coeff),
        st.integers(1, max_coeff),
    )


def exact_reals():
    return st.one_of(rationals(), quadratics())


def to_sympy(x: ExactReal):
    return (sp.Integer(x.num) + sp.Integer(x.q) * sp.sqrt(x.d)) / sp.Integer(x.den)


def sympy_partial_quotients(x: ExactReal, n: int) -> tuple[int, ...]:
    """First n partial quotients of x = (num + q sqrt(d)) / den, read off sympy's
    expansions of two rationals on either side of x.  All numbers whose
    expansions share a prefix form an interval, so once both brackets agree
    on n + 1 quotients, x starts with their first n.  (sympy's symbolic
    iterator on x itself re-evaluates ever deeper nested radicals and takes
    over a second for values such as 5 sqrt(13).)"""
    sign = 1 if x.q > 0 else -1
    scale = 10**n
    while True:
        root = isqrt(x.q * x.q * x.d * scale * scale)  # floor(|q| sqrt(d) scale)
        first, second = (
            list(sp.continued_fraction_iterator(sp.Rational(x.num * scale + sign * r, x.den * scale)))
            for r in (root, root + 1)
        )
        if len(first) > n and len(second) > n and first[: n + 1] == second[: n + 1]:
            return tuple(int(a) for a in first[:n])
        scale *= scale


# -- construction ------------------------------------------------------------


def test_make_exact_identity_construction():
    assert SQRT2 == ExactReal(0, 1, 1, 2)
    assert SQRT2.kind == "quadratic"


def test_make_exact_perfect_square_collapses():
    x = make_exact((1, 1, 2, 4))  # (1 + sqrt(4))/2
    assert x.kind == "rational"
    assert x.as_fraction() == Fraction(3, 2)


def test_make_exact_gcd_reduction():
    x = make_exact((2, 2, 4, 5))
    assert x == ExactReal(1, 1, 2, 5)


def test_make_exact_square_factor_extraction():
    assert make_exact((0, 1, 1, 8)) == ExactReal(0, 2, 1, 2)  # sqrt(8) = 2 sqrt(2)
    assert make_exact((0, 3, 2, 12)) == ExactReal(0, 3, 1, 3)  # 3 sqrt(12)/2


def test_make_exact_rejects_bad_input():
    with pytest.raises(ValueError):
        make_exact((1, 0))
    with pytest.raises(ValueError):
        make_exact((1, 1, 0, 2))
    with pytest.raises(ValueError):
        make_exact((1, 1, 1, -2))


def test_json_round_trip():
    for x in (SQRT2, GOLDEN, make_exact((7, 3)), make_exact((-5, 4))):
        assert ExactReal.from_json(x.to_json()) == x


# -- floors ------------------------------------------------------------------


def test_floor_examples():
    assert floor_mult(SQRT2, 1) == 1
    assert floor_mult(SQRT2, 3) == 4
    assert floor_mult(GOLDEN, 4) == 6


def test_floor_rational_and_negative():
    assert floor_mult(make_exact((7, 3)), 1) == 2
    assert floor_mult(make_exact((-7, 3)), 1) == -3
    assert floor_mult(-SQRT2, 1) == -2


def test_floor_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        floor_mult(SQRT2, 0)


def test_ceil_is_floor_plus_one_for_irrationals():
    assert ceil_mult(SQRT2, 2) == floor_mult(SQRT2, 2) + 1
    assert ceil_mult(make_exact(3), 2) == 6


def test_floor_sum_examples():
    assert floor_sum(SQRT2, 0) == 0
    assert floor_sum(SQRT2, 3) == 1 + 2 + 4
    assert floor_sum(make_exact((-7, 3)), 2) == -3 - 5
    with pytest.raises(ValueError):
        floor_sum(SQRT2, -1)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        rationals(),
        st.builds(
            ExactReal.from_quadratic,
            st.integers(-60, 60),
            st.integers(-40, 40).filter(lambda q: q != 0),
            st.integers(-30, 30).filter(lambda r: r != 0),
            st.integers(2, 10**6),
        ),
    ),
    st.integers(0, 400),
)
def test_floor_sum_matches_termwise_floors(x, n):
    assert floor_sum(x, n) == sum(floor_mult(x, k) for k in range(1, n + 1))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-60, 60),
    st.integers(-40, 40),
    st.integers(1, 30),
    # (s, f): the radicand s^2 f, held as s sqrt(f) the way compile_system
    # rescales every radicand of a field to its smallest
    st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 5), (2, 7), (1, 6)]),
    st.integers(1, 12),
    st.integers(0, 200),
)
@example(0, 1, 1, (2, 2), 3, 200)  # sqrt(8) = 2 sqrt(2) over R = 3
@example(1, 1, 2, (2, 3), 5, 200)  # (1 + sqrt(12))/2 = (1 + 2 sqrt(3))/2 over R = 10
@example(7, 0, 3, (1, 2), 4, 200)  # rational 7/3 over R = 12
@example(2, 2, 4, (1, 5), 1, 200)  # the unreduced state (2 + 2 sqrt(5))/4
def test_floor_sum_state_needs_no_lowest_terms(p, q, r, radicand, scale, m):
    # the state a CompiledSystem holds: every coefficient over a common
    # denominator R = scale * r, the radicand rescaled, gcd(P, Q, R) > 1 allowed
    s, f = radicand
    x = ExactReal.from_quadratic(p, q, r, s * s * f)
    state = (p * scale, q * s * scale, r * scale, f if q else 1)
    termwise = sum(floor_mult(x, k) for k in range(1, m + 1))
    assert _floor_sum_state(*state, m) == floor_sum(x, m) == termwise


@settings(max_examples=200)
@given(exact_reals(), st.integers(1, 10**6))
def test_floor_brackets_value_exactly(x, k):
    n = floor_mult(x, k)
    kx = x * k
    assert make_exact(n) <= kx
    assert kx < make_exact(n + 1)


@settings(max_examples=200)
@given(exact_reals(), st.integers(1, 10**4))
def test_floor_reflection_identity(x, k):
    total = floor_mult(x, k) + floor_mult(-x, k)
    if multiple_is_integral(x, k):
        assert total == 0
    else:
        assert total == -1


@settings(max_examples=100)
@given(quadratics(), st.integers(1, 500))
def test_floor_matches_sympy(x, k):
    assert floor_mult(x, k) == int(sp.floor(k * to_sympy(x)))


# -- comparisons -------------------------------------------------------------


def test_compare_examples():
    assert compare(SQRT2, make_exact((3, 2))) == -1
    assert compare(SQRT2, SQRT2) == 0
    assert compare(GOLDEN, SQRT3) == -1


@settings(max_examples=300)
@given(st.one_of(rationals(), quadratics(20)), st.one_of(rationals(), quadratics(20)))
def test_compare_matches_sympy(x, y):
    expected = int(sp.sign(to_sympy(x) - to_sympy(y)))
    assert compare(x, y) == expected


@settings(max_examples=100)
@given(quadratics(20), quadratics(20))
def test_compare_consistent_with_subtraction_in_one_field(x, y):
    if x.d != y.d:
        return
    assert compare(x, y) == (x - y).sign()


def test_mixed_field_arithmetic_is_refused():
    with pytest.raises(MixedFieldError):
        _ = SQRT2 + SQRT3
    with pytest.raises(MixedFieldError):
        _ = SQRT2 * SQRT3
    # comparison across fields stays legal
    assert SQRT2 < SQRT3


# -- one field, several radicands -------------------------------------------

# primes above the trial-division bound, so their squares stay in a radicand
LARGE_PRIMES = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]


def test_equal_values_over_different_radicands():
    s, f = 1000003, 1000033
    x = ExactReal.from_quadratic(0, 1, 1, s * s * f)  # sqrt(s^2 f), unsplit
    y = ExactReal.from_quadratic(0, s, 1, f)
    assert x.d == s * s * f and y.d == f
    assert x == y and hash(x) == hash(y)
    assert compare(x, y) == 0 and not x < y and x <= y
    assert (x + y) == ExactReal.from_quadratic(0, 2 * s, 1, f)
    assert (x - y).is_zero()
    assert x * y == s * s * f
    assert same_field(x.d, y.d) and not same_field(2, 3)
    assert not same_field(4, 64)  # square radicands span no field


def test_hash_separates_small_irrational_parts():
    # the same rational part and sign, irrational parts whose squares
    # 5/9 and 7/9 share an integer part
    x, y = make_exact((0, 1, 3, 5)), make_exact((0, 1, 3, 7))
    assert x != y and hash(x) != hash(y)
    assert hash(make_exact((1, 1, 3, 5))) != hash(make_exact((1, 1, 3, 7)))


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_hashes_as_its_fraction(a, b):
    assert hash(ExactReal.from_rational(a, b)) == hash(Fraction(a, b))


def test_rational_joins_equal_ints_and_fractions_in_a_set():
    assert len({ExactReal.from_rational(1), 1}) == 1
    assert len({ExactReal.from_rational(1, 2), Fraction(1, 2)}) == 1


def _over_large_radicands():
    """(v, v over s^2 d, v over t^2 d) for an irrational v in Q(sqrt d) and
    primes s, t whose squares the radicand keeps: radicands above 10^12."""
    return st.builds(
        lambda v, s, t: (v, v.over_radicand(s * s * v.d), v.over_radicand(t * t * v.d)),
        quadratics(30),
        st.sampled_from(LARGE_PRIMES),
        st.sampled_from(LARGE_PRIMES),
    )


@settings(max_examples=150, deadline=None)
@given(_over_large_radicands(), quadratics(30))
def test_large_radicands_of_one_field_agree(triple, other):
    v, x, y = triple
    assert x.d > 10**12 and y.d > 10**12
    assert x == v == y and hash(x) == hash(v) == hash(y)
    assert compare(x, y) == 0 and compare(x, v) == 0
    assert (x - y).is_zero()
    assert x + y == v + v and x * y == v * v
    assert min(x.d, y.d) == (x + y).d or (x + y).is_rational()
    # against a value of the small field, or of another field
    w = other.over_radicand(LARGE_PRIMES[0] ** 2 * other.d)
    assert compare(x, w) == compare(v, other) == compare(y, other)
    if same_field(v.d, other.d):
        assert x + w == v + other and x * w == v * other
    else:
        with pytest.raises(MixedFieldError):
            _ = x + w
        with pytest.raises(MixedFieldError):
            _ = x * w
        assert x != w


def test_reciprocal():
    half_sqrt2 = SQRT2.reciprocal()
    assert half_sqrt2 == make_exact((0, 1, 2, 2))
    assert (SQRT2 * half_sqrt2) == make_exact(1)
    assert GOLDEN.reciprocal() == make_exact((-1, 1, 2, 5))


# -- continued fractions -----------------------------------------------------


def test_cf_examples():
    assert continued_fraction(make_exact((7, 3)), 5).quotients == (2, 3)
    assert continued_fraction(make_exact((7, 3)), 5).terminated
    assert continued_fraction(SQRT2, 4).quotients == (1, 2, 2, 2)
    assert continued_fraction(GOLDEN, 4).quotients == (1, 1, 1, 1)


def test_cf_period_detection():
    exp = continued_fraction(SQRT3, 8)
    assert exp.quotients == (1, 1, 2, 1, 2, 1, 2, 1)
    assert exp.period == (1, 2)


@settings(max_examples=120)
@given(exact_reals(), st.integers(1, 16))
def test_cf_convergents_approximate_quadratically(x, n):
    exp = continued_fraction(x, n)
    for p, q in convergents(exp.quotients):
        gap = x * q - p
        if gap.sign() < 0:
            gap = -gap
        assert gap < Fraction(1, q)  # |x - p/q| < 1/q^2


@settings(max_examples=120)
@given(quadratics(15), st.integers(2, 12))
def test_cf_matches_sympy(x, n):
    assert continued_fraction(x, n).quotients == sympy_partial_quotients(x, n)


# -- certified multi-radical floor -------------------------------------------


def test_floor_radical_sum_examples():
    # sqrt(2) + sqrt(3) + sqrt(5) = 5.38...
    val = floor_radical_sum(Fraction(0), [(Fraction(1), 2), (Fraction(1), 3), (Fraction(1), 5)])
    assert val == 5
    # cancellation back to a rational
    assert floor_radical_sum(Fraction(7, 2), [(Fraction(1), 2), (Fraction(-1), 2)]) == 3


def test_floor_radical_sum_refinement_failure_is_typed():
    # sqrt(4) breaks the squarefree precondition: 2 - sqrt(4) is exactly 0,
    # so no enclosure ever has one floor
    assert issubclass(RefinementError, EchlabError)
    with pytest.raises(RefinementError):
        floor_radical_sum(Fraction(2), [(Fraction(-1), 4)])


@settings(max_examples=80)
@given(
    st.fractions(min_value=-50, max_value=50),
    st.lists(
        st.tuples(st.fractions(min_value=-9, max_value=9), st.sampled_from(SQUAREFREE)),
        max_size=3,
    ),
)
def test_floor_radical_sum_matches_sympy(rat, terms):
    expr = sp.Rational(rat.numerator, rat.denominator)
    for coeff, d in terms:
        expr += sp.Rational(coeff.numerator, coeff.denominator) * sp.sqrt(d)
    assert floor_radical_sum(rat, terms) == int(sp.floor(expr))
