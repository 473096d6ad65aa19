"""Best-upper-approximation denominator sets of an irrational angle.

S(theta) collects the positive integers q at which ceil(q*theta)/q drops
strictly below its value at every smaller denominator, i.e. theta is better
approximated from above at q than at any q' < q.  The set only depends on
theta mod 1.  Members are the denominators of the upper semiconvergents of
the continued-fraction expansion, so membership, enumeration and densities
take one step per partial quotient plus one per member reported.  For a
rational theta = a/b the set is defined below b only, where the same
construction answers; a question that reaches q >= b raises
DegenerateAngleError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DegenerateAngleError
from .exactreal import ExactReal, partial_quotients

POSITIVE = "positive"
NEGATIVE = "negative"


def _upper_levels(theta: ExactReal, bound: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(p_prev, q_prev, p_cur, q_cur, a) at every odd level k of the expansion
    of theta whose smallest mediant denominator q_{k-2} + q_{k-1} is <= bound.
    The level's mediants (p_prev + j p_cur)/(q_prev + j q_cur), j = 1..a,
    approach theta strictly from above.

    A rational theta = a/b is answered for bound < b only.  Its last
    convergent is a/b itself, so the walk stops before the finite expansion
    runs out, and no mediant reached has denominator b.
    """
    if theta.is_rational() and bound >= theta.den:
        raise DegenerateAngleError(
            f"{theta.den}*theta is an integer; the approximation set is undefined there"
        )
    quotients = partial_quotients(theta)
    p_prev, q_prev = 1, 0  # convergent h_{k-2}, seeded at h_{-1}
    p_cur, q_cur = next(quotients), 1  # convergent h_{k-1}, seeded at h_0
    k = 1
    # mediant denominators grow strictly with k, so stop once the smallest
    # denominator of the current level passes the bound
    while q_prev + q_cur <= bound:
        a = next(quotients)
        if k % 2 == 1:
            yield p_prev, q_prev, p_cur, q_cur, a
        p_prev, q_prev, p_cur, q_cur = (
            p_cur,
            q_cur,
            a * p_cur + p_prev,
            a * q_cur + q_prev,
        )
        k += 1


def _members(theta: ExactReal, bound: int) -> Iterator[int]:
    for _, q_prev, _, q_cur, a in _upper_levels(theta, bound):
        yield from range(q_prev + q_cur, min(q_prev + a * q_cur, bound) + 1, q_cur)


def in_s_theta(theta: ExactReal, q: int) -> bool:
    """Exact membership test for a single denominator."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    for _, q_prev, _, q_cur, a in _upper_levels(theta, q):
        j, rest = divmod(q - q_prev, q_cur)
        if rest == 0 and 1 <= j <= a:
            return True
    return False


def s_theta_up_to(theta: ExactReal, bound: int) -> list[int]:
    """All members of S(theta) in [1, bound], ascending."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return list(_members(theta, bound))


def semiconvergents_above(theta: ExactReal, bound: int) -> list[Fraction]:
    """The best upper approximations ceil(q*theta)/q for q in S(theta), built
    from the continued fraction: at every odd level k the mediants
    (p_{k-2} + j p_{k-1})/(q_{k-2} + j q_{k-1}), j = 1..a_k, approach theta
    strictly from above."""
    if theta.is_rational():
        raise DegenerateAngleError("semiconvergents from above need an irrational angle")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out: list[Fraction] = []
    for p_prev, q_prev, p_cur, q_cur, a in _upper_levels(theta, bound):
        for j in range(1, min(a, (bound - q_prev) // q_cur) + 1):
            out.append(Fraction(p_prev + j * p_cur, q_prev + j * q_cur))
    return out


def density_profile(
    theta: ExactReal, bound: int, samples: int | Sequence[int] = 10
) -> list[tuple[int, Fraction]]:
    """Exact member densities |S intersect [1, n]| / n at sampled n values."""
    if isinstance(samples, int):
        if samples < 1:
            raise ValueError("need at least one sample point")
        points = sorted({max(1, round(bound * (j + 1) / samples)) for j in range(samples)})
    else:
        points = sorted({int(n) for n in samples})
        if not points or points[0] < 1 or points[-1] > bound:
            raise ValueError("sample points must lie in [1, bound]")
    members = s_theta_up_to(theta, bound)
    out = []
    idx = 0
    for n in points:
        while idx < len(members) and members[idx] <= n:
            idx += 1
        out.append((n, Fraction(idx, n)))
    return out


def admissible_end_multiplicity(theta: ExactReal, m: int, sign: str) -> bool:
    """Admissibility of an end multiplicity: positive ends need m in S(-theta),
    negative ends need m in S(theta)."""
    if sign == POSITIVE:
        return in_s_theta(-theta, m)
    if sign == NEGATIVE:
        return in_s_theta(theta, m)
    raise ValueError(f"sign must be '{POSITIVE}' or '{NEGATIVE}'")
