"""Reference arithmetic for the benchmark's output checks.

Everything here uses Python integers, math.isqrt and fractions only, and no
echlab function: the checks compare the program's outputs against values
computed this way. A quadratic value is a tuple (p, q, r, d) meaning
(p + q*sqrt(d))/r with r > 0, d >= 2 squarefree and q != 0; a rational
value is (p, 0, r, 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def is_squarefree(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def canon(p: int, q: int, r: int, d: int) -> tuple[int, int, int, int]:
    """Canonical (p, q, r, d): r > 0 and gcd(p, q, r) == 1 (d is squarefree)."""
    if r < 0:
        p, q, r = -p, -q, -r
    if q == 0:
        g = gcd(p, r)
        return (p // g, 0, r // g, 1)
    g = gcd(gcd(p, q), r)
    return (p // g, q // g, r // g, d)


def to_json(x) -> dict:
    p, q, r, d = x
    if q == 0:
        return {"kind": "rational", "num": p, "den": r}
    return {"kind": "quadratic", "p": p, "q": q, "r": r, "d": d}


def floor_mul(x, k: int) -> int:
    """floor(k*x) for k >= 0; k*q*sqrt(d) is irrational, so it lies strictly
    between two integers given by isqrt."""
    p, q, r, d = x
    if q == 0:
        return (k * p) // r
    b = k * q
    t = isqrt(b * b * d)
    return (k * p + (t if b > 0 else -t - 1)) // r


def ceil_mul(x, k: int) -> int:
    p, q, r, _ = x
    if q == 0:
        return -((-k * p) // r)
    return floor_mul(x, k) + 1


def prefix_table(x, m_max: int) -> list[int]:
    """table[m] = sum_{k=1..m} floor(k*x)."""
    table = [0] * (m_max + 1)
    acc = 0
    for k in range(1, m_max + 1):
        acc += floor_mul(x, k)
        table[k] = acc
    return table


def negate(x):
    p, q, r, d = x
    return (-p, -q, r, d)


# -- continued fractions of quadratic irrationals ----------------------------


def cf_quotients(x, count: int) -> list[int]:
    """First count partial quotients of an irrational (p + q*sqrt(d))/r, by
    the integer recurrence on (P + sqrt(D))/Q with Q | D - P^2."""
    return [a for a, _ in _cf_steps(x, count)]


def cf_has_period_within(x, steps: int) -> bool:
    """Whether the complete quotients repeat within the first steps steps."""
    seen = set()
    for _, state in _cf_steps(x, steps):
        if state in seen:
            return True
        seen.add(state)
    return False


def _cf_steps(x, count: int):
    """Yield (a_k, (P_k, Q_k)) for the first count complete quotients."""
    p, q, r, d = x
    if q == 0:
        raise ValueError("irrational value required")
    big_d = q * q * d
    big_p, big_q = (p, r) if q > 0 else (-p, -r)
    if (big_d - big_p * big_p) % big_q:
        big_p, big_d, big_q = big_p * abs(big_q), big_d * big_q * big_q, big_q * abs(big_q)
    s = isqrt(big_d)
    for _ in range(count):
        if big_q > 0:
            a = (big_p + s) // big_q
        else:
            a = -((big_p + s) // -big_q) - 1
        yield a, (big_p, big_q)
        big_p = a * big_q - big_p
        big_q = (big_d - big_p * big_p) // big_q


def upper_semiconvergents(x, bound: int) -> list[tuple[int, int]]:
    """(q, ceil(q*x)) for every best upper approximation with q <= bound:
    the mediants (p_{k-2} + j p_{k-1})/(q_{k-2} + j q_{k-1}), j = 1..a_k,
    at odd levels k of the expansion."""
    out: list[tuple[int, int]] = []
    quotients = cf_quotients(x, 8)
    p_prev, q_prev, p_cur, q_cur = 1, 0, quotients[0], 1
    k = 1
    while q_prev + q_cur <= bound:
        if k >= len(quotients):
            quotients = cf_quotients(x, 2 * len(quotients))
        a = quotients[k]
        if k % 2 == 1:
            for j in range(1, a + 1):
                den = q_prev + j * q_cur
                if den > bound:
                    break
                out.append((den, p_prev + j * p_cur))
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev
        k += 1
    return out


# -- orbit systems -------------------------------------------------------------
# A system is a dict with tuples: "phi" (quadratic tuples), "two_eta",
# "linking" (symmetric), "classes" (per orbit, one entry per factor) and
# "orders" (finite cyclic orders of H1).


def in_lattice(system: dict, m) -> bool:
    for j, order in enumerate(system["orders"]):
        if sum(mi * c[j] for mi, c in zip(m, system["classes"])) % order:
            return False
    return True


def lattice_index(system: dict) -> int:
    """Index of the nullhomologous lattice in Z^n: (prod orders)^n divided by
    the number of residues mod prod(orders) that satisfy the congruences."""
    n = len(system["phi"])
    period = 1
    for order in system["orders"]:
        period *= order
    hits = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            hits += in_lattice(system, prefix)
            continue
        stack.extend(prefix + (v,) for v in range(period))
    return period**n // hits


def cross(system: dict, m) -> int:
    link = system["linking"]
    n = len(m)
    return sum(m[i] * m[j] * link[i][j] for i in range(n) for j in range(i + 1, n))


def ech_index(system: dict, tables, m) -> int:
    total = 2 * cross(system, m)
    for mi, te, table in zip(m, system["two_eta"], tables):
        if mi:
            total += mi * te + 2 * table[mi]
    return total


def j0_index(system: dict, tables, m) -> int:
    total = 2 * cross(system, m)
    for mi, te, table in zip(m, system["two_eta"], tables):
        if mi:
            total += mi * (2 - te) + 2 * table[mi - 1] - 1
    return total


def identity_residual(system: dict, m) -> int:
    """Closed form of I - J0."""
    total = 0
    for mi, te, phi in zip(m, system["two_eta"], system["phi"]):
        if mi:
            total += mi * (2 * te - 2) + 2 * floor_mul(phi, mi) + 1
    return total


def census_box(system: dict, i_max: int) -> tuple[list[int], list[list[int]]]:
    """Per-orbit bounds B_i and prefix tables up to them.

    Needs eta >= 0, phi > 0 and nonnegative linking: then I never drops
    when a coordinate grows, so I(m) >= I(m_i e_i) for every i, and the box
    [0, B_i] with B_i the largest t having I(t e_i) <= i_max holds every
    generator with I(m) <= i_max.
    """
    bounds = []
    for phi, te in zip(system["phi"], system["two_eta"]):
        t, acc = 0, 0
        while acc + te + 2 * floor_mul(phi, t + 1) <= i_max:
            acc += te + 2 * floor_mul(phi, t + 1)
            t += 1
        bounds.append(t)
    return bounds, [prefix_table(phi, b) for phi, b in zip(system["phi"], bounds)]


def census_entries(system: dict, i_max: int, bounds, tables) -> list[tuple[tuple[int, ...], int]]:
    """Every nullhomologous m in the box with I(m) <= i_max, sorted by (I, m).
    Each branch of the box walk stops at the first coordinate value whose
    partial index (later coordinates zero) passes i_max."""
    n = len(bounds)
    out = []

    def walk(prefix: list[int]) -> None:
        i = len(prefix)
        for v in range(bounds[i] + 1):
            m = prefix + [v] + [0] * (n - i - 1)
            value = ech_index(system, tables, m)
            if value > i_max:
                return
            if i + 1 == n:
                if in_lattice(system, m):
                    out.append((tuple(m), value))
            else:
                walk(prefix + [v])

    walk([])
    out.sort(key=lambda e: (e[1], e[0]))
    return out


# -- integer matrices ------------------------------------------------------------


def mat_mul2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def det_fraction(rows) -> Fraction:
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def det_one_minus_t(matrix) -> list[int]:
    """Coefficients of det(I - tA), by exact evaluation at t = 0..n and
    Lagrange interpolation."""
    n = len(matrix)
    points = list(range(n + 1))
    values = [
        det_fraction([[(i == j) - t * matrix[i][j] for j in range(n)] for i in range(n)])
        for t in points
    ]
    coeffs = [Fraction(0)] * (n + 1)
    for k, tk in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, tj in enumerate(points):
            if j == k:
                continue
            basis = [Fraction(0)] + basis  # multiply by t
            for idx in range(len(basis) - 1):
                basis[idx] -= tj * basis[idx + 1]
            denom *= tk - tj
        for idx, c in enumerate(basis):
            coeffs[idx] += values[k] * c / denom
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("non-integral characteristic polynomial")
    return [int(c) for c in coeffs]
