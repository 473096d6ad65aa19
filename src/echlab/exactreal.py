"""Exact arithmetic for rationals and quadratic irrationals.

Every angle-like constant in this package is either a rational num/den or a
number (p + q*sqrt(d))/r with arbitrary-precision integers and a non-square
radicand d >= 2, squarefree up to square factors above the trial-division
bound.  Two radicands span one field exactly when their product is a square
(same_field); arithmetic, equality, order and hashing rescale such values to
the smaller radicand, so equal values compare and hash equal whatever the
radicand.  Floors of integer multiples, comparisons (including across
different fields), and continued-fraction expansions are decided by integer
arithmetic alone, with math.isqrt supplying the certificates.  No floating
point enters any code path that affects a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor as _floor_frac
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import MixedFieldError, RefinementError

RationalLike = Union[int, Fraction]

# Trial-division bound for extracting square factors of the radicand.
# Complete for d < 1e12; larger d with a prime-square factor beyond the
# bound is kept as-is, which only affects how a value prints: same_field
# decides which radicands share a field.
_SQUAREFREE_TRIAL_LIMIT = 1_000_000


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n >= 1 -> (s, f) with n = s*s*f and f squarefree (see module note)."""
    s, f = 1, 1
    p = 2
    while p * p <= n and p <= _SQUAREFREE_TRIAL_LIMIT:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        s *= r
    else:
        f *= n
    return s, f


def same_field(d1: int, d2: int) -> bool:
    """True when sqrt(d1) and sqrt(d2) span one quadratic field: d1*d2 is a
    square and d1 is not (a square radicand spans no field)."""
    product = d1 * d2
    root = isqrt(product)
    return root * root == product and isqrt(d1) ** 2 != d1


def _reduce(p: int, q: int, r: int) -> tuple[int, int, int]:
    """Lowest terms of (p + q*sqrt(d))/r with r > 0 (r != 0 on input)."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(gcd(p, q), r)
    return p // g, q // g, r // g


def _floor_state(p: int, q: int, r: int, d: int) -> int:
    """floor((p + q*sqrt(d))/r) for r > 0; |q| sqrt(d) lies strictly in (t, t+1).
    floor_mult inlines the same certificate, since the census prefix tables
    call it once per multiple."""
    if q == 0:
        return p // r
    t = isqrt(q * q * d)
    return (p + t if q > 0 else p - t - 1) // r


def _inverse_state(p: int, q: int, r: int, d: int) -> tuple[int, int, int]:
    """Lowest terms of 1/x for nonzero x = (p + q*sqrt(d))/r: r (p - q sqrt(d))
    over p^2 - q^2 d, which is nonzero since d is not a square."""
    return _reduce(r * p, -r * q, p * p - q * q * d)


def _sign_single_radical(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for squarefree d >= 2 (d == 1 means rational a+b)."""
    if d == 1:
        return _sign(a + b)
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0  # unreachable for squarefree d >= 2 with b != 0
    return _sign(lhs - rhs) * _sign(a)


def _sign_two_radicals(a: int, b: int, d1: int, c: int, d2: int) -> int:
    """Sign of a + b*sqrt(d1) + c*sqrt(d2); d1 != d2 squarefree >= 2, b, c != 0.

    One squaring reduces the pair of radicals to a single sqrt(d1*d2) and a
    second squaring (inside _sign_single_radical) finishes the job.
    """
    if b > 0 and c > 0:
        s_u = 1
    elif b < 0 and c < 0:
        s_u = -1
    else:
        s_u = _sign(b * b * d1 - c * c * d2) * _sign(b)
    if a == 0:
        return s_u
    s_a = _sign(a)
    if s_a == s_u:
        return s_a
    # |a| versus |u| where u = b*sqrt(d1) + c*sqrt(d2):
    # a^2 - u^2 = (a^2 - b^2 d1 - c^2 d2) - 2 b c sqrt(d1 d2)
    t = a * a - b * b * d1 - c * c * d2
    u = -2 * b * c
    g = gcd(d1, d2)
    rad = (d1 // g) * (d2 // g)
    s2 = _sign_single_radical(t, u * g, rad)
    if s2 == 0:
        return 0  # |a| == |u| cannot happen with b, c != 0
    return s_a if s2 > 0 else s_u


@dataclass(frozen=True, slots=True, eq=False)
class ExactReal:
    """Canonical value (num + q*sqrt(d))/den; q == 0 and d == 1 for rationals.

    Construct through from_rational / from_quadratic / make_exact, which
    enforce den > 0, gcd(num, q, den) == 1, and squarefree d.
    """

    num: int = 0
    q: int = 0
    den: int = 1
    d: int = 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(num: RationalLike, den: int = 1) -> "ExactReal":
        if den == 0:
            raise ValueError("zero denominator")
        frac = Fraction(num, den)
        return ExactReal(frac.numerator, 0, frac.denominator, 1)

    @staticmethod
    def from_quadratic(p: int, q: int, r: int, d: int) -> "ExactReal":
        if r == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if q == 0 or d in (0, 1):
            return ExactReal.from_rational(p + q * (d if d == 1 else isqrt(d)), r)
        s, f = _squarefree_split(d)
        q *= s
        if f == 1:
            return ExactReal.from_rational(p + q, r)
        return ExactReal._in_field(p, q, r, f)

    @staticmethod
    def _in_field(p: int, q: int, r: int, d: int) -> "ExactReal":
        """(p + q*sqrt(d))/r for r != 0 and d already squarefree (d is ignored
        when q == 0): only the sign of r and the common gcd are normalised."""
        p, q, r = _reduce(p, q, r)
        return ExactReal(p, q, r, d if q else 1)

    def over_radicand(self, d: int) -> "ExactReal":
        """The same irrational value over the radicand d, which must span its
        field: sqrt(self.d) = isqrt(self.d * d)/d * sqrt(d)."""
        return ExactReal._in_field(self.num * d, self.q * isqrt(self.d * d), self.den * d, d)

    @staticmethod
    def from_json(obj: Mapping) -> "ExactReal":
        kind = obj.get("kind")
        if kind == "rational":
            return ExactReal.from_rational(int(obj["num"]), int(obj["den"]))
        if kind == "quadratic":
            return ExactReal.from_quadratic(
                int(obj["p"]), int(obj["q"]), int(obj["r"]), int(obj["d"])
            )
        raise ValueError(f"unknown ExactReal kind: {kind!r}")

    # -- structure ---------------------------------------------------------

    @property
    def kind(self) -> str:
        return "rational" if self.q == 0 else "quadratic"

    def is_rational(self) -> bool:
        return self.q == 0

    def is_zero(self) -> bool:
        return self.num == 0 and self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError("not a rational value")
        return Fraction(self.num, self.den)

    def decompose(self) -> tuple[Fraction, Fraction, int]:
        """(rational part, sqrt coefficient, radicand); coefficient 0, d 1 for rationals."""
        return Fraction(self.num, self.den), Fraction(self.q, self.den), self.d

    def to_json(self) -> dict:
        if self.q == 0:
            return {"kind": "rational", "num": self.num, "den": self.den}
        return {"kind": "quadratic", "p": self.num, "q": self.q, "r": self.den, "d": self.d}

    def __str__(self) -> str:
        if self.q == 0:
            return f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"
        core = f"{self.num}{'+' if self.q >= 0 else '-'}{abs(self.q)}*sqrt({self.d})"
        return f"({core})" if self.den == 1 else f"({core})/{self.den}"

    # -- arithmetic (closed inside one quadratic field) ---------------------

    def _coerce(self, other) -> "ExactReal":
        if isinstance(other, ExactReal):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactReal.from_rational(other)
        return NotImplemented

    def __neg__(self) -> "ExactReal":
        return ExactReal(-self.num, -self.q, self.den, self.d)

    def _aligned(self, o: "ExactReal") -> tuple["ExactReal", "ExactReal"] | None:
        """self and o over one radicand (the smaller, when both are irrational
        with different radicands of one field), or None when they span two
        fields."""
        if self.q == 0 or o.q == 0 or self.d == o.d:
            return self, o
        if not same_field(self.d, o.d):
            return None
        if self.d > o.d:
            return self.over_radicand(o.d), o
        return self, o.over_radicand(self.d)

    def __add__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        pair = self._aligned(o)
        if pair is None:
            raise MixedFieldError(f"cannot add sqrt({self.d}) and sqrt({o.d}) values")
        x, o = pair
        d = x.d if x.q != 0 else o.d
        return ExactReal._in_field(
            x.num * o.den + o.num * x.den,
            x.q * o.den + o.q * x.den,
            x.den * o.den,
            d,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "ExactReal":
        return (-self) + other

    def __mul__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        pair = self._aligned(o)
        if pair is None:
            raise MixedFieldError(f"cannot multiply sqrt({self.d}) and sqrt({o.d}) values")
        x, o = pair
        d = x.d if x.q != 0 else o.d
        return ExactReal._in_field(
            x.num * o.num + x.q * o.q * d,
            x.num * o.q + x.q * o.num,
            x.den * o.den,
            d,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "ExactReal":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        e = self.num * self.num - self.q * self.q * self.d  # nonzero: d is not a square
        return ExactReal._in_field(self.den * self.num, -self.den * self.q, e, self.d)

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        return _sign_single_radical(self.num, self.q, self.d)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare ExactReal with {type(other).__name__}")
        x, o = self._aligned(o) or (self, o)
        a, b, dx = x.num, x.q, x.d
        c, e, dy = o.num, o.q, o.d
        r, s = x.den, o.den
        # sign of (s a - r c) + s b sqrt(dx) - r e sqrt(dy)
        const = s * a - r * c
        if b == 0 and e == 0:
            return _sign(const)
        if e == 0:
            return _sign_single_radical(const, s * b, dx)
        if b == 0:
            return _sign_single_radical(const, -r * e, dy)
        if dx == dy:
            return _sign_single_radical(const, s * b - r * e, dx)
        return _sign_two_radicals(const, s * b, dx, -r * e, dy)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExactReal, int, Fraction)):
            return NotImplemented
        pair = self._aligned(self._coerce(other))
        if pair is None:
            return False
        x, o = pair
        return x.num == o.num and x.q == o.q and x.den == o.den and x.d == o.d

    def __hash__(self) -> int:
        if self.q == 0:  # as the equal int or Fraction hashes
            return hash(Fraction(self.num, self.den))
        # the rational part is the same over every radicand of the field,
        # since 1 and sqrt(d) are linearly independent over Q; so are the
        # sign and the square of the irrational part, which mark the value
        g = gcd(self.num, self.den)
        square, den2 = self.q * self.q * self.d, self.den * self.den
        h = gcd(square, den2)
        return hash((self.num // g, self.den // g, self.q > 0, square // h, den2 // h))

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    # -- certified rational enclosures --------------------------------------

    def rational_bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """lo <= value <= hi with 2^-bits-wide certified rational endpoints."""
        rat = Fraction(self.num, self.den)
        if self.q == 0:
            return rat, rat
        scale = 1 << bits
        t = isqrt(self.q * self.q * self.d * scale * scale)  # floor(|q| sqrt(d) 2^bits)
        if self.q > 0:
            radical_lo, radical_hi = Fraction(t, scale), Fraction(t + 1, scale)
        else:
            radical_lo, radical_hi = Fraction(-t - 1, scale), Fraction(-t, scale)
        return rat + radical_lo / self.den, rat + radical_hi / self.den


def make_exact(spec) -> ExactReal:
    """Build an ExactReal from an int, Fraction, (num, den), (p, q, r, d), or JSON dict."""
    if isinstance(spec, ExactReal):
        return spec
    if isinstance(spec, (int, Fraction)):
        return ExactReal.from_rational(spec)
    if isinstance(spec, Mapping):
        return ExactReal.from_json(spec)
    if isinstance(spec, Sequence):
        items = tuple(int(v) for v in spec)
        if len(items) == 2:
            return ExactReal.from_rational(*items)
        if len(items) == 4:
            return ExactReal.from_quadratic(*items)
    raise ValueError(f"cannot interpret {spec!r} as an exact real")


def compare(x: ExactReal, y: ExactReal) -> int:
    """Exact trichotomy: -1 (less), 0 (equal), +1 (greater)."""
    return x._cmp(y)


def floor_mult(x: ExactReal, k: int) -> int:
    """floor(k*x) for k >= 1, certified by integer comparisons."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = k * x.num
    if x.q == 0:
        return a // x.den
    b = k * x.q
    t = isqrt(b * b * x.d)  # |b| sqrt(d) lies strictly in (t, t+1)
    m = a + t if b > 0 else a - t - 1
    return m // x.den


def floor_sum(x: ExactReal, n: int) -> int:
    """sum_{k=1..n} floor(k*x) for n >= 0, in one step per continued-fraction
    quotient of x.

    For irrational x the floor a = floor(x) contributes a*n(n+1)/2, and the
    Beatty reciprocity S(b, n) + S(1/b, floor(n b)) = n floor(n b) for the
    fractional part 0 < b < 1 hands the rest to 1/b with the shorter length
    floor(n b).  The state stays an integer triple; rationals use the
    Euclid-style rational floor sum.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _floor_sum_state(x.num, x.q, x.den, x.d, n)


def _floor_sum_state(p: int, q: int, r: int, d: int, n: int) -> int:
    """floor_sum of (p + q*sqrt(d))/r for r > 0, d not a square when q != 0,
    and n >= 0.  The state need not be in lowest terms: _inverse_state
    reduces it after the first step."""
    if q == 0:
        return _rational_floor_sum(p, r, n)
    total, sign = 0, 1
    while n:
        a = _floor_state(p, q, r, d)
        p -= a * r  # x -> its fractional part, in (0, 1)
        below = _floor_state(n * p, n * q, r, d)
        total += sign * (a * (n * (n + 1) // 2) + n * below)
        sign, n = -sign, below
        p, q, r = _inverse_state(p, q, r, d)
    return total


def _rational_floor_sum(a: int, b: int, n: int) -> int:
    """sum_{k=1..n} floor(k*a/b) for b > 0: the sum over i = 0..n of
    floor((a*i + c)/b) with c = 0, reduced Euclid-style."""
    total, count, c = 0, n + 1, 0
    while True:
        t, a = divmod(a, b)
        total += t * (count * (count - 1) // 2)
        t, c = divmod(c, b)
        total += t * count
        top = a * count + c
        if top < b:
            return total
        count, c = divmod(top, b)
        a, b = b, a


def ceil_mult(x: ExactReal, k: int) -> int:
    """ceil(k*x) for k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.q == 0:
        return -((-k * x.num) // x.den)
    return floor_mult(x, k) + 1  # k*x is irrational, so never an integer


def multiple_is_integral(x: ExactReal, k: int) -> bool:
    """True when k*x is an integer (only possible for rational x)."""
    return x.q == 0 and (k * x.num) % x.den == 0


@dataclass(frozen=True, slots=True)
class CFExpansion:
    """Partial quotients of a continued fraction, with period if detected.

    terminated marks a rational input whose full (shorter) expansion was
    returned.  For a quadratic irrational, preperiod/period describe the
    eventually-periodic tail once the state recurs.
    """

    quotients: tuple[int, ...]
    terminated: bool = False
    preperiod: int | None = None
    period: tuple[int, ...] | None = None


def continued_fraction(x: ExactReal, n: int) -> CFExpansion:
    """First n partial quotients of x (fewer if the expansion terminates)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    quotients: list[int] = []
    seen: dict[tuple[int, int, int], int] = {}
    for state, a in _expansion(x):
        if len(quotients) == n:
            return CFExpansion(tuple(quotients))
        if state in seen:
            start = seen[state]
            block = tuple(quotients[start:])
            while len(quotients) < n:
                quotients.append(block[(len(quotients) - start) % len(block)])
            return CFExpansion(tuple(quotients), False, start, block)
        seen[state] = len(quotients)
        quotients.append(a)
    return CFExpansion(tuple(quotients), True)


def partial_quotients(x: ExactReal) -> Iterator[int]:
    """The continued-fraction quotients of x, computed one at a time: finite
    for a rational, endless for a quadratic irrational."""
    return (a for _, a in _expansion(x))


def _expansion(x: ExactReal) -> Iterator[tuple[tuple[int, int, int], int]]:
    """(complete quotient (p, q, r) in lowest terms, its floor) at each step of
    the continued-fraction expansion of x; ends when a complete quotient is
    an integer."""
    p, q, r, d = x.num, x.q, x.den, x.d
    while True:
        a = _floor_state(p, q, r, d)
        yield (p, q, r), a
        p -= a * r
        if p == 0 and q == 0:
            return
        p, q, r = _inverse_state(p, q, r, d)


def convergents(quotients: Sequence[int]) -> list[tuple[int, int]]:
    """(p_k, q_k) for each partial quotient, via the standard recurrence."""
    out: list[tuple[int, int]] = []
    p_prev, q_prev, p, q = 1, 0, quotients[0], 1
    out.append((p, q))
    for a in quotients[1:]:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        out.append((p, q))
    return out


def floor_radical_sum(rational: RationalLike, radicals: Iterable[tuple[RationalLike, int]]) -> int:
    """floor(rational + sum c*sqrt(d)) with certified refinement.

    The d's must be non-square, no two of them in one field (same_field).
    Terminates because a nonzero rational combination of square roots of
    such integers is irrational; when every coefficient is zero the plain rational floor is
    returned.  Terms are merged by radicand and denominators cleared once to
    a common R; _floor_radical_state does the rest.
    """
    terms: dict[int, RationalLike] = {}
    for coeff, d in radicals:
        if coeff:
            terms[d] = terms.get(d, 0) + coeff
    den = rational.denominator
    for c in terms.values():
        den = lcm(den, c.denominator)
    base = rational.numerator * (den // rational.denominator)
    coeffs = [(c.numerator * (den // c.denominator), d) for d, c in terms.items() if c]
    if not coeffs:
        return _floor_frac(rational)
    return _floor_radical_state(base, coeffs, den)


def _floor_radical_state(base: int, coeffs: Sequence[tuple[int, int]], den: int) -> int:
    """floor((base + sum B*sqrt(d))/den) for den > 0 and nonzero integer B,
    one term per field.  Each round encloses value*den*2^bits between
    integers: floor(|B| sqrt(d) 2^bits) is isqrt(B^2 d 4^bits)."""
    bits = 32
    while bits <= 1 << 20:
        lo = hi = base << bits
        for b, d in coeffs:
            t = isqrt(b * b * d << 2 * bits)  # floor(|b| sqrt(d) 2^bits)
            if b > 0:
                lo += t
                hi += t + 1
            else:
                lo -= t + 1
                hi -= t
        scale = den << bits
        f_lo = lo // scale
        if f_lo == hi // scale:
            return f_lo
        bits *= 2
    raise RefinementError("radical sum refinement did not converge")
