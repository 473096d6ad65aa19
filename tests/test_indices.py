"""Index formulas: frozen examples, the I - J0 identity, parity, envelopes,
quadrant certificates, and the per-curve bounds."""

import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echlab.errors import (
    DegenerateAngleError,
    HyperbolicOrbitError,
    IndexParityError,
    MixedFieldError,
    NonTorsionClassError,
    NotNullhomologousError,
    RefinementError,
)
from echlab import indices
from echlab.exactreal import ExactReal, floor_mult, floor_radical_sum, floor_sum, make_exact
from echlab.indices import (
    CYLINDER,
    INFEASIBLE,
    NOT_CYLINDER,
    End,
    EndData,
    QuadrantCertificate,
    compile_system,
    conley_zehnder,
    cylinder_criterion,
    ech_index,
    genus_bound,
    index_envelope,
    index_formula,
    index_identity_residual,
    index_report,
    intersection_bound,
    j0_index,
    mod2_grading,
    qbar,
    qbar_quadrant_positive,
)
from echlab.orbits import (
    ELLIPTIC,
    POSITIVE_HYPERBOLIC,
    Homology,
    Orbit,
    OrbitSystem,
    nullhomologous_lattice,
)
from echlab.presets_io import load_system_preset

SQRT2 = make_exact((0, 1, 1, 2))
SQRT2M1 = make_exact((-1, 1, 1, 2))
ONE = Fraction(1)

ELLIPSOID = load_system_preset("ellipsoid-sqrt2")


def j0_oracle(system, m):
    """J0 by its defining sum sum m_i(2 - 2 eta_i) + 2 sum F_i(m_i - 1)
    + 2 sum_{i<j} m_i m_j Q_ij - #{i : m_i != 0}, F_i(k) = sum_{j<=k} floor(j phi_i);
    independent of the closed form for I - J0 that j0_index uses."""
    twice = Fraction(0)
    for i, (orbit, mult) in enumerate(zip(system.orbits, m)):
        if mult:
            twice += mult * (2 - 2 * orbit.eta) + 2 * floor_sum(orbit.phi, mult - 1) - 1
            for j in range(i + 1, system.n):
                twice += 2 * mult * m[j] * system.linking[i][j]
    assert twice.denominator == 1
    return int(twice)


def make_system(phis, q=None, etas=None, homology=(), classes=None):
    n = len(phis)
    etas = etas or [ONE] * n
    classes = classes or [()] * n
    orbits = tuple(
        Orbit(f"o{i}", ELLIPTIC, eta=etas[i], phi=make_exact(phis[i]), homology_class=classes[i])
        for i in range(n)
    )
    if q is None:
        q = [[0] * n for _ in range(n)]
    return OrbitSystem(orbits, tuple(tuple(row) for row in q), Homology(homology))


def test_conley_zehnder_examples():
    assert conley_zehnder(SQRT2, 1) == 3
    assert conley_zehnder(SQRT2M1, 1) == 1
    assert conley_zehnder(SQRT2, 3) == 9


@settings(max_examples=100)
@given(st.integers(1, 60))
def test_conley_zehnder_odd_and_monotone(k):
    assert conley_zehnder(SQRT2, k) % 2 == 1
    assert conley_zehnder(SQRT2, k + 1) >= conley_zehnder(SQRT2, k)


def test_ech_index_ellipsoid_examples():
    assert ech_index(ELLIPSOID, (0, 0)) == 0
    assert ech_index(ELLIPSOID, (0, 1)) == 2
    assert ech_index(ELLIPSOID, (1, 0)) == 4
    assert ech_index(ELLIPSOID, (1, 1)) == 8
    assert ech_index(ELLIPSOID, (2, 0)) == 10


def test_j0_ellipsoid_examples():
    assert j0_index(ELLIPSOID, (0, 0)) == 0
    assert j0_index(ELLIPSOID, (1, 1)) == 0
    assert j0_index(ELLIPSOID, (1, 0)) == -1
    for m in ((0, 0), (1, 1), (1, 0), (7, 3)):
        assert j0_index(ELLIPSOID, m) == j0_oracle(ELLIPSOID, m)


def test_residual_examples():
    assert index_identity_residual(ELLIPSOID, (1, 1)) == 8
    assert index_identity_residual(ELLIPSOID, (2, 0)) == 9
    assert index_identity_residual(ELLIPSOID, (0, 0)) == 0


def test_index_rejects_hyperbolic_multiplicity():
    eh = load_system_preset("eh-system")
    with pytest.raises(HyperbolicOrbitError):
        ech_index(eh, (1, 1))
    assert ech_index(eh, (2, 0)) == 2 * (2 + 1 + 2)  # e^2 alone is fine


def test_index_rejects_non_nullhomologous():
    lens = load_system_preset("lens3")
    with pytest.raises(NotNullhomologousError):
        ech_index(lens, (1, 0))
    assert ech_index(lens, (1, 1)) % 2 == 0


def test_index_parity_error_on_inconsistent_eta():
    system = make_system([(0, 1, 1, 2)], etas=[Fraction(1, 2)])
    with pytest.raises(IndexParityError):
        ech_index(system, (1,))


def test_mod2_grading():
    assert mod2_grading(ELLIPSOID, (3, 4)) == 0
    eh = load_system_preset("eh-system")
    assert mod2_grading(eh, (5, 1)) == 1
    two_h = OrbitSystem(
        (
            Orbit("h1", POSITIVE_HYPERBOLIC),
            Orbit("h2", POSITIVE_HYPERBOLIC),
        ),
        ((0, 0), (0, 0)),
        Homology(),
    )
    assert mod2_grading(two_h, (1, 1)) == 0


def test_parity_exhaustive_small_generators():
    for name in ("ellipsoid-sqrt2", "ellipsoid-golden", "lens3"):
        system = load_system_preset(name)
        lattice_snap = name == "lens3"
        for m1 in range(31):
            for m2 in range(31 - m1):
                m = (m1, m2)
                if lattice_snap and (m1 + 2 * m2) % 3:
                    continue
                assert ech_index(system, m) % 2 == 0, (name, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 50), st.integers(0, 50), st.sampled_from(["ellipsoid-sqrt2", "ellipsoid-golden", "lens3"]))
def test_identity_and_parity_randomized(m1, m2, name):
    system = load_system_preset(name)
    m = (m1, m2)
    if name == "lens3":
        m = (m1 + (-(m1 + 2 * m2)) % 3, m2)  # snap onto the nullhomologous lattice
    value_i = ech_index(system, m)
    assert value_i % 2 == 0
    assert value_i - j0_index(system, m) == index_identity_residual(system, m)
    assert j0_index(system, m) == j0_oracle(system, m)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40))
def test_envelope_contains_index(m1, m2):
    m = (m1, m2)
    lo, hi = index_envelope(ELLIPSOID, m)
    value = ech_index(ELLIPSOID, m)
    assert lo <= value <= hi
    assert hi - lo <= 2 * (m1 + m2 + 1)


def test_envelope_examples():
    assert index_envelope(ELLIPSOID, (0, 0)) == (0, 0)
    lo, hi = index_envelope(ELLIPSOID, (1, 0))
    assert hi == 4 and lo <= 4  # upper bound 2(1 + sqrt2) rounded down
    lo2, hi2 = index_envelope(ELLIPSOID, (2, 0))
    assert lo2 <= 10 <= hi2


def test_envelope_mixed_fields():
    n3 = load_system_preset("n3")
    lo, hi = index_envelope(n3, (2, 1, 1))
    assert lo <= ech_index(n3, (2, 1, 1)) <= hi


def test_qbar_examples():
    assert qbar(ELLIPSOID, (1, 0)) == SQRT2
    expected = SQRT2 + SQRT2.reciprocal() + 2
    assert qbar(ELLIPSOID, (1, 1)) == expected
    assert qbar(ELLIPSOID, (0, 0)) == make_exact(0)


def test_qbar_mixed_field_error():
    n3 = load_system_preset("n3")
    with pytest.raises(MixedFieldError):
        qbar(n3, (1, 1, 1))


def test_quadrant_certificates():
    assert qbar_quadrant_positive(ELLIPSOID).verdict == "positive"
    indefinite = make_system([(0, 1, 1, 2), (0, 1, 2, 2)], q=[[0, -2], [-2, 0]])
    assert qbar_quadrant_positive(indefinite).verdict == "indefinite"
    diagonal = make_system([(0, 1, 1, 2), (0, 1, 1, 2)], q=[[0, 0], [0, 0]])
    assert qbar_quadrant_positive(diagonal).verdict == "positive"
    assert qbar_quadrant_positive(load_system_preset("n3")).verdict == "positive"
    empty = qbar_quadrant_positive(OrbitSystem((), (), Homology()))
    assert empty.verdict == "positive" and empty.coercivity > 0  # vacuous for n = 0


def test_quadrant_degenerate_direction():
    # phi1 = sqrt2, phi2 = 2*sqrt2, q12 = -2: det = phi1 phi2 - 4 = 0
    system = make_system([(0, 1, 1, 2), (0, 2, 1, 2)], q=[[0, -2], [-2, 0]])
    cert = qbar_quadrant_positive(system)
    assert cert.verdict == "degenerate-direction"
    v1, v2 = cert.null_direction
    assert v1.sign() > 0 and v2.sign() > 0  # the kernel direction sits in the quadrant
    phi1, phi2 = (o.phi for o in system.orbits)
    q12 = system.linking[0][1]
    assert (phi1 * v1 + q12 * v2).is_zero()
    assert (q12 * v1 + phi2 * v2).is_zero()


def test_product_refinement_failure_is_typed():
    # bare non-squarefree radicands: sqrt(4) * sqrt(64) is exactly 16 = Q12^2
    # across two "fields", so the mixed-field refinement can never decide
    orbits = tuple(
        Orbit(name, ELLIPTIC, eta=ONE, phi=ExactReal(0, 1, 1, d))
        for name, d in (("a", 4), ("b", 64))
    )
    system = OrbitSystem(orbits, ((0, -4), (-4, 0)), Homology())
    with pytest.raises(RefinementError):
        qbar_quadrant_positive(system)


# The quadrant certificate as two passes: an exact case split for the verdict,
# with its own refinement loop for phi1 phi2 - Q12^2 over mixed fields, then a
# second, parallel case split for the coercivity constant.  qbar_quadrant_positive
# makes one case split and runs one loop, and must agree with this oracle.


def _oracle_sign_phi_product_minus_square(a, b, c):
    try:
        return (a * b - c).sign()
    except MixedFieldError:
        bits = 32
        while bits <= 1 << 16:
            alo, ahi = a.rational_bounds(bits)
            blo, bhi = b.rational_bounds(bits)
            if alo * blo > c:
                return 1
            if ahi * bhi < c:
                return -1
            bits *= 2
        raise RefinementError("product refinement did not converge")


def _oracle_verdict(system):
    phis = [orbit.phi for orbit in system.orbits]
    n = system.n
    if n == 0:
        return QuadrantCertificate("positive")
    if any(phi.sign() < 0 for phi in phis):
        return QuadrantCertificate("indefinite")
    if any(phi.is_zero() for phi in phis):
        return QuadrantCertificate("indefinite")
    if n == 1:
        return QuadrantCertificate("positive")
    if n == 2:
        q12 = system.linking[0][1]
        if q12 >= 0:
            return QuadrantCertificate("positive")
        s = _oracle_sign_phi_product_minus_square(phis[0], phis[1], q12 * q12)
        if s > 0:
            return QuadrantCertificate("positive")
        if s == 0:
            direction = (ExactReal.from_rational(-q12), phis[0])
            return QuadrantCertificate("degenerate-direction", direction)
        return QuadrantCertificate("indefinite")
    if all(system.linking[i][j] >= 0 for i in range(n) for j in range(i + 1, n)):
        return QuadrantCertificate("positive")
    for i in range(n):
        row_sum = sum(abs(system.linking[i][j]) for j in range(n) if j != i)
        if not (phis[i] > row_sum):
            return QuadrantCertificate("unknown")
    return QuadrantCertificate("positive")


def _oracle_coercivity(system):
    n = system.n
    bits = 32
    while True:
        bounds = [orbit.phi.rational_bounds(bits) for orbit in system.orbits]
        los = [lo for lo, _ in bounds]
        if all(lo > 0 for lo in los):
            if all(system.linking[i][j] >= 0 for i in range(n) for j in range(i + 1, n)):
                return min(los)
            if n == 2:
                q12 = system.linking[0][1]
                det_lo = los[0] * los[1] - q12 * q12
                if det_lo > 0:
                    his = [hi for _, hi in bounds]
                    return min(det_lo / his[1], det_lo / his[0]) / 2
            else:
                dominance = [
                    los[i] - sum(abs(system.linking[i][j]) for j in range(n) if j != i)
                    for i in range(n)
                ]
                if all(v > 0 for v in dominance):
                    return min(dominance)
        bits *= 2
        if bits > 1 << 16:
            raise RefinementError("coercivity refinement did not converge")


def _random_phi(rng, d):
    """A quadratic irrational in Q(sqrt d), or a rational when d == 1; mostly
    positive, sometimes zero or negative."""
    p, r = rng.randint(-1, 9), rng.randint(1, 3)
    if d == 1:
        return make_exact(Fraction(p, r))
    return make_exact((p, rng.randint(0, 3), r, d))


def _random_quadrant_system(rng):
    kind = rng.choice(("one-field", "mixed", "rational", "degenerate", "mixed-pair"))
    if kind in ("degenerate", "mixed-pair"):
        n, q12 = 2, -rng.randint(1, 5)
        linking = [[0, q12], [q12, 0]]
    else:
        n = rng.randint(1, 4)
        linking = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                linking[i][j] = linking[j][i] = rng.randint(-2, 2)
    if kind == "degenerate":
        # phi1 phi2 == Q12^2 exactly, with phi1 irrational or rational
        phi1 = _random_phi(rng, rng.choice((1, 2, 3, 5)))
        while phi1.sign() <= 0:
            phi1 = _random_phi(rng, rng.choice((1, 2, 3, 5)))
        phis = [phi1, phi1.reciprocal() * (q12 * q12)]
    else:
        if kind == "one-field":
            fields = [rng.choice((2, 3, 5, 7))] * n
        elif kind == "rational":
            fields = [1] * n
        elif kind == "mixed":
            fields = rng.sample((1, 2, 3, 5, 7, 11), n)
        else:  # two fields: refinement decides the sign of phi1 phi2 - Q12^2
            fields = rng.sample((2, 3, 5, 7, 11), n)
        phis = [_random_phi(rng, d) for d in fields]
    orbits = tuple(
        Orbit(f"o{i}", ELLIPTIC, eta=ONE, phi=phi) for i, phi in enumerate(phis)
    )
    return OrbitSystem(orbits, tuple(tuple(row) for row in linking), Homology())


def test_quadrant_certificate_matches_two_pass_oracle():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(240):
        system = _random_quadrant_system(rng)
        cert = qbar_quadrant_positive(system)
        expected = _oracle_verdict(system)
        assert cert.verdict == expected.verdict, system
        assert cert.null_direction == expected.null_direction, system
        if cert.verdict == "positive":
            assert cert.coercivity == _oracle_coercivity(system), system
        else:
            assert cert.coercivity is None, system
        verdicts.add(cert.verdict)
    assert verdicts == {"positive", "degenerate-direction", "indefinite", "unknown"}


def test_coercivity_constant_is_sound():
    """sum lo_i m_i^2 + 2 sum_{i<j} Q_ij m_i m_j >= c |m|^2 on a grid, for
    every positive preset and for random positive systems."""
    rng = random.Random(9)
    systems = [load_system_preset(name) for name in
               ("ellipsoid-sqrt2", "ellipsoid-golden", "ellipsoid-sqrt3", "lens3", "n1", "n3")]
    while len(systems) < 40:
        system = _random_quadrant_system(rng)
        if qbar_quadrant_positive(system).verdict == "positive":
            systems.append(system)
    for system in systems:
        c = qbar_quadrant_positive(system).coercivity
        assert c > 0
        # the finest lower bounds the refinement can reach: any coarser bound
        # it used is smaller, so the constant must hold here too; the form is
        # scaled to integers, since Fractions of that size are slow to reduce
        los = [orbit.phi.rational_bounds(1 << 16)[0] for orbit in system.orbits]
        scale = lcm(*(lo.denominator for lo in los))
        diagonal = [lo.numerator * (scale // lo.denominator) for lo in los]
        side = 6 if system.n <= 3 else 4
        for m in product(range(side), repeat=system.n):
            form = sum(a * v * v for a, v in zip(diagonal, m))
            for i in range(system.n):
                for j in range(i + 1, system.n):
                    form += 2 * system.linking[i][j] * m[i] * m[j] * scale
            norm_sq = sum(v * v for v in m)
            assert form * c.denominator >= c.numerator * norm_sq * scale, (system, m)


def test_quadrant_positive_implies_positive_values():
    cert = qbar_quadrant_positive(ELLIPSOID)
    assert cert.verdict == "positive"
    for m1, m2 in product(range(0, 41), repeat=2):
        if 1 <= m1 + m2 <= 40:
            assert qbar(ELLIPSOID, (m1, m2)).sign() > 0


def test_additivity_telescoping():
    rng = random.Random(7)
    for _ in range(25):
        chain = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(3)]
        a, b, c = (ech_index(ELLIPSOID, m) for m in chain)
        assert (a - b) + (b - c) == a - c


def test_intersection_bound_examples():
    assert intersection_bound(EndData()) == 0
    one_pos = EndData(ends=(End("g", 1, "positive", SQRT2),))
    assert intersection_bound(one_pos) == 1
    one_neg = EndData(ends=(End("g", 2, "negative", SQRT2),))
    assert intersection_bound(one_neg) == -6


def test_intersection_bound_errors():
    with pytest.raises(ValueError):
        intersection_bound(EndData(ends=(End("g", 1, "positive"),)))
    rational_theta = EndData(ends=(End("g", 2, "positive", make_exact((1, 2))),))
    with pytest.raises(DegenerateAngleError):
        intersection_bound(rational_theta)


def test_genus_bound_examples():
    two_ends = EndData(
        ends=(End("a", 3, "positive"), End("b", 2, "negative"))
    )
    assert genus_bound(2, two_ends) == 1
    single = EndData(ends=(End("a", 1, "positive"),))
    assert genus_bound(-1, single) == 0
    assert genus_bound(-2, single) is None  # J0 >= -1 is sharp for one end
    double_pos = EndData(ends=(End("a", 1, "positive"), End("a", 2, "positive")))
    assert genus_bound(0, double_pos) is None


def test_genus_bound_trivial_cylinder_flags():
    data = EndData(
        ends=(End("a", 1, "positive"),),
        trivial_positive=frozenset({"a"}),
    )
    # budget: j0 + 2 - (2*1 + 1 - 1) = j0
    assert genus_bound(4, data) == 2


def test_cylinder_criterion():
    ends = EndData(ends=(End("a", 2, "positive"), End("b", 1, "negative")))
    assert cylinder_criterion(2, ends, (1, 1), (2, 2)).verdict == CYLINDER
    assert cylinder_criterion(1, ends, (1, 1), (2, 2)).verdict == INFEASIBLE
    report = cylinder_criterion(4, ends, (1, 1), (2, 2))
    assert report.verdict == NOT_CYLINDER
    assert report.max_genus == genus_bound(4, ends)
    with pytest.raises(ValueError):
        cylinder_criterion(2, ends, (1, 0), (2, 2))
    one_orbit = EndData(ends=(End("a", 2, "positive"),))
    with pytest.raises(ValueError):
        cylinder_criterion(2, one_orbit, (1, 1), (2, 2))


def test_index_report_bundles_everything():
    report = index_report(ELLIPSOID, (1, 1))
    assert (report.I, report.J0, report.mod2) == (8, 0, 0)
    assert report.envelope[0] <= 8 <= report.envelope[1]
    assert report.qbar is not None
    n3_report = index_report(load_system_preset("n3"), (1, 1, 1))
    assert n3_report.qbar is None  # mixed fields
    assert n3_report.I == ech_index(load_system_preset("n3"), (1, 1, 1))


def test_qbar_field_rule_is_order_free():
    # 1+sqrt2 and 3-sqrt2 cancel to a rational, but with 1+sqrt3 the three
    # irrational phis span two fields: no qbar, whichever order the orbits have
    phis = [(1, 1, 1, 2), (3, -1, 1, 2), (1, 1, 1, 3)]
    for order in ((0, 1, 2), (0, 2, 1), (2, 1, 0)):
        system = make_system([phis[i] for i in order], q=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        with pytest.raises(MixedFieldError):
            qbar(system, (1, 1, 1))
        report = index_report(system, (1, 1, 1))
        assert report.qbar is None
        assert report.I == ech_index(system, (1, 1, 1))
    # one field: the cancelled sum is rational
    system = make_system(phis[:2], q=[[0, 1], [1, 0]])
    assert qbar(system, (1, 1)) == make_exact(4 + 2)


def test_qbar_groups_radicands_of_one_field():
    # 1000003 is prime and above the trial-division bound, so the first phi
    # keeps the radicand 1000003^2 * 1000033; it lies in Q(sqrt 1000033)
    s, f = 1000003, 1000033
    big = ExactReal(1, 1, 2, s * s * f)
    small = make_exact((0, 3, 1, f))
    system = OrbitSystem(
        (Orbit("a", ELLIPTIC, eta=ONE, phi=big), Orbit("b", ELLIPTIC, eta=ONE, phi=small)),
        ((0, -1), (-1, 0)),
        Homology(),
    )
    for m in ((1, 0), (0, 2), (3, 5), (40, 7)):
        expected = big * (m[0] * m[0]) + small * (m[1] * m[1]) - 2 * m[0] * m[1]
        assert qbar(system, m) == expected
        assert index_report(system, m).qbar == expected
        assert index_envelope(system, m) == _envelope_oracle(system, m)


def test_one_per_system_cache():
    assert compile_system.cache_info().maxsize == 256
    assert not hasattr(nullhomologous_lattice, "cache_info")
    system = load_system_preset("lens3")
    assert compile_system(system) is compile_system(system)
    assert compile_system(system).lattice == nullhomologous_lattice(system)


# -- the Fraction-based evaluators the compiled kernel replaced, as oracles ---


def _floor_radical_sum_oracle(rational, radicals):
    """floor(rational + sum c*sqrt(d)) refined over Fractions at 2^-bits."""
    terms = {}
    for coeff, d in radicals:
        if coeff:
            terms[d] = terms.get(d, Fraction(0)) + coeff
    terms = {d: c for d, c in terms.items() if c}
    if not terms:
        return rational.numerator // rational.denominator
    bits = 32
    while bits <= 1 << 20:
        scale = 1 << bits
        lo = hi = Fraction(rational)
        for d, c in terms.items():
            t = isqrt(d * scale * scale)
            if c > 0:
                lo += c * Fraction(t, scale)
                hi += c * Fraction(t + 1, scale)
            else:
                lo += c * Fraction(t + 1, scale)
                hi += c * Fraction(t, scale)
        f_lo, f_hi = lo.numerator // lo.denominator, hi.numerator // hi.denominator
        if f_lo == f_hi:
            return f_lo
        bits *= 2
    raise RefinementError("radical sum refinement did not converge")


def _qbar_oracle(system, m):
    """A running ExactReal sum of m_i^2 phi_i plus the Fraction cross term,
    after the order-free rule: the irrational phi_i with m_i != 0 must lie
    in one field (the systems here have squarefree radicands)."""
    weights = [Fraction(v) for v in m]
    fields = {o.phi.d for o, w in zip(system.orbits, weights) if w and o.phi.q}
    if len(fields) > 1:
        raise MixedFieldError("mixed fields")
    total = ExactReal.from_rational(0)
    for orbit, w in zip(system.orbits, weights):
        if w:
            total = total + orbit.phi * (w * w)
    cross = Fraction(0)
    for i in range(system.n):
        for j in range(i + 1, system.n):
            cross += 2 * weights[i] * weights[j] * system.linking[i][j]
    return total + cross


def _envelope_oracle(system, m):
    """hi = (the formula with floors read as 0) + floor(sum m_i(m_i + 1) phi_i)
    over Fractions; lo = hi - 2|m| + 1."""
    if sum(m) == 0:
        return (0, 0)
    integer_part = index_formula(compile_system(system), m, [{v: 0} for v in m])
    rational = Fraction(0)
    radicals = []
    for orbit, v in zip(system.orbits, m):
        if v:
            rat, coeff, d = orbit.phi.decompose()
            rational += rat * v * (v + 1)
            if coeff:
                radicals.append((coeff * v * (v + 1), d))
    hi = integer_part + _floor_radical_sum_oracle(rational, radicals)
    return (hi - 2 * sum(m) + 1, hi)


def _random_kernel_system(rng):
    """n = 2..4 elliptic orbits over one field, mixed fields, or with rational
    phis; integer eta; random linking; half of them with a Z/k torsion H1."""
    n = rng.randint(2, 4)
    kind = rng.choice(("shared", "mixed", "with-rational"))
    if kind == "shared":
        fields = [rng.choice((2, 3, 5, 7))] * n
    elif kind == "mixed":
        fields = [rng.choice((2, 3, 5, 7)) for _ in range(n)]
    else:
        fields = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
    phis = [(rng.randint(-3, 9), rng.choice((-3, -2, -1, 1, 2, 3)) * (d != 1), rng.randint(1, 4), d)
            for d in fields]
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = rng.randint(-3, 3)
    if rng.random() < 0.5:
        k = rng.randint(2, 4)
        return make_system(phis, linking, etas=[Fraction(rng.randint(-2, 3)) for _ in range(n)],
                           homology=(k,), classes=[(rng.randrange(k),) for _ in range(n)])
    return make_system(phis, linking, etas=[Fraction(rng.randint(-2, 3)) for _ in range(n)])


def _random_generator(rng, system):
    top = rng.choice((6, 50, 10**6))
    m = [rng.randint(0, top) if rng.random() < 0.8 else 0 for _ in range(system.n)]
    if system.homology.orders and rng.random() < 0.8:  # snap onto the lattice
        k = system.homology.orders[0]
        classes = [o.homology_class[0] for o in system.orbits]
        residue = sum(v * c for v, c in zip(m, classes)) % k
        for i in reversed(range(system.n)):
            c = classes[i]
            for step in range(k):
                if (residue + step * c) % k == 0:
                    m[i] += step
                    residue = 0
                    break
            if residue == 0:
                break
    return tuple(m)


def test_kernel_matches_fraction_oracles():
    rng = random.Random(10)
    seen = set()
    for _ in range(150):
        system = _random_kernel_system(rng)
        for _ in range(6):
            m = _random_generator(rng, system)
            try:
                expected_qbar = _qbar_oracle(system, m)
            except MixedFieldError:
                expected_qbar = None
            if not nullhomologous_lattice(system).contains(m):
                with pytest.raises(NotNullhomologousError):
                    index_report(system, m)
                seen.add("not-nullhomologous")
                continue
            report = index_report(system, m)
            assert report.qbar == expected_qbar, (system, m)
            assert report.envelope == _envelope_oracle(system, m) == index_envelope(system, m)
            assert report.envelope[0] <= report.I <= report.envelope[1]
            seen.add("mixed" if expected_qbar is None else "one-field")
            if max(m) > 10**5:
                seen.add("large-m")
            if system.homology.orders:
                seen.add("torsion")
            # rational multiplicities reach the public qbar only
            w = [Fraction(v, rng.randint(1, 5)) for v in m]
            if expected_qbar is None:
                with pytest.raises(MixedFieldError):
                    qbar(system, w)
            else:
                assert qbar(system, w) == _qbar_oracle(system, w), (system, w)
    assert seen == {"mixed", "one-field", "large-m", "torsion", "not-nullhomologous"}


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50),
    st.lists(
        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=30),
                  st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13])),
        max_size=4,
    ),
)
def test_floor_radical_sum_matches_fraction_oracle(rational, radicals):
    assert floor_radical_sum(rational, radicals) == _floor_radical_sum_oracle(rational, radicals)


def _one_field_system(rng, n):
    """n elliptic orbits whose irrational phis (p + q sqrt(s^2 f))/r all lie in
    Q(sqrt f), under the radicands f, 4f and 9f as given, or all rational
    (f = 1); with the Fraction data of each phi over sqrt(f) for the oracle."""
    f = rng.choice((1, 2, 3, 5))
    phis, parts = [], []
    for _ in range(n):
        s = rng.choice((1, 2, 3)) if f > 1 else 1
        p, r = rng.randint(-4, 9), rng.randint(1, 6)
        q = rng.choice((-2, -1, 0, 1, 2, 3)) if f > 1 else 0
        phis.append(ExactReal(p, q, r, s * s * f) if q else ExactReal.from_rational(p, r))
        parts.append((Fraction(p, r), Fraction(q * s, r)))
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = rng.randint(-3, 3)
    orbits = tuple(
        Orbit(f"o{i}", ELLIPTIC, eta=Fraction(rng.randint(-2, 3)), phi=phi)
        for i, phi in enumerate(phis)
    )
    return OrbitSystem(orbits, tuple(map(tuple, linking)), Homology()), parts, f


def test_one_field_envelope_matches_fraction_oracle(monkeypatch):
    # one field or none: the envelope is one _floor_state certificate and
    # never reaches the multi-radical refinement
    def refuse(*args):
        raise AssertionError("_floor_radical_state called on a one-field envelope")

    monkeypatch.setattr(indices, "_floor_radical_state", refuse)
    rng = random.Random(25)
    seen = set()
    for _ in range(120):
        n = rng.randint(0, 4)
        system, parts, f = _one_field_system(rng, n)
        radicands = {o.phi.d for o in system.orbits if o.phi.q}
        for _ in range(8):
            m = tuple(rng.choice((0, 1, 2, 7, 50, 10**5)) for _ in range(n))
            if sum(m) == 0:
                expected = (0, 0)
            else:
                rational = sum(rat * v * (v + 1) for (rat, _), v in zip(parts, m))
                radical = sum(coeff * v * (v + 1) for (_, coeff), v in zip(parts, m))
                floor_free = index_formula(compile_system(system), m, [{v: 0} for v in m])
                hi = floor_free + _floor_radical_sum_oracle(rational, [(radical, f)] if f > 1 else [])
                expected = (hi - 2 * sum(m) + 1, hi)
            assert index_envelope(system, m) == expected, (system, m)
            assert index_report(system, m).envelope == expected
            seen.add(n)
            seen.add("rational" if f == 1 else "one-field")
            if len(radicands) > 1:
                seen.add("several-radicands")
    assert seen == {0, 1, 2, 3, 4, "rational", "one-field", "several-radicands"}


def test_mixed_field_envelope_merges_radicands(monkeypatch):
    # a field whose coefficients cancel, and a radicand met twice after the
    # first field: the envelope merges terms by radicand before its floor
    refinements = []
    kernel = indices._floor_radical_state

    def counted(*args):
        refinements.append(args)
        return kernel(*args)

    monkeypatch.setattr(indices, "_floor_radical_state", counted)
    systems = {
        # sqrt 2 with weights 1 and -1 cancels; sqrt 3 twice, then sqrt 5
        "first-zero": [(0, 1, 1, 2), (3, -1, 1, 2), (0, 1, 1, 3), (1, 2, 3, 3), (0, 1, 1, 5)],
        # sqrt 3 again after sqrt 5: sqrt 12 = 2 sqrt 3
        "repeat": [(0, 1, 1, 3), (0, 1, 1, 5), (1, 1, 1, 12), (2, -1, 3, 2)],
    }
    seen = set()
    for name, phis in systems.items():
        system = make_system(phis)
        n = len(phis)
        for m in product((0, 1, 2, 5), repeat=n):
            before = len(refinements)
            assert index_envelope(system, m) == _envelope_oracle(system, m), (name, m)
            assert index_report(system, m).envelope == _envelope_oracle(system, m)
            fields = {}
            for v, phi in zip(m, phis):
                if v and phi[1]:
                    f = {12: 3}.get(phi[3], phi[3])
                    fields[f] = fields.get(f, 0) + Fraction(phi[1] * v * (v + 1), phi[2])
            nonzero = [f for f, c in fields.items() if c]
            assert (len(refinements) > before) == (len(nonzero) > 1), (name, m)
            if len(fields) > len(nonzero):
                seen.add("cancelled-field")
            if len(nonzero) > 1 and sum(1 for v, phi in zip(m, phis) if v and phi[1]) > len(fields):
                seen.add("repeated-radicand")
    assert seen == {"cancelled-field", "repeated-radicand"}


def test_warm_prefix_memo_keeps_systems_apart():
    # pairs that hold one phi value under two common denominators R, and
    # pairs whose memo keys would collide with R or d left out of the key
    pairs = [
        ([(0, 1, 1, 2), (1, 3)], [(0, 1, 1, 2), (1, 5)]),  # sqrt 2 over R = 3 and R = 5
        ([(1, 1, 2, 5), (1, 4)], [(1, 1, 2, 5), (1, 6)]),  # the golden ratio over R = 4 and 6
        ([(1, 1, 2, 2), (1, 2)], [(1, 1, 3, 2), (1, 3)]),  # (P, Q, d) = (1, 1, 2), R = 2 and 3
        ([(1, 1, 1, 2), (2, 1)], [(1, 1, 1, 3), (2, 1)]),  # (P, Q, R) = (1, 1, 1), d = 2 and 3
        ([(1, 2), (0, 1, 1, 2)], [(1, 3), (0, 1, 1, 2)]),  # rational (1, 0, R, 1), R = 2 and 3
    ]
    generators = list(product(range(13), range(4)))
    for first, second in pairs:
        systems = [make_system(phis) for phis in (first, second)]
        expected = [
            [index_formula(compile_system(system), m,
                           [{v: sum(floor_mult(o.phi, k) for k in range(1, v + 1))}
                            for o, v in zip(system.orbits, m)])
             for m in generators]
            for system in systems
        ]
        for order in ((0, 1), (1, 0)):
            compile_system.cache_clear()
            for i in order:
                got = [index_report(systems[i], m).I for m in generators]
                assert got == expected[i], (order, i)
                assert got == [ech_index(systems[i], m) for m in generators]


def _count_floor_sums(monkeypatch):
    """A list that grows by one per continued-fraction floor sum a prefix
    table runs."""
    calls = []

    def counted(*args):
        calls.append(args)
        return floor_sum(ExactReal._in_field(*args[:4]), args[4])

    monkeypatch.setattr(indices, "_floor_sum_state", counted)
    return calls


def test_prefix_tables_match_floor_mult_sums(monkeypatch):
    calls = _count_floor_sums(monkeypatch)
    rng = random.Random(27)
    for case in range(12):
        system = _random_kernel_system(rng)
        compiled = compile_system(system)
        for i, orbit in enumerate(system.orbits):
            top = rng.choice((30, 80))
            expected = [0]
            for k in range(1, top + 1):
                expected.append(expected[-1] + floor_mult(orbit.phi, k))
            order = ("ascending", "descending", "random")[(case + i) % 3]
            asks = list(range(1, top + 1))
            if order == "descending":
                asks.reverse()
            elif order == "random":
                rng.shuffle(asks)
            table = compiled.prefixes[i]
            table.clear()  # a table starts from F(0) = 0 alone
            table[0] = 0
            del calls[:]
            assert [table[t] for t in asks] == [expected[t] for t in asks], (system, i)
            # ascending fills every miss from below; descending runs one
            # continued-fraction sum, then fills from above
            expected_calls = {"ascending": 0, "descending": 1}.get(order)
            assert expected_calls is None or len(calls) == expected_calls, order
            assert len(calls) < top
            assert len(table) == top + 1
    # an isolated large m costs one floor sum and leaves one entry behind
    system = make_system([(0, 1, 1, 2), (1, 3)])
    table = compile_system(system).prefixes[0]
    del calls[:]
    assert table[20_000] == sum(floor_mult(SQRT2, k) for k in range(1, 20_001))
    assert len(calls) == 1 and sorted(table) == [0, 20_000]
    assert table[19_999] == table[20_000] - floor_mult(SQRT2, 20_000)
    assert table[20_001] == table[20_000] + floor_mult(SQRT2, 20_001)
    assert len(calls) == 1
    # rational phi = 1/3: F(t) = sum floor(k/3)
    rational = compile_system(system).prefixes[1]
    assert [rational[t] for t in (7, 8, 6, 1, 100)] == [
        sum(k // 3 for k in range(1, t + 1)) for t in (7, 8, 6, 1, 100)
    ]


def test_prefix_table_is_capped(monkeypatch):
    system = make_system([(1, 1, 2, 5)])
    golden = system.orbits[0].phi
    table = compile_system(system).prefixes[0]
    cap = indices._PREFIX_CAP
    assert cap == 4096
    total = 0
    for t in range(1, cap + 50):
        total += floor_mult(golden, t)
        assert table[t] == total
    assert len(table) == cap  # F(0) and F(1..cap-1)
    assert cap + 10 not in table
    # past the cap a miss far from any entry is computed, not stored
    calls = _count_floor_sums(monkeypatch)
    assert ech_index(system, (9000,)) == ech_index(system, (9000,))
    assert len(calls) == 2 and 9000 not in table
    assert index_report(system, (9000,)).I == 2 * 9000 + 2 * floor_sum(golden, 9000)


# -- the checked entry points raise in one order ------------------------------

# orbits: a (class 1), h (hyperbolic), b (eta = 1/3, not in Z/2),
# c (eta = 1/2: odd index), d (class 1); H1 is Z/2 or Z
_ORBITS = {
    "a": Orbit("a", ELLIPTIC, eta=ONE, phi=SQRT2, homology_class=(1,)),
    "h": Orbit("h", POSITIVE_HYPERBOLIC, homology_class=(0,)),
    "b": Orbit("b", ELLIPTIC, eta=Fraction(1, 3), phi=make_exact((0, 1, 1, 3)),
               homology_class=(0,)),
    "c": Orbit("c", ELLIPTIC, eta=Fraction(1, 2), phi=make_exact((0, 1, 1, 5)),
               homology_class=(0,)),
    "d": Orbit("d", ELLIPTIC, eta=ONE, phi=make_exact((1, 1, 2, 5)), homology_class=(1,)),
}


def _error_system(names, orders=(2,)):
    orbits = tuple(_ORBITS[name] for name in names)
    n = len(orbits)
    return OrbitSystem(orbits, tuple((0,) * n for _ in range(n)), Homology(orders))


_ENTRY_POINTS = [ech_index, j0_index, index_identity_residual, index_envelope, index_report]
_PARITY_CHECKED = {ech_index, j0_index, index_report}
_ERROR_CASES = [
    # (orbits, H1 orders, m, error, message) in the order the checks run
    ("ahbc", (2,), (1, 2, 1, 1), ValueError, "invalid generator"),
    ("ahbc", (2,), (1, 0, 0), ValueError, "dimension mismatch"),
    ("ahbc", (2,), (-1, 0, 0, 0), ValueError, "invalid generator"),
    ("ahbc", (2,), (1, 1, 1, 1), HyperbolicOrbitError, "orbit h is hyperbolic"),
    ("bhac", (2,), (1, 1, 1, 1), ValueError, r"orbit b: eta must lie in \(1/2\)Z"),
    ("ahbc", (2,), (1, 0, 1, 1), ValueError, r"orbit b: eta must lie in \(1/2\)Z"),
    ("ahbc", (2,), (1, 0, 0, 0), NotNullhomologousError, "not nullhomologous"),
    ("ahbd", (0,), (1, 0, 0, 1), NonTorsionClassError, "orbit a is not torsion"),
    ("ahbd", (0,), (1, 1, 0, 0), HyperbolicOrbitError, "orbit h is hyperbolic"),
    ("ahbc", (2,), (2, 0, 0, 1), IndexParityError, "is odd"),
    ("ahbc", (2,), (2, 1, 0, 0), HyperbolicOrbitError, "orbit h is hyperbolic"),
    ("ahbc", (2,), (4, 0, 0, 0), None, None),  # the bad eta of b has m_b = 0
]


@pytest.mark.parametrize("entry", _ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("names, orders, m, error, message", _ERROR_CASES)
def test_checked_entry_points_raise_in_order(entry, names, orders, m, error, message):
    system = _error_system(names, orders)
    if error is IndexParityError and entry not in _PARITY_CHECKED:
        error = None  # the residual and the envelope do not evaluate I
    for _ in range(2):  # the second call reads the cached record
        if error is None:
            entry(system, m)
        else:
            with pytest.raises(error, match=message):
                entry(system, m)
