"""Census: certified enumeration, spectra, growth fits, triangle oracle."""

import hashlib
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import count, product
from math import inf
from operator import itemgetter

import pytest

from echlab import census
from echlab.census import (
    CensusResult,
    _certified_box,
    census_rows,
    ellipsoid_verify,
    enumerate_generators,
    floor_prefix_table,
    growth_exponent,
    min_index_on_shells,
    spectrum,
    triangle_lattice_count,
)
from echlab.errors import (
    CensusBoundError,
    DegenerateAngleError,
    EchlabError,
    HyperbolicOrbitError,
    IndexParityError,
    NonTorsionClassError,
    RefinementError,
)
from echlab.exactreal import ExactReal, floor_mult, make_exact
from echlab.indices import (
    compile_system,
    doubled_eta,
    ech_index,
    index_formula,
    index_residual,
    index_slope,
    qbar_quadrant_positive,
)
from echlab.orbits import (
    ELLIPTIC,
    Homology,
    NullLattice,
    Orbit,
    OrbitSystem,
    nullhomologous_lattice,
)
from echlab.presets_io import load_system_preset

SQRT2 = make_exact((0, 1, 1, 2))
GOLDEN = make_exact((1, 1, 2, 5))
SQRT3 = make_exact((0, 1, 1, 3))

ELLIPSOID = load_system_preset("ellipsoid-sqrt2")
ALL_ELLIPTIC_PRESETS = (
    "ellipsoid-sqrt2",
    "ellipsoid-golden",
    "ellipsoid-sqrt3",
    "lens3",
    "n1",
    "n3",
)


def brute_force_census(system, i_max, box=64):
    lattice = nullhomologous_lattice(system)
    entries = []
    for m in product(range(box + 1), repeat=system.n):
        if not lattice.contains(m):
            continue
        value = ech_index(system, m)
        if value <= i_max:
            entries.append((m, value))
    entries.sort(key=lambda e: (e[1], e[0]))
    return entries


def box_walk_census(system, i_max, box=None):
    """The census as a filter over the whole box: every point of
    product(range(B+1)) is tested with NullLattice.contains, then priced.
    Same checks, in the same order, as enumerate_generators."""
    compiled = compile_system(system)
    if not all(compiled.elliptic):
        orbit = system.orbits[compiled.elliptic.index(False)]
        raise HyperbolicOrbitError(
            f"orbit {orbit.name} is hyperbolic; the census covers all-elliptic systems"
        )
    if compiled.lattice is None:
        nullhomologous_lattice(system)
    n = system.n
    if box is None:
        cert = qbar_quadrant_positive(system)
        if cert.verdict != "positive":
            raise CensusBoundError(
                f"no positivity certificate (verdict: {cert.verdict}); supply a box"
            )
        limits = [_certified_box(system, i_max, cert.coercivity)] * n
    else:
        limits = [int(box)] * n if isinstance(box, int) else [int(b) for b in box]
        if len(limits) != n or any(b < 0 for b in limits):
            raise ValueError("box must give a nonnegative bound per orbit")
    for i in compiled.faults:
        doubled_eta(system.orbits[i])
    tables = [floor_prefix_table(o.phi, b) for o, b in zip(system.orbits, limits)]
    entries = []
    for m in product(*(range(b + 1) for b in limits)):
        if not compiled.lattice.contains(m):
            continue
        value = index_formula(compiled, m, tables)
        if value > i_max:
            continue
        if value % 2:
            raise IndexParityError(f"odd index {value} at {m}; eta inputs inconsistent")
        entries.append((m, value))
    entries.sort(key=lambda e: (e[1], e[0]))
    return compiled.lattice.index, None if box is None else tuple(limits), entries


def _outcome(census_call):
    try:
        return census_call()
    except Exception as error:  # the exception itself is the outcome compared
        return type(error), str(error)


# box sides and cutoffs that keep the box loop cheap for each n
_ORACLE_BOX = {0: 3, 1: 40, 2: 14, 3: 8, 4: 5}
_ORACLE_CUTOFF = {0: 6, 1: 300, 2: 120, 3: 80, 4: 48}


def random_census_system(rng):
    """n = 0..4 elliptic orbits: quadratic or rational phi (zero or negative
    now and then), eta in (1/2)Z (once in a while outside it), linking from
    -2 to 3, and torsion H1 factors of order 2..6 in about half of them."""
    n = rng.choice((0, 1, 2, 2, 3, 3, 4, 4))
    orbits = []
    orders = tuple(rng.randint(2, 6) for _ in range(rng.choice((0, 0, 1, 1, 2))))
    for i in range(n):
        p, r = rng.randint(-2, 8), rng.randint(1, 3)
        d = rng.choice((1, 2, 3, 5, 7))
        phi = make_exact(Fraction(p, r)) if d == 1 else make_exact((p, rng.randint(1, 3), r, d))
        eta = rng.choice((Fraction(rng.randint(-1, 3)),) * 6 + (Fraction(rng.randint(-2, 6), 2),))
        if rng.random() < 0.02:
            eta = Fraction(1, 3)
        classes = tuple(rng.randrange(k) for k in orders)
        orbits.append(Orbit(f"o{i}", ELLIPTIC, eta=eta, phi=phi, homology_class=classes))
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = rng.choice((-2, -1, 0, 1, 1, 2, 3))
    return OrbitSystem(tuple(orbits), tuple(map(tuple, linking)), Homology(orders))


def test_search_matches_box_walk_on_random_systems():
    rng = random.Random(12)
    seen = set()
    for _ in range(1500):
        system = random_census_system(rng)
        n = system.n
        i_max = rng.randint(-2, _ORACLE_CUTOFF[n])
        boxes = [tuple(rng.randint(0, _ORACLE_BOX[n]) for _ in range(n))]
        cert = _outcome(lambda: qbar_quadrant_positive(system))
        if getattr(cert, "verdict", None) != "positive":
            boxes.append(None)  # both refuse, or fail the same way
        elif _certified_box(system, i_max, cert.coercivity) <= _ORACLE_BOX[n] + 2:
            boxes.append(None)
        for box in boxes:
            expected = _outcome(lambda: box_walk_census(system, i_max, box))
            got = _outcome(lambda: enumerate_generators(system, i_max, box))
            if isinstance(got, CensusResult):
                got = (got.lattice_index, got.box, list(got.entries))
            assert got == expected, (system, i_max, box)
            if isinstance(expected[0], type):
                seen.add(expected[0])
            else:
                seen.add(("certified" if box is None else "boxed", bool(expected[2])))
    assert seen >= {
        IndexParityError, ValueError, CensusBoundError,
        ("boxed", True), ("boxed", False), ("certified", True), ("certified", False),
    }


def test_census_makes_no_membership_test(monkeypatch):
    def refuse(self, m):
        raise AssertionError("NullLattice.contains called")

    monkeypatch.setattr(NullLattice, "contains", refuse)
    lens = enumerate_generators(load_system_preset("lens3"), 300)
    assert lens.lattice_index == 3 and lens.entries
    assert enumerate_generators(load_system_preset("n3"), 300).entries


# search nodes, entry count and a digest of the entries at --imax 8000; the
# values come from pricing every node with index_formula, and carrying the
# index down the search must leave them exactly as they are
_PRESET_SEARCH = {
    "n3": (81027, 75040, "a2de970e5b3fc038"),
    "lens3": (1157, 1005, "cf7a1224b722502d"),
    "ellipsoid-sqrt2": (4152, 4001, "8bb1e6fee9ed68e8"),
    "ellipsoid-golden": (4142, 4001, "4841c846a38aa9e0"),
    "ellipsoid-sqrt3": (4138, 4001, "510363887f87b4a3"),
}


@pytest.mark.parametrize("name", sorted(_PRESET_SEARCH))
def test_search_nodes_per_entry(name):
    result = enumerate_generators(load_system_preset(name), 8000)
    assert len(result.entries) <= result.nodes <= 1.5 * len(result.entries)
    digest = hashlib.sha256(repr(result.entries).encode()).hexdigest()[:16]
    assert (result.nodes, len(result.entries), digest) == _PRESET_SEARCH[name]


def test_every_leaf_record_agrees_with_the_pairs():
    """The walk's value, row and row-with-J0 records are the pair record
    (m, I) reshaped, in the same order, with the same nodes, or the same
    error; the public callers of each record sort them alike."""
    rng = random.Random(31)
    seen = set()
    for _ in range(400):
        system = random_census_system(rng)
        n = system.n
        i_max = rng.randint(-2, _ORACLE_CUTOFF[n])
        box = tuple(rng.randint(0, _ORACLE_BOX[n]) for _ in range(n))
        for box in (box, None):
            pairs = _outcome(lambda: census._walk(system, i_max, box))
            shapes = {
                record: _outcome(lambda: census._walk(system, i_max, box, record=record))
                for record in ("value", "row", "row_j0")
            }
            if isinstance(pairs[0], type):  # refused: every record fails alike
                assert all(got == pairs for got in shapes.values()), (system, box)
                seen.add(pairs[1].split(": ")[-1] if pairs[0] is ValueError else pairs[0])
                continue
            compiled = compile_system(system)
            head, entries = pairs[:2] + pairs[3:], pairs[2]
            expected = {
                "value": [value for _, value in entries],
                "row": [(*m, value) for m, value in entries],
                "row_j0": [
                    (*m, value, value - index_residual(compiled, m)) for m, value in entries
                ],
            }
            for record, got in shapes.items():
                assert got[:2] + got[3:] == head, (system, box, record)
                assert got[2] == expected[record], (system, box, record)
            result = enumerate_generators(system, i_max, box)
            ordered = [(*m, value) for m, value in result.entries]
            assert spectrum(system, i_max, box) == sorted(expected["value"])
            assert census_rows(system, i_max, box) == (result.lattice_index, result.box, ordered)
            with_j0 = census_rows(system, i_max, box, j0=True)[2]
            assert with_j0 == sorted(expected["row_j0"], key=itemgetter(n))  # stable
            if not n:
                seen.add(("n = 0", bool(entries)))
            elif entries:
                seen.add("certified" if box is None else "boxed")
                if any(system.linking[i][j] < 0 for i in range(n) for j in range(i + 1, n)):
                    seen.add("negative linking")
                if any(orbit.phi.sign() <= 0 for orbit in system.orbits):
                    seen.add("phi <= 0")
                if any(orbit.eta.denominator == 2 for orbit in system.orbits):
                    seen.add("half-integer eta")
    assert seen >= {
        IndexParityError, "eta must lie in (1/2)Z", CensusBoundError,
        ("n = 0", True), ("n = 0", False), "certified", "boxed",
        "negative linking", "phi <= 0", "half-integer eta",
    }


def index_formula_oracle(compiled, m, prefixes):
    """I(m) as the double loop over orbits and over pairs i < j:
    sum m_i 2eta_i + 2 sum F_i(m_i) + 2 sum_{i<j} m_i m_j Q_ij."""
    two_eta, linking = compiled.two_eta, compiled.linking
    n = len(m)
    total = 0
    for i in range(n):
        mi = m[i]
        if mi:
            total += mi * two_eta[i] + 2 * prefixes[i][mi]
            row = linking[i]
            for j in range(i + 1, n):
                if m[j]:
                    total += 2 * mi * m[j] * row[j]
    return total


def test_index_fold_matches_the_double_loop():
    rng = random.Random(29)
    seen = set()
    for _ in range(300):
        system = random_census_system(rng)
        compiled = compile_system(system)
        n = system.n
        tables = [floor_prefix_table(orbit.phi, 9) for orbit in system.orbits]
        for _ in range(4):
            m = tuple(rng.choice((0, rng.randint(1, 9))) for _ in range(n))
            expected = index_formula_oracle(compiled, m, tables)
            assert index_formula(compiled, m, tables) == expected, (system, m)
            # _index's prefixes and _envelope's all-zero ones hold only the m_k
            single = [{v: tables[k][v]} if v else None for k, v in enumerate(m)]
            assert index_formula(compiled, m, single) == expected
            zeros = [{v: 0} for v in m]
            assert index_formula(compiled, m, zeros) == index_formula_oracle(
                compiled, m, zeros
            )
            for k in range(n):  # only m_0..m_{k-1} enter the slope of column k
                padded = m[:k] + (rng.randint(0, 9),) * (n - k)
                assert index_slope(compiled, padded, k) == index_slope(compiled, m, k)
            nonzero = [k for k in range(n) if m[k]]
            if 0 < len(nonzero) < n:
                seen.add("zero multiplicity")
            if any(system.linking[i][j] < 0 for i in nonzero for j in nonzero if i < j):
                seen.add("negative linking")
            if compiled.faults:
                seen.add("eta outside (1/2)Z")
    assert seen == {"zero multiplicity", "negative linking", "eta outside (1/2)Z"}


def test_census_ellipsoid_example():
    result = enumerate_generators(ELLIPSOID, 12)
    assert result.entries == (
        ((0, 0), 0),
        ((0, 1), 2),
        ((1, 0), 4),
        ((0, 2), 6),
        ((1, 1), 8),
        ((2, 0), 10),
        ((0, 3), 12),
    )
    assert result.lattice_index == 1
    assert result.box is None  # certified complete


def test_census_single_orbit_zero_cutoff():
    result = enumerate_generators(load_system_preset("n1"), 0)
    assert result.entries == (((0,), 0),)


def test_census_lens_congruence_filter():
    lens = load_system_preset("lens3")
    result = enumerate_generators(lens, 40)
    assert result.lattice_index == 3
    for m, _ in result.entries:
        assert (m[0] + 2 * m[1]) % 3 == 0


def test_census_refuses_without_certificate():
    indefinite = OrbitSystem(
        (
            Orbit("a", ELLIPTIC, eta=Fraction(1), phi=SQRT2),
            Orbit("b", ELLIPTIC, eta=Fraction(1), phi=SQRT2.reciprocal()),
        ),
        ((0, -2), (-2, 0)),
        Homology(),
    )
    with pytest.raises(CensusBoundError):
        enumerate_generators(indefinite, 10)
    boxed = enumerate_generators(indefinite, 10, box=5)
    assert boxed.box == (5, 5)


def test_census_rejects_hyperbolic_systems():
    message = "orbit h is hyperbolic; the census covers all-elliptic systems"
    with pytest.raises(HyperbolicOrbitError, match=message):
        enumerate_generators(load_system_preset("eh-system"), 10)
    with pytest.raises(HyperbolicOrbitError, match=message):
        min_index_on_shells(load_system_preset("eh-system"), range(3))


def test_census_rejects_infinite_order_classes():
    short, long = ELLIPSOID.orbits
    free = OrbitSystem(
        (replace(short, homology_class=(1,)), replace(long, homology_class=(0,))),
        ELLIPSOID.linking,
        Homology((0,)),
    )
    for census in (
        lambda: enumerate_generators(free, 10),
        lambda: enumerate_generators(free, 10, box=3),
        lambda: min_index_on_shells(free, range(3)),
    ):
        with pytest.raises(NonTorsionClassError, match="orbit short is not torsion"):
            census()


def test_empty_system_census():
    empty = OrbitSystem((), (), Homology())
    assert enumerate_generators(empty, 5).entries == (((), 0),)
    assert enumerate_generators(empty, -1).entries == ()
    assert enumerate_generators(empty, 5).box is None
    assert enumerate_generators(empty, 5, box=()).box == ()
    for box in ((3, -4), (3,)):
        with pytest.raises(ValueError, match="nonnegative bound per orbit"):
            enumerate_generators(empty, 5, box=box)


def test_coercivity_refinement_failure_is_typed():
    # a bare non-squarefree radicand: phi = sqrt(4) = 2 on both orbits and
    # Q12 = -2 make the form degenerate, which the exact test decides
    two = ExactReal(0, 1, 1, 4)
    orbits = tuple(Orbit(name, ELLIPTIC, eta=Fraction(1), phi=two) for name in "ab")
    system = OrbitSystem(orbits, ((0, -2), (-2, 0)), Homology())
    assert qbar_quadrant_positive(system).verdict == "degenerate-direction"
    # phi = sqrt(N^2 + 1) - N ~ 1/(2N) is positive, but below the resolution
    # of every enclosure, so no positive lower bound certifies a constant
    big = 2**70000
    tiny = ExactReal(-big, 1, 1, big * big + 1)
    orbits = (Orbit("a", ELLIPTIC, eta=Fraction(1), phi=tiny),)
    system = OrbitSystem(orbits, ((0,),), Homology())
    assert tiny.sign() > 0
    with pytest.raises(RefinementError):
        qbar_quadrant_positive(system)


def test_certified_box_is_unchanged():
    # boxes at i_max = -1, 0, 37, 300, 8000, as the separate verdict and
    # coercivity passes gave them
    expected = {
        "ellipsoid-sqrt2": (0, 2, 9, 22, 108),
        "ellipsoid-golden": (0, 2, 9, 24, 115),
        "ellipsoid-sqrt3": (0, 2, 10, 24, 119),
        "lens3": (0, 2, 7, 16, 77),
        "n1": (0, 2, 7, 16, 77),
        "n3": (0, 2, 7, 16, 77),
    }
    for name, boxes in expected.items():
        system = load_system_preset(name)
        c = qbar_quadrant_positive(system).coercivity
        assert tuple(_certified_box(system, i, c) for i in (-1, 0, 37, 300, 8000)) == boxes


def test_census_completeness_against_brute_force():
    for name in ALL_ELLIPTIC_PRESETS:
        system = load_system_preset(name)
        certified = enumerate_generators(system, 60)
        brute = brute_force_census(system, 60)
        assert certified.entries == tuple(brute), name


def test_spectrum_examples():
    assert spectrum(ELLIPSOID, 20) == list(range(0, 21, 2))
    empty = OrbitSystem((), (), Homology())
    assert spectrum(empty, 10) == [0]
    n1 = load_system_preset("n1")
    gaps = spectrum(n1, 400)
    diffs = [b - a for a, b in zip(gaps, gaps[1:])]
    assert all(y > x for x, y in zip(diffs, diffs[1:]))  # quadratic growth in m


def test_histogram_monotone():
    result = enumerate_generators(ELLIPSOID, 60)
    counts = [result.count_up_to(j) for j in range(61)]
    assert counts[0] >= 1
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_up_to_matches_a_bisection_of_the_index_list():
    rng = random.Random(5)
    for _ in range(60):
        system = random_census_system(rng)
        box = tuple(rng.randint(0, _ORACLE_BOX[system.n]) for _ in range(system.n))
        try:
            result = enumerate_generators(system, _ORACLE_CUTOFF[system.n], box)
        except (EchlabError, ValueError):  # refused: odd index, bad angle, ...
            continue
        values = [value for _, value in result.entries]
        for j in range(min(values, default=0) - 2, max(values, default=0) + 3):
            assert result.count_up_to(j) == bisect_right(values, j)


def test_floor_prefix_table():
    table = floor_prefix_table(SQRT2, 5)
    assert table[0] == 0
    assert table[3] == sum(floor_mult(SQRT2, k) for k in (1, 2, 3))


def test_growth_exponents():
    samples = [round(200 * (4000 / 200) ** (j / 11)) for j in range(12)]
    n1 = growth_exponent(load_system_preset("n1"), samples)
    assert abs(n1.exponent - 0.5) <= 0.1
    ell = growth_exponent(ELLIPSOID, samples)
    assert abs(ell.exponent - 1.0) <= 0.05
    n3_samples = [round(200 * (2000 / 200) ** (j / 9)) for j in range(10)]
    n3 = growth_exponent(load_system_preset("n3"), n3_samples)
    assert abs(n3.exponent - 1.5) <= 0.1


def test_growth_needs_samples():
    with pytest.raises(ValueError):
        growth_exponent(ELLIPSOID, [10, 20, 30])


def test_triangle_lattice_count_examples():
    assert triangle_lattice_count(SQRT2, (0, 0)) == 1
    assert triangle_lattice_count(SQRT2, (0, 1)) == 2
    assert triangle_lattice_count(SQRT2, (1, 1)) == 5


def test_triangle_lattice_count_brute_force():
    for phi1 in (SQRT2, GOLDEN, make_exact((0, 1, 2, 2)), make_exact((-1, 1, 1, 2))):
        for m1, m2 in product(range(9), repeat=2):
            count = triangle_lattice_count(phi1, (m1, m2))
            # phi1*x + y <= phi1*m1 + m2 via exact rearrangement
            brute = 0
            for x in range(0, 200):
                # y <= m2 + phi1*(m1 - x); count nonnegative integer y
                if x <= m1:
                    ceiling = m2 if x == m1 else m2 + floor_mult(phi1, m1 - x)
                    brute += ceiling + 1
                else:
                    room = m2 - floor_mult(phi1, x - m1)
                    if room <= 0:
                        break
                    brute += room
            assert count == brute


def test_triangle_count_matches_half_index():
    for name, phi1 in (
        ("ellipsoid-sqrt2", SQRT2),
        ("ellipsoid-golden", GOLDEN),
        ("ellipsoid-sqrt3", SQRT3),
    ):
        system = load_system_preset(name)
        for m1, m2 in product(range(12), repeat=2):
            assert ech_index(system, (m1, m2)) == 2 * (
                triangle_lattice_count(phi1, (m1, m2)) - 1
            )


def test_triangle_rejects_rational_slope():
    with pytest.raises(DegenerateAngleError):
        triangle_lattice_count(make_exact((3, 2)), (1, 1))


def test_ellipsoid_verify_passes():
    for phi1 in (SQRT2, GOLDEN, SQRT3):
        outcome = ellipsoid_verify(phi1, 200)
        assert outcome.passed, outcome.first_discrepancy
        assert outcome.generator_count == 101


def test_ellipsoid_verify_rejects_rational():
    with pytest.raises(DegenerateAngleError):
        ellipsoid_verify(make_exact((3, 2)), 20)


def corrupt_census(monkeypatch, corrupt):
    """Make ellipsoid_verify read the census with corrupt applied to its
    entry list."""
    real = census.enumerate_generators

    def corrupted(system, i_max, box=None):
        result = real(system, i_max, box)
        entries = list(result.entries)
        corrupt(entries)
        return replace(result, entries=tuple(entries))

    monkeypatch.setattr(census, "enumerate_generators", corrupted)


def test_ellipsoid_verify_reports_colliding_indices(monkeypatch):
    entries = enumerate_generators(ELLIPSOID, 40).entries
    (m2, i2), (m3, _) = entries[2], entries[3]

    def collide(entries):
        entries[3] = (m3, i2)

    corrupt_census(monkeypatch, collide)
    outcome = ellipsoid_verify(SQRT2, 40)
    assert outcome.passed is False
    assert outcome.first_discrepancy == f"indices collide: {m2} and {m3} both have I={i2}"
    assert outcome.generator_count == len(entries) == 21


def test_ellipsoid_verify_reports_a_triangle_oracle_mismatch(monkeypatch):
    m, value = enumerate_generators(ELLIPSOID, 40).entries[5]

    def shift(entries):
        entries[5] = (m, value + 2)

    corrupt_census(monkeypatch, shift)
    outcome = ellipsoid_verify(SQRT2, 40)
    assert outcome.passed is False
    assert outcome.first_discrepancy == (
        f"triangle oracle mismatch at m={m}: I={value + 2}, lattice gives {value}"
    )


def test_ellipsoid_verify_reports_a_missing_index(monkeypatch):
    _, value = enumerate_generators(ELLIPSOID, 40).entries[7]

    def drop(entries):
        del entries[7]

    corrupt_census(monkeypatch, drop)
    outcome = ellipsoid_verify(SQRT2, 40)
    assert outcome.passed is False
    assert outcome.first_discrepancy == f"missing index {value}"
    assert outcome.generator_count == 20


def seeded_slopes(seed, count):
    """Positive irrational quadratic slopes (p + q sqrt d) / r."""
    rng = random.Random(seed)
    slopes = []
    while len(slopes) < count:
        d = rng.choice((2, 3, 5, 6, 7, 10))
        phi = make_exact((rng.randint(-1, 3), rng.randint(1, 3), rng.randint(1, 4), d))
        if phi.sign() > 0:
            slopes.append(phi)
    return slopes


def test_ellipsoid_verify_computes_each_floor_sum_once(monkeypatch):
    real = census.floor_sum
    calls = []

    def counted(x, k):
        calls.append((x, k))
        return real(x, k)

    monkeypatch.setattr(census, "floor_sum", counted)
    for phi1 in (SQRT2, GOLDEN, SQRT3, *seeded_slopes(5, 12)):
        calls.clear()
        outcome = ellipsoid_verify(phi1, 300)
        assert outcome.passed, outcome.first_discrepancy
        entries = enumerate_generators(census._ellipsoid_system(phi1), 300).entries
        inverse = phi1.reciprocal()
        wanted = {m1 for (m1, _), _ in entries}
        wanted |= {floor_mult(inverse, m2) if m2 else 0 for (_, m2), _ in entries}
        # one call per distinct argument, every call on phi1
        assert sorted(k for _, k in calls) == sorted(wanted)
        assert all(x == phi1 for x, _ in calls)
        for m, value in entries:
            assert value == 2 * (triangle_lattice_count(phi1, m) - 1)


def test_ellipsoid_verify_computes_each_floor_mult_once(monkeypatch):
    real = census.floor_mult
    calls = []

    def counted(x, k):
        calls.append((x, k))
        return real(x, k)

    monkeypatch.setattr(census, "floor_mult", counted)
    for phi1 in (SQRT2, GOLDEN, SQRT3, *seeded_slopes(7, 12)):
        calls.clear()
        outcome = ellipsoid_verify(phi1, 300)
        assert outcome.passed, outcome.first_discrepancy
        verify_calls = Counter(calls)
        calls.clear()
        entries = enumerate_generators(census._ellipsoid_system(phi1), 300).entries
        # besides the census's own prefix tables, one floor_mult(1/phi1, m2)
        # per distinct nonzero m2
        inverse = phi1.reciprocal()
        wanted = Counter((inverse, m2) for m2 in {m2 for (_, m2), _ in entries if m2})
        assert verify_calls == Counter(calls) + wanted


def test_eta_outside_half_integers_is_rejected_everywhere():
    short, long = ELLIPSOID.orbits
    bad = OrbitSystem(
        (replace(short, eta=Fraction(1, 3)), long), ELLIPSOID.linking, ELLIPSOID.homology
    )
    message = "orbit short: eta must lie in \\(1/2\\)Z"
    with pytest.raises(ValueError, match=message):
        ech_index(bad, (1, 0))
    with pytest.raises(ValueError, match=message):
        enumerate_generators(bad, 10)
    with pytest.raises(ValueError, match=message):
        min_index_on_shells(bad, range(3))


def test_odd_index_is_refused_by_every_census():
    # eta = 1/2 gives I(m) = m + 2 sum floor(k sqrt 2), odd at m = 1
    half = OrbitSystem(
        (Orbit("a", ELLIPTIC, eta=Fraction(1, 2), phi=SQRT2),), ((0,),), Homology()
    )
    with pytest.raises(IndexParityError):
        ech_index(half, (1,))
    with pytest.raises(IndexParityError):
        enumerate_generators(half, 10)
    with pytest.raises(IndexParityError):
        min_index_on_shells(half, range(4))


def brute_force_shells(system, r_max):
    lattice = nullhomologous_lattice(system)
    best = {}
    for m in product(range(r_max + 1), repeat=system.n):
        radius = next(r for r in count() if r * r >= sum(v * v for v in m))
        if radius <= r_max and lattice.contains(m):
            value = ech_index(system, m)
            best[radius] = min(value, best.get(radius, value))
    return sorted(best.items())


def test_min_index_on_shells_against_brute_force():
    for name, r_max in (("lens3", 12), ("n3", 6), ("ellipsoid-golden", 10)):
        system = load_system_preset(name)
        assert min_index_on_shells(system, range(r_max + 1)) == brute_force_shells(
            system, r_max
        ), name
    lens = load_system_preset("lens3")
    assert min_index_on_shells(lens, [5, 2, 5]) == [
        (r, v) for r, v in brute_force_shells(lens, 5) if r in (2, 5)
    ]
    assert min_index_on_shells(lens, []) == []


def test_shell_search_stays_in_the_ball():
    n3 = load_system_preset("n3")
    assert min_index_on_shells(n3, range(7)) == brute_force_shells(n3, 6)
    # n3's lattice is all of Z^3, so the search visits every prefix m_0..m_k
    # of the 163 points of the ball of radius 6 in the box [0, 6]^3; its node
    # count equals the number of those prefixes exactly when no node, prefix
    # (zero-padded) included, lies outside the ball
    assert nullhomologous_lattice(n3).index == 1
    ball = {m for m in product(range(7), repeat=3) if sum(v * v for v in m) <= 36}
    assert len(ball) == 163
    prefixes = {m[:k] for m in ball for k in (1, 2, 3)}
    assert census._walk(n3, inf, 6, 36)[3] == len(prefixes)


def test_min_index_on_shells():
    shells = min_index_on_shells(ELLIPSOID, range(0, 41))
    assert shells[0] == (0, 0)
    assert shells[1] == (1, 2)  # generator (0, 1)
    # certified: on shell r >= 1, |m| > r - 1 and every m_i <= r, so
    # I(m) > Qbar(m) - slack sum m_i >= c (r - 1)^2 - slack n r
    negative_eta = OrbitSystem(
        (Orbit("a", ELLIPTIC, eta=Fraction(-1), phi=SQRT2),
         Orbit("b", ELLIPTIC, eta=Fraction(-1), phi=SQRT3)),
        ((0, 1), (1, 0)),
        Homology(),
    )
    for system in (ELLIPSOID, negative_eta):
        shells = min_index_on_shells(system, range(0, 41))
        certificate = qbar_quadrant_positive(system)
        assert certificate.verdict == "positive"
        c, slack, n = certificate.coercivity, census._linear_slack(system), system.n
        assert c > 0 and slack >= 0
        for r, value in shells[1:]:
            assert value >= c * (r - 1) ** 2 - slack * n * r, (system, r)
        assert len(shells) == 41
        # the bound has force: at the largest radius it exceeds the smallest index
        assert shells[-1][1] > c * 39**2 - slack * n * 40 > max(shells[1][1], 0)
    assert census._linear_slack(negative_eta) > 2
