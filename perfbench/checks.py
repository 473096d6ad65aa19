"""Independent output checks, one factory per operation kind.

Each factory takes the operation's inputs and returns check(rc, output),
which raises CheckError when the output is wrong; rc is the CLI exit code,
or None for a library call. Reference values come from refmath, never from
echlab.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from fractions import Fraction
from math import gcd

import refmath


class CheckError(Exception):
    """An operation's output disagrees with the reference computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _json(rc, out, want_rc: int = 0):
    expect(rc == want_rc, f"exit code {rc}, expected {want_rc}")
    return json.loads(out)


def _csv(rc, out) -> tuple[list[str], list[list[str]]]:
    expect(rc == 0, f"exit code {rc}, expected 0")
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


# -- census ----------------------------------------------------------------------


def _checked_entries(system: dict, i_max: int, got: list[tuple[tuple[int, ...], int]]):
    """Verify every reported (m, I) by the formula, then completeness by the
    count over the reference box; returns the prefix tables."""
    bounds, tables = refmath.census_box(system, i_max)
    n = len(bounds)
    previous = None
    for m, value in got:
        expect(len(m) == n and all(0 <= v <= b for v, b in zip(m, bounds)),
               f"m={m} outside the box {bounds} that holds every index <= {i_max}")
        expect(refmath.in_lattice(system, m), f"m={m} violates the homology congruence")
        expect(value == refmath.ech_index(system, tables, m), f"I({m}) reported as {value}")
        expect(value % 2 == 0 and value <= i_max, f"I({m}) = {value} odd or above {i_max}")
        expect(previous is None or (value, m) > previous, f"entries not sorted at m={m}")
        previous = (value, m)
    ref = refmath.census_entries(system, i_max, bounds, tables)
    expect(len(got) == len(ref), f"{len(got)} entries, brute force over the box finds {len(ref)}")
    return tables


def census_json(system: dict, i_max: int):
    def check(rc, out):
        obj = _json(rc, out)
        expect(obj["imax"] == i_max, "imax not echoed")
        expect(obj["box"] is None and obj["complete"] is True, "census not certified complete")
        expect(obj["lattice_index"] == refmath.lattice_index(system), "wrong lattice index")
        got = [(tuple(e["m"]), e["I"]) for e in obj["entries"]]
        _checked_entries(system, i_max, got)
    return check


def census_csv(system: dict, i_max: int):
    def check(rc, out):
        header, rows = _csv(rc, out)
        n = len(system["phi"])
        expect(header == [f"m_{i + 1}" for i in range(n)] + ["I", "J0", "mod2"], "bad header")
        values = [[int(v) for v in row] for row in rows]
        got = [(tuple(row[:n]), row[n]) for row in values]
        tables = _checked_entries(system, i_max, got)
        for row in values:
            m = tuple(row[:n])
            expect(row[n + 1] == refmath.j0_index(system, tables, m), f"J0({m}) reported as {row[n + 1]}")
            expect(row[n + 2] == 0, f"mod2({m}) is {row[n + 2]} on an all-elliptic system")
    return check


# The least-squares slope over the upper half of eight log-spaced cutoffs
# from k/8 to k: over 3,400 growth operations of 100 seeds (systems without
# torsion, as the workload draws them) it stayed within 0.22 of n/2.
GROWTH_TOLERANCE = 0.45


def growth(system: dict, k_max: int):
    def check(rc, out):
        obj = _json(rc, out)
        ks, counts = obj["samples"], obj["counts"]
        expect(4 <= len(ks) <= 8 and ks == sorted(set(ks)), "samples not 4-8 distinct cutoffs")
        expect(ks[0] == k_max // 8 and ks[-1] == k_max, "samples do not span the range")
        bounds, tables = refmath.census_box(system, k_max)
        values = [v for _, v in refmath.census_entries(system, k_max, bounds, tables)]
        want = [bisect_right(values, k) for k in ks]
        expect(counts == want, f"counts {counts}, reference {want}")
        half = len(system["phi"]) / 2
        expect(abs(obj["exponent"] - half) <= GROWTH_TOLERANCE,
               f"exponent {obj['exponent']} far from n/2 = {half}")
        expect(obj["max_residual"] >= 0, "negative residual")
    return check


# -- floors ------------------------------------------------------------------------


def ellipsoid(phi, i_max: int):
    def check(rc, out):
        obj = _json(rc, out)
        expect(obj["phi1"] == refmath.to_json(phi) and obj["imax"] == i_max, "inputs not echoed")
        expect(obj["passed"] is True and obj["first_discrepancy"] is None, "verification failed")
        expect(obj["generators"] == i_max // 2 + 1,
               f"{obj['generators']} generators, expected {i_max // 2 + 1}")
    return check


def _qbar(system: dict, m):
    """qbar(m) as a canonical tuple, or None when the phis with m_i != 0 lie
    in different quadratic fields."""
    fields = {system["phi"][i][3] for i, v in enumerate(m) if v and system["phi"][i][1]}
    if len(fields) > 1:
        return None
    rational = Fraction(2 * refmath.cross(system, m))
    radical = Fraction(0)
    for v, (p, q, r, _) in zip(m, system["phi"]):
        rational += Fraction(v * v * p, r)
        radical += Fraction(v * v * q, r)
    den = rational.denominator * radical.denominator
    d = fields.pop() if fields else 1
    return refmath.canon(int(rational * den), int(radical * den), den, d if radical else 1)


def _index_values(system: dict, tables, m, value_i, value_j0, mod2, envelope, qbar):
    expect(value_i == refmath.ech_index(system, tables, m), f"I({m}) reported as {value_i}")
    expect(value_j0 == refmath.j0_index(system, tables, m), f"J0({m}) reported as {value_j0}")
    expect(value_i - value_j0 == refmath.identity_residual(system, m), f"I - J0 wrong at {m}")
    expect(mod2 == 0, f"mod2({m}) is {mod2} on an all-elliptic system")
    lo, hi = envelope
    width = 2 * sum(m) - 1 if any(m) else 0
    expect(lo <= value_i <= hi and hi - lo == width, f"envelope {envelope} misses I = {value_i}")
    expect(qbar == _qbar(system, m), f"qbar({m}) reported as {qbar}")


def index_json(system: dict, m):
    def check(rc, out):
        obj = _json(rc, out)
        expect(obj["m"] == list(m), "m not echoed")
        tables = [refmath.prefix_table(phi, v) for phi, v in zip(system["phi"], m)]
        q = obj["qbar"]
        if q is not None:
            q = (q["p"], q["q"], q["r"], q["d"]) if q["kind"] == "quadratic" else (q["num"], 0, q["den"], 1)
        _index_values(system, tables, m, obj["I"], obj["J0"], obj["mod2"], tuple(obj["envelope"]), q)
    return check


def index_reports(system: dict, gens):
    def check(rc, reports):
        expect(len(reports) == len(gens), "one report per generator expected")
        top = [max(m[i] for m in gens) for i in range(len(system["phi"]))]
        tables = [refmath.prefix_table(phi, v) for phi, v in zip(system["phi"], top)]
        for m, rep in zip(gens, reports):
            q = None if rep.qbar is None else (rep.qbar.num, rep.qbar.q, rep.qbar.den, rep.qbar.d)
            _index_values(system, tables, m, rep.I, rep.J0, rep.mod2, rep.envelope, q)
    return check


def stheta_members(theta, bound: int):
    def check(rc, out):
        header, rows = _csv(rc, out)
        expect(header == ["q"], "bad header")
        want = [q for q, _ in refmath.upper_semiconvergents(theta, bound)]
        expect([int(r[0]) for r in rows] == want, "members differ from the semiconvergents")
    return check


def stheta_semiconvergents(theta, bound: int):
    def check(rc, out):
        header, rows = _csv(rc, out)
        expect(header == ["q", "ceil_q_theta", "fraction"], "bad header")
        want = refmath.upper_semiconvergents(theta, bound)
        expect(len(rows) == len(want), f"{len(rows)} semiconvergents, reference {len(want)}")
        for row, (q, c) in zip(rows, want):
            expect(row == [str(q), str(c), f"{c}/{q}"], f"row {row}, reference q={q}")
            expect(c == refmath.ceil_mul(theta, q), f"ceil({q} theta) is not {c}")
    return check


def membership(theta, q: int):
    """Library call answering whether q lies in S(theta)."""
    def check(rc, answer):
        want = any(den == q for den, _ in refmath.upper_semiconvergents(theta, q))
        expect(answer is want, f"membership of {q} reported as {answer}")
    return check


# -- torus ---------------------------------------------------------------------------


def _combination(pairs) -> dict:
    """sum coeff * value as {radicand: Fraction}, radicand 1 the rational part."""
    parts: dict[int, Fraction] = {}
    for coeff, (p, q, r, d) in pairs:
        parts[1] = parts.get(1, Fraction(0)) + Fraction(coeff * p, r)
        if q:
            parts[d] = parts.get(d, Fraction(0)) + Fraction(coeff * q, r)
    return parts


def _integral(parts: dict) -> bool:
    return all(v == 0 for d, v in parts.items() if d != 1) and parts.get(1, Fraction(0)).denominator == 1


def torus_rows(a, b, p_max: int) -> list[dict]:
    """Per period: |2 - tr(A^p)| points when nonzero; otherwise all points
    periodic (A^p = I) or circles of them (rank one) exactly when the
    translation's p-step sum meets the lattice condition, and none if not."""
    rows = []
    power = ((1, 0), (0, 1))  # A^p
    geometric = ((0, 0), (0, 0))  # I + A + ... + A^(p-1)
    for p in range(1, p_max + 1):
        geometric = tuple(tuple(geometric[i][j] + power[i][j] for j in range(2)) for i in range(2))
        power = refmath.mat_mul2(power, a)
        lefschetz = 2 - power[0][0] - power[1][1]
        if lefschetz:
            rows.append({"p": p, "kind": "count", "count": abs(lefschetz)})
            continue
        c = [_combination([(geometric[i][0], b[0]), (geometric[i][1], b[1])]) for i in range(2)]
        diff = ((power[0][0] - 1, power[0][1]), (power[1][0], power[1][1] - 1))
        if not any(diff[0] + diff[1]):
            solvable = _integral(c[0]) and _integral(c[1])
        else:
            # image of A^p - I is the line through its nonzero column v; the
            # congruence is solvable exactly when w . c is an integer for the
            # primitive w perpendicular to v
            col = (diff[0][0], diff[1][0]) if diff[0][0] or diff[1][0] else (diff[0][1], diff[1][1])
            g = gcd(*col)
            w = (-col[1] // g, col[0] // g)
            keys = set(c[0]) | set(c[1])
            solvable = _integral({k: w[0] * c[0].get(k, 0) + w[1] * c[1].get(k, 0) for k in keys})
        rows.append({"p": p, "kind": "positive-dimensional" if solvable else "none", "count": None})
    return rows


def torus_map(a, b, p_max: int, no_periodic_points: bool = False):
    def check(rc, out):
        obj = _json(rc, out)
        expect(obj["A"] == [list(r) for r in a] and obj["pmax"] == p_max, "inputs not echoed")
        expect(obj["b"] == [refmath.to_json(v) for v in b], "translation not echoed")
        want = torus_rows(a, b, p_max)
        expect(not no_periodic_points or all(r["kind"] == "none" for r in want),
               "reference finds periodic points on a map that has none")
        for got, ref in zip(obj["periods"], want):
            expect(got == ref, f"period {ref['p']}: {got}, reference {ref}")
        expect(len(obj["periods"]) == p_max, "missing periods")
        first = next((r["p"] for r in want if r["kind"] != "none"), None)
        expect(obj["first_period"] == first, "wrong first period")
        verdict = (f"no periodic orbits up to period {p_max}" if first is None
                   else f"first periodic points at period {first}")
        expect(obj["verdict"] == verdict, "wrong verdict")
    return check


_SQUARE_ONE_MINUS_T = [1, -2, 1]


def zeta_check(genus: int, matrix, periods, degree: int):
    def check(rc, out):
        product = refmath.det_one_minus_t(matrix) if genus else [1]
        for p in periods:
            shifted = [0] * (len(product) + p)
            for i, c in enumerate(product):
                shifted[i] += c
                shifted[i + p] -= c
            product = shifted
        while len(product) > 1 and product[-1] == 0:
            product.pop()
        want = (True, None, None)
        if product != _SQUARE_ONE_MINUS_T:
            width = max(len(product), 3)
            padded = product + [0] * (width - len(product))
            target = _SQUARE_ONE_MINUS_T + [0] * (width - 3)
            k = next(i for i in range(width) if padded[i] != target[i])
            want = (False, k, f"coefficient of t^{k} is {padded[k]}, expected {target[k]}")
        else:
            # only genus 0 and genus 1 with trace 2 get here (degree argument)
            tr = matrix[0][0] + matrix[1][1] if genus else 0
            t_prev, t_cur = 2, tr
            for p in range(1, degree + 1):
                lefschetz = 2 - t_cur if genus else 2
                count = sum(q for q in periods if p % q == 0)
                if lefschetz != count:
                    want = (False, p, f"fixed-point count at iterate {p}: Lefschetz gives "
                                      f"{lefschetz}, orbits give {count}")
                    break
                t_prev, t_cur = t_cur, tr * t_cur - t_prev
        obj = _json(rc, out, 0 if want[0] else 1)
        expect(obj["genus"] == genus and obj["periods"] == list(periods), "inputs not echoed")
        got = (obj["passed"], obj["first_failing_power"], obj["detail"])
        expect(got == want, f"verdict {got}, reference {want}")
    return check


def zeta_solve():
    """Degree argument: only genus 0 with periods (1, 1) and genus 1 with
    trace 2 and no periods satisfy det(1 - tA) prod(1 - t^p) = (1 - t)^2."""
    want = [
        {"genus": 0, "trace": None, "det": None, "periods": [1, 1]},
        {"genus": 1, "trace": 2, "det": 1, "periods": []},
    ]

    def check(rc, out):
        expect(_json(rc, out) == want, "solutions differ from the degree argument")
    return check
