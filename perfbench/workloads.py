"""Seeded operation lists for the four workloads, with each operation's check.

A round is a fixed list of operations. Each kind of operation has a size
ladder: a round gives the kind evenly spaced positions u in (0, 1), and
the size parameter grows geometrically with u from a value that costs
about 15 ms to one that costs about 150 ms on a 2-vCPU Xeon VM, so
latencies spread smoothly with no cliff between kinds. The seed (and the
round number) picks only the systems, slopes, angles and maps, never a
size. Every input system, slope and angle is fresh within a run, so the
program's process-wide caches help no operation that a separate CLI
invocation would not also get help for.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from pathlib import Path
from typing import Any, Callable

import checks
import refmath

ROUND_OPS = 100  # operations per round; each workload's kind table adds up to it


@dataclass
class Op:
    """One operation: either CLI arguments for echlab.cli.main or a zero-argument
    library call. check(rc, output) raises checks.CheckError on a wrong output;
    rc is None for library calls."""

    kind: str
    size: int
    check: Callable[[Any, Any], None]
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None


class Context:
    """State shared by the rounds of one run: the echlab modules, the preset
    data, the work directory for system files and the set of values used."""

    def __init__(self, workload: str, seed: int, root: Path, workdir: Path, echlab):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.echlab = echlab
        self.used: set = set()
        self.pending: dict[Path, str] = {}
        self.presets = {}
        names = echlab.presets_io.preset_names()
        for name in names:
            # echlab's own loader (its cost is part of set-up) and the raw
            # file for the reference data
            echlab.presets_io.load_preset(name)
            raw = (root / "src" / "echlab" / "presets" / f"{name}.json").read_text()
            self.presets[name] = json.loads(raw)

    def rng(self, rnd: int) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{rnd}")

    def fresh(self, key) -> bool:
        if key in self.used:
            return False
        self.used.add(key)
        return True

    def write_system(self, name: str, system: dict) -> str:
        """Validate a system with echlab and queue the JSON file the CLI will
        read; flush() writes the queue."""
        orbits = self.echlab.orbits
        report = orbits.validate_system(orbits.system_from_json(system_json(system)))
        if not report.ok:
            raise ValueError(f"generated system is invalid: {report.violations}")
        path = self.workdir / f"{name}.json"
        self.pending[path] = json.dumps(system_json(system))
        return str(path.relative_to(self.root))

    def flush(self) -> None:
        """Write the queued system files. The files only carry the inputs to
        the CLI, so writing them is not part of set-up time: with its ~95
        writes inside, census set-up jumped from 0.055 s to 0.09 s in some
        spells of this machine while the workloads without files held steady."""
        for path, text in self.pending.items():
            path.write_text(text)
        self.pending.clear()


# -- generation helpers ---------------------------------------------------------

_SQUAREFREE = [d for d in range(2, 400) if refmath.is_squarefree(d)]


def ladder(lo: float, hi: float, u: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def positions(count: int) -> list[float]:
    return [(j + 0.5) / count for j in range(count)]


def quad_in(ctx: Context, rng: random.Random, lo: float, hi: float, radicands=None):
    """A fresh quadratic irrational with value in [lo, hi] (floats only pick
    the candidate; the value is exact from then on)."""
    pool = radicands or _SQUAREFREE
    while True:
        d = rng.choice(pool)
        r = rng.randint(1, 6)
        q = rng.choice((1, 1, 2, 3)) * rng.choice((1, -1))
        p = round(rng.uniform(lo, hi) * r - q * sqrt(d))
        x = refmath.canon(p, q, r, d)
        if lo <= approx(x) <= hi and ctx.fresh(("phi", x)):
            return x


def approx(x) -> float:
    """Float value of a quadratic tuple, for sizing inputs only."""
    return (x[0] + x[1] * sqrt(x[3])) / x[2]


def system_json(system: dict) -> dict:
    n = len(system["phi"])
    return {
        "orbits": [
            {
                "name": f"o{i}",
                "kind": "elliptic",
                "eta": {"num": system["two_eta"][i], "den": 2},
                "phi": refmath.to_json(system["phi"][i]),
                "class": list(system["classes"][i]),
            }
            for i in range(n)
        ],
        "linking": [list(row) for row in system["linking"]],
        "homology": list(system["orders"]),
    }


def system_from_preset(obj: dict) -> dict:
    phis = []
    for o in obj["orbits"]:
        ph = o["phi"]
        phis.append(refmath.canon(ph["p"], ph["q"], ph["r"], ph["d"]))
    two_eta = []
    for o in obj["orbits"]:
        eta = Fraction(o["eta"]["num"], o["eta"]["den"])
        two_eta.append(int(2 * eta))
    return {
        "phi": tuple(phis),
        "two_eta": tuple(two_eta),
        "linking": tuple(tuple(row) for row in obj["linking"]),
        "classes": tuple(tuple(o["class"]) for o in obj["orbits"]),
        "orders": tuple(obj["homology"]),
    }


def random_system(ctx, rng, n, phi_lo, phi_hi, etas, links, torsion, pools=None, factors=(1, 1, 2)):
    """Seeded all-elliptic system; with probability torsion, H1 gets a choice
    from factors of finite cyclic factors and the orbits random classes in
    them. pools gives each orbit's radicand choices."""
    pools = pools or [None] * n
    phis = tuple(quad_in(ctx, rng, phi_lo, phi_hi, pool) for pool in pools)
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = rng.choice(links)
    orders: tuple[int, ...] = ()
    if rng.random() < torsion:
        orders = tuple(rng.randint(2, 5) for _ in range(rng.choice(factors)))
    classes = tuple(tuple(rng.randrange(o) for o in orders) for _ in range(n))
    return {
        "phi": phis,
        "two_eta": tuple(2 * rng.choice(etas) for _ in range(n)),
        "linking": tuple(tuple(row) for row in linking),
        "classes": classes,
        "orders": orders,
    }


# -- census -----------------------------------------------------------------------
# (kind, share of a round, imax at u = 0, imax at u = 1)
_CENSUS_KINDS = (
    ("census-json-n2", 17, 1300, 11000),
    ("census-json-n3", 17, 150, 620),
    ("census-csv-n2", 16, 1000, 9000),
    ("census-csv-n3", 16, 110, 440),
    ("growth-n2", 17, 1900, 18000),
    ("growth-n3", 17, 210, 640),
)
_CENSUS_PRESETS = {"n2": ["ellipsoid-sqrt2", "ellipsoid-golden", "ellipsoid-sqrt3", "lens3"],
                   "n3": ["n3"]}


def census_round(ctx: Context, rnd: int) -> list[Op]:
    rng = ctx.rng(rnd)
    presets = {k: list(v) for k, v in _CENSUS_PRESETS.items()} if rnd == 0 else {}
    ops = []
    for kind, count, lo, hi in _CENSUS_KINDS:
        dim = kind[-2:]
        n = int(dim[1])
        for j, u in enumerate(positions(count)):
            if presets.get(dim):
                name = presets[dim].pop()
                system = system_from_preset(ctx.presets[name])
                source = ["--preset", name]
            else:
                # growth fits need counts large enough at every cutoff, so
                # growth systems have no torsion; the others have one torsion
                # factor at most, as a lattice index up to 25 would make the
                # top of the ladder jitter
                system = random_system(
                    ctx, rng, n, 0.9 if n == 2 else 1.0, 1.3 if n == 2 else 1.4,
                    etas=(1,), links=(1,), factors=(1,),
                    torsion=0.0 if kind.startswith("growth") else 0.35)
                source = ["--system", ctx.write_system(f"r{rnd}-{kind}-{j}", system)]
            # the census box grows like sqrt(imax / min phi); scaling imax by
            # the smallest phi keeps the box, and so the cost, on the ladder
            imax = round(ladder(lo, hi, u) * min(map(approx, system["phi"])) / 1.1)
            if kind.startswith("growth"):
                spec = f"8:{imax // 8}:{imax}"
                argv = ["growth", *source, "--samples", spec]
                check = checks.growth(system, imax)
            else:
                fmt = "csv" if "csv" in kind else "json"
                argv = ["census", *source, "--imax", str(imax), "--format", fmt]
                check = checks.census_csv(system, imax) if fmt == "csv" else checks.census_json(system, imax)
            ops.append(Op(kind, imax, check, argv=argv))
    rng.shuffle(ops)
    return ops


# -- floors -----------------------------------------------------------------------

_FLOORS_KINDS = (
    ("ellipsoid-verify", 20, 1100, 9500),
    ("index-large-m", 16, 18000, 200000),
    ("stheta-members", 16, 16000, 180000),
    ("stheta-semiconvergents", 16, 300000, 20000000),
    ("in-s-theta", 16, 20000, 210000),
    ("admissible-end", 16, 20000, 210000),
)


def _prime_at_least(n: int) -> int:
    while True:
        if n > 2 and n % 2 and all(n % k for k in range(3, isqrt(n) + 1, 2)):
            return n
        n += 1


def floors_round(ctx: Context, rnd: int) -> list[Op]:
    rng = ctx.rng(rnd)
    ops = []
    for kind, count, lo, hi in _FLOORS_KINDS:
        for j, u in enumerate(positions(count)):
            size = ladder(lo, hi, u)
            if kind == "ellipsoid-verify":
                size += size % 2
                phi = quad_in(ctx, rng, 0.5, 2.5)
                argv = ["ellipsoid-verify", "--phi1", json.dumps(refmath.to_json(phi)),
                        "--imax", str(size)]
                ops.append(Op(kind, size, checks.ellipsoid(phi, size), argv=argv))
            elif kind == "index-large-m":
                system = random_system(ctx, rng, 2, 0.3, 3.0, etas=(-1, 0, 1, 2),
                                       links=(-2, -1, 0, 1, 2, 3), torsion=0.0)
                share = rng.uniform(0.25, 0.75)
                m = (int(size * share), size - int(size * share))
                path = ctx.write_system(f"r{rnd}-{kind}-{j}", system)
                argv = ["index", "--system", path, "--m", f"{m[0]},{m[1]}"]
                ops.append(Op(kind, size, checks.index_json(system, m), argv=argv))
            elif kind == "stheta-members":
                theta = quad_in(ctx, rng, -3.0, 3.0, _SQUAREFREE[:60])
                argv = ["stheta", "--theta", json.dumps(refmath.to_json(theta)),
                        "--max", str(size)]
                ops.append(Op(kind, size, checks.stheta_members(theta, size), argv=argv))
            elif kind == "stheta-semiconvergents":
                while True:
                    d = _prime_at_least(int(size * rng.uniform(1.0, 1.02)))
                    theta = refmath.canon(rng.randint(-9, 9), 1, rng.randint(2, 40), d)
                    # a short period would let echlab's period detection skip
                    # most of the expansion, and one large partial quotient
                    # would make the output (a row per mediant) dominate
                    if (max(refmath.cf_quotients(theta, 130)[1:]) <= 200
                            and not refmath.cf_has_period_within(theta, 130)
                            and ctx.fresh(("phi", theta))):
                        break
                bound = 10**40
                argv = ["stheta", "--theta", json.dumps(refmath.to_json(theta)),
                        "--max", str(bound), "--emit", "semiconvergents"]
                ops.append(Op(kind, size, checks.stheta_semiconvergents(theta, bound), argv=argv))
            else:
                theta, q = _membership_query(ctx, rng, size)
                value = ctx.echlab.exactreal.make_exact(theta)
                stheta = ctx.echlab.stheta
                if kind == "in-s-theta":
                    call = lambda v=value, q=q: stheta.in_s_theta(v, q)
                    ops.append(Op(kind, q, checks.membership(theta, q), call=call))
                else:
                    # positive ends ask about S(-theta), negative ends about S(theta)
                    sign = rng.choice(("positive", "negative"))
                    call = lambda v=value, q=q, s=sign: stheta.admissible_end_multiplicity(v, q, s)
                    ref = refmath.negate(theta) if sign == "positive" else theta
                    ops.append(Op(kind, q, checks.membership(ref, q), call=call))
    rng.shuffle(ops)
    return ops


def _membership_query(ctx, rng, size: int):
    """An angle and a denominator near size: half the time a member of
    S(theta) in [0.8 size, size] (the answer is yes), otherwise size itself."""
    want_member = rng.random() < 0.5
    while True:
        theta = quad_in(ctx, rng, -3.0, 3.0, _SQUAREFREE[:60])
        if not want_member:
            return theta, size
        members = [q for q, _ in refmath.upper_semiconvergents(theta, size)]
        if members[-1] >= 0.8 * size:
            return theta, members[-1]


# -- queries ------------------------------------------------------------------------
_QUERY_BATCH = (60, 440)
_MULTIPLICITIES = range(51)


def queries_round(ctx: Context, rnd: int) -> list[Op]:
    rng = ctx.rng(rnd)
    ops = []
    for j, u in enumerate(positions(ROUND_OPS)):
        batch = ladder(*_QUERY_BATCH, u)
        n = (2, 3, 4)[j % 3]
        # one shared field, or a different field per orbit (so qbar has a
        # representation exactly when at most one m_i is nonzero)
        if rng.random() < 0.5:
            pools = [[rng.choice(_SQUAREFREE)]] * n
        else:
            pools = [[d] for d in rng.sample(_SQUAREFREE, n)]
        system = random_system(ctx, rng, n, -1.5, 3.0, etas=(-2, -1, 0, 1, 2, 3),
                               links=(-3, -2, -1, 0, 1, 2, 3), torsion=0.5, pools=pools,
                               factors=(1,))
        gens = _lattice_points(rng, system, batch)
        obj = ctx.echlab.orbits.system_from_json(system_json(system))
        if not ctx.echlab.orbits.validate_system(obj).ok:
            raise ValueError("generated system is invalid")
        indices = ctx.echlab.indices
        call = lambda s=obj, g=tuple(gens): [indices.index_report(s, m) for m in g]
        ops.append(Op(f"index-report-n{n}", batch, checks.index_reports(system, gens), call=call))
    rng.shuffle(ops)
    return ops


def _lattice_points(rng, system: dict, count: int) -> list[tuple[int, ...]]:
    """count nullhomologous generators with entries in [0, 50]: the last
    entry is drawn among the values that satisfy the (single) congruence."""
    n = len(system["phi"])
    if not system["orders"]:
        return [tuple(rng.choices(_MULTIPLICITIES, k=n)) for _ in range(count)]
    (order,) = system["orders"]
    classes = [c[0] for c in system["classes"]]
    last = [[t for t in _MULTIPLICITIES if (t * classes[-1] + s) % order == 0] for s in range(order)]
    out = []
    while len(out) < count:
        prefix = rng.choices(_MULTIPLICITIES, k=n - 1)
        options = last[sum(m * c for m, c in zip(prefix, classes)) % order]
        if options:
            out.append((*prefix, rng.choice(options)))
    return out


# -- torus ------------------------------------------------------------------------------

_TORUS_KINDS = (
    ("torus-map", 50, 48, 130),
    ("zeta-check", 30, 1, 1),
    ("zeta-solve", 20, 2, 18),
)
_FINITE_ORDER = (((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)),
                 ((0, -1), (1, -1)), ((1, -1), (1, 0)))


def _sl2_conjugator(rng):
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-2, 2)
        e = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))
        m = refmath.mat_mul2(m, e)
    return m


def _conjugate(rng, a):
    c = _sl2_conjugator(rng)
    inv = ((c[1][1], -c[0][1]), (-c[1][0], c[0][0]))
    return refmath.mat_mul2(refmath.mat_mul2(c, a), inv)


def _torus_map(ctx, rng):
    while True:
        family = rng.choice(("finite-order", "parabolic", "hyperbolic"))
        if family == "finite-order":
            a = _conjugate(rng, rng.choice(_FINITE_ORDER))
        elif family == "parabolic":
            s = rng.choice((1, -1))
            k = rng.choice((1, 2, 3, -1, -2))
            a = _conjugate(rng, ((s, s * k), (0, s)))
        else:
            t = rng.choice((3, 4, 5, -3, -4))
            a = _conjugate(rng, ((t, -1), (1, 0)))
        # the CLI splits --b at commas, so translations are written p/q or sqrtN
        b = []
        for _ in range(2):
            if rng.random() < 0.5:
                b.append(refmath.canon(rng.randint(-5, 5), 0, rng.randint(1, 6), 1))
            else:
                b.append((0, 1, 1, rng.choice(_SQUAREFREE[:30])))
        if ctx.fresh(("torus", a, tuple(b))):
            return a, tuple(b)


def _torus_preset(obj):
    a = tuple(tuple(r) for r in obj["A"])
    b = []
    for v in obj["b"]:
        if v["kind"] == "rational":
            b.append(refmath.canon(v["num"], 0, v["den"], 1))
        else:
            b.append(refmath.canon(v["p"], v["q"], v["r"], v["d"]))
    return a, tuple(b)


def _zeta_instance(rng, family: int, u: float):
    """A zeta-check instance and its degree. Passing instances (genus 0 with
    periods (1, 1), genus 1 with trace 2) run the per-iterate loop up to the
    degree; failing ones stop at the product identity after multiplying out
    a large period multiset."""
    if family == 0:
        return 0, [], [1, 1], ladder(12000, 180000, u)
    if family == 1:
        a = _conjugate(rng, ((1, rng.choice((1, 2, 3, -1))), (0, 1)))
        return 1, [list(r) for r in a], [], ladder(100, 900, u)
    genus = rng.choice((1, 2, 3))
    size = 2 * genus
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        f = rng.randint(-1, 1)
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    total = ladder(400, 1350, u)
    periods = []
    while sum(periods) < total:
        periods.append(rng.randint(1, 60))
    return genus, m, sorted(periods), sum(periods)


def torus_round(ctx: Context, rnd: int) -> list[Op]:
    rng = ctx.rng(rnd)
    presets = ["anosov", "twist", "irrational-rotation"] if rnd == 0 else []
    ops = []
    for kind, count, lo, hi in _TORUS_KINDS:
        for j, u in enumerate(positions(count)):
            if kind == "torus-map":
                pmax = ladder(lo, hi, u)
                if presets:
                    name = presets.pop()
                    a, b = _torus_preset(ctx.presets[name])
                    argv = ["torus-map", "--preset", name, "--pmax", str(pmax)]
                    check = checks.torus_map(a, b, pmax, no_periodic_points=name != "anosov")
                else:
                    a, b = _torus_map(ctx, rng)
                    argv = ["torus-map", "--A", json.dumps([list(r) for r in a]),
                            "--b=" + ",".join(f"{v[0]}/{v[2]}" if v[1] == 0 else f"sqrt{v[3]}" for v in b),
                            "--pmax", str(pmax)]
                    check = checks.torus_map(a, b, pmax)
                ops.append(Op(kind, pmax, check, argv=argv))
            elif kind == "zeta-check":
                genus, matrix, periods, degree = _zeta_instance(rng, j % 3, u)
                argv = ["zeta-check", "--genus", str(genus), "--degree", str(degree)]
                if matrix:
                    argv += ["--matrix", json.dumps(matrix)]
                if periods:
                    argv += ["--periods", ",".join(map(str, periods))]
                ops.append(Op(kind, degree, checks.zeta_check(genus, matrix, periods, degree),
                              argv=argv))
            else:
                bound = ladder(lo, hi, u)
                gmax = rng.randint(1, 4)
                argv = ["zeta-solve", "--gmax", str(gmax), "--psum", "14",
                        "--trace-bound", str(bound)]
                ops.append(Op(kind, bound, checks.zeta_solve(), argv=argv))
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "census": census_round,
    "floors": floors_round,
    "queries": queries_round,
    "torus": torus_round,
}
