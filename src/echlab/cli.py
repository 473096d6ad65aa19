"""Command-line entry point.

Subcommands: index, census, ellipsoid-verify, growth, stheta, zeta-check,
zeta-solve, torus-map, preset-list.  Verdicts are emitted as JSON; spectra
and densities as CSV.  Exit status: 0 success/pass, 1 verification failure,
2 input error.

Output goes through json.dumps(indent=2) and csv.writer, except the
census's entries and rows.  The census is the one command whose output grows
with its answer (megabytes at large cutoffs), and with indent set json.dumps
runs CPython's pure-Python encoder.  Census entries hold only ints, so the
command takes the census as flat rows (m_1, ..., m_n, I) sorted by I
(census.census_rows; for CSV each row also holds J0, carried down the
search as I is) and fills one %-template per row, byte for byte as
json.dumps and csv.writer would write it.  torus-map's period rows, one per
period up to --pmax, are filled from one template the same way.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import census as census_mod
from . import indices, lefschetz, stheta
from .errors import EchlabError
from .exactreal import ExactReal, make_exact
from .orbits import OrbitSystem, load_system, validate_system
from .presets_io import (
    SYSTEM_PRESETS,
    load_system_preset,
    load_torus_preset,
    preset_names,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

_NAMED_REALS = {
    "sqrt2": (0, 1, 1, 2),
    "sqrt3": (0, 1, 1, 3),
    "sqrt5": (0, 1, 1, 5),
    "golden": (1, 1, 2, 5),
    "1/sqrt2": (0, 1, 2, 2),
    "sqrt2m1": (-1, 1, 1, 2),
}


def parse_exact(text: str) -> ExactReal:
    """Accept a shorthand name or sqrtN, either with one leading minus sign,
    an integer, p/q, or inline JSON."""
    text = text.strip()
    negate = text.startswith("-")
    name = text[1:] if negate else text
    spec = _NAMED_REALS.get(name)
    if spec is None and name.startswith("sqrt") and name[4:].isdecimal():
        spec = (0, 1, 1, int(name[4:]))
    if spec is not None:
        value = make_exact(spec)
        return -value if negate else value
    if text.startswith("{"):
        return make_exact(json.loads(text))
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse exact real {text!r}") from exc
    return make_exact(frac)


def _split_top_level(text: str) -> list[str]:
    """Split at the commas outside braces and brackets, so that inline-JSON
    exact reals stay whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write text, ended by one newline, to --out or else to stdout; the file
    gets the same bytes that stdout would."""
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "out", None)  # preset-list takes no --out
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_system_arg(args: argparse.Namespace) -> OrbitSystem:
    if args.preset:
        return load_system_preset(args.preset)
    if not args.system:
        raise ValueError("a --system file or --preset name is required")
    system = load_system(args.system)
    report = validate_system(system)
    if not report.ok:
        raise ValueError("invalid system: " + "; ".join(report.violations))
    return system


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_index(args: argparse.Namespace) -> int:
    system = _load_system_arg(args)
    # --m "" is the empty generator, the only generator of a system with no orbits
    m = tuple(int(v) for v in args.m.split(",")) if args.m else ()
    report = indices.index_report(system, m)
    _emit(args, json.dumps({"m": list(m), **report.to_json()}, indent=2))
    return EXIT_OK


def _census_json(
    cutoff: int, lattice_index: int, box: tuple[int, ...] | None, rows: list, n: int
) -> str:
    """The census as json.dumps(payload, indent=2) lays it out: the header
    through json.dumps, each entry from one template filled with the walk's
    flat row (m_1, ..., m_n, I), since entries hold only ints."""
    text = json.dumps(
        {
            "imax": cutoff,
            "lattice_index": lattice_index,
            "box": list(box) if box is not None else None,
            "complete": box is None,
            "entries": [],
        },
        indent=2,
    )
    if not rows:
        return text
    m_list = "[\n" + ",\n".join(["        %d"] * n) + "\n      ]" if n else "[]"
    entry = '    {\n      "m": ' + m_list + ',\n      "I": %d\n    }'
    body = ",\n".join([entry % row for row in rows])
    return text[: -len("[]\n}")] + "[\n" + body + "\n  ]\n}"


def _census_csv(rows: list, n: int) -> str:
    """Rows m_1..m_n, I, J0, mod2, each from one template filled with the
    walk's flat row (m_1, ..., m_n, I, J0).  The walk carries I - J0 down its
    search as it carries I.  The rows are checked generators of an
    all-elliptic system, so mod2, which counts positive-hyperbolic orbits,
    is 0."""
    header = ",".join([f"m_{i + 1}" for i in range(n)] + ["I", "J0", "mod2"])
    row = "%d," * (n + 2) + "0\n"
    return header + "\n" + "".join([row % r for r in rows])


def _cmd_census(args: argparse.Namespace) -> int:
    system = _load_system_arg(args)
    if args.box is None:
        box = None
    else:  # --box "" is the empty box, the only box of a system with no orbits
        box = tuple(int(v) for v in args.box.split(",")) if args.box else ()
    as_csv = args.format == "csv"
    lattice_index, recorded_box, rows = census_mod.census_rows(
        system, args.imax, box, j0=as_csv
    )
    if as_csv:
        _emit(args, _census_csv(rows, system.n))
    else:
        _emit(args, _census_json(args.imax, lattice_index, recorded_box, rows, system.n))
    return EXIT_OK


def _cmd_ellipsoid_verify(args: argparse.Namespace) -> int:
    phi1 = parse_exact(args.phi1)
    outcome = census_mod.ellipsoid_verify(phi1, args.imax)
    payload = {
        "phi1": phi1.to_json(),
        "imax": args.imax,
        "passed": outcome.passed,
        "generators": outcome.generator_count,
        "first_discrepancy": outcome.first_discrepancy,
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION_FAILED


def _cmd_growth(args: argparse.Namespace) -> int:
    system = _load_system_arg(args)
    samples_text = args.samples
    if ":" in samples_text:
        parts = [int(v) for v in samples_text.split(":")]
        if len(parts) != 3 or parts[0] < 2 or min(parts[1:]) < 1:
            raise ValueError("--samples count:lo:hi needs count >= 2 and lo, hi >= 1")
        count, lo, hi = parts
        ks = sorted(
            {round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count)}
        )
    else:
        ks = [int(v) for v in samples_text.split(",")]
    fit = census_mod.growth_exponent(system, ks)
    payload = {
        "samples": list(fit.samples),
        "counts": list(fit.counts),
        "exponent": fit.exponent,
        "max_residual": fit.max_residual,
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_stheta(args: argparse.Namespace) -> int:
    theta = parse_exact(args.theta)
    bound = args.max
    emit = args.emit
    if emit == "members":
        rows = [[q] for q in stheta.s_theta_up_to(theta, bound)]
        _emit(args, _csv_text(["q"], rows))
    elif emit == "densities":
        rows = [
            [n, f"{dens.numerator}/{dens.denominator}", float(dens)]
            for n, dens in stheta.density_profile(theta, bound, args.samples)
        ]
        _emit(args, _csv_text(["n", "density_exact", "density"], rows))
    elif emit == "semiconvergents":
        rows = [
            [frac.denominator, frac.numerator, f"{frac.numerator}/{frac.denominator}"]
            for frac in stheta.semiconvergents_above(theta, bound)
        ]
        _emit(args, _csv_text(["q", "ceil_q_theta", "fraction"], rows))
    else:
        raise ValueError(f"unknown emission {emit!r}")
    return EXIT_OK


def _cmd_zeta_check(args: argparse.Namespace) -> int:
    genus = args.genus
    matrix = json.loads(args.matrix or "[]")
    periods = tuple(int(v) for v in args.periods.split(",")) if args.periods else ()
    instance = lefschetz.ZetaInstance(genus, matrix, periods)
    outcome = lefschetz.zeta_identity_check(instance, args.degree)
    payload = {
        "genus": genus,
        "periods": list(periods),
        "passed": outcome.passed,
        "first_failing_power": outcome.first_failing_power,
        "detail": outcome.detail,
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION_FAILED


def _cmd_zeta_solve(args: argparse.Namespace) -> int:
    solutions = lefschetz.zeta_solve(args.gmax, args.psum, args.trace_bound)
    payload = [
        {
            "genus": s.genus,
            "trace": s.trace,
            "det": s.det,
            "periods": list(s.periods),
        }
        for s in solutions
    ]
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


_PERIOD_ROW = '    {\n      "p": %d,\n      "kind": "%s",\n      "count": %s\n    }'


def _torus_json(tm: lefschetz.AffineTorusMap, p_max: int,
                report: lefschetz.TorusOrbitReport) -> str:
    """The report as json.dumps(payload, indent=2) lays it out: the header
    through json.dumps, each period row from one template, with null for a
    row that has no count."""
    text = json.dumps(
        {
            "A": [list(r) for r in tm.matrix],
            "b": [v.to_json() for v in tm.translation],
            "pmax": p_max,
            "verdict": report.verdict,
            "first_period": report.first_period,
            "periods": [],
        },
        indent=2,
    )
    body = ",\n".join([
        _PERIOD_ROW % (p, r.kind, "null" if r.count is None else r.count)
        for p, r in report.rows
    ])
    return text[: -len("[]\n}")] + "[\n" + body + "\n  ]\n}"


def _cmd_torus_map(args: argparse.Namespace) -> int:
    if args.preset:
        tm = load_torus_preset(args.preset)
    else:
        if args.A is None or args.b is None:
            raise ValueError("torus-map needs --A and --b unless --preset is given")
        matrix = json.loads(args.A)
        translation = [parse_exact(v) for v in _split_top_level(args.b)]
        tm = lefschetz.AffineTorusMap.build(matrix, translation)
    report = lefschetz.torus_orbit_report(tm, args.pmax)
    # a hyperbolic map's counts pass CPython's 4,300-digit limit on int to
    # str near p = 6,300; the counts are exact, so print them in full
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = _torus_json(tm, args.pmax, report)
    finally:
        sys.set_int_max_str_digits(limit)
    _emit(args, text)
    return EXIT_OK


def _cmd_preset_list(args: argparse.Namespace) -> int:
    payload = [
        {"name": n, "kind": "orbit-system" if n in SYSTEM_PRESETS else "torus-map"}
        for n in preset_names()
    ]
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


_HANDLERS = {
    "index": _cmd_index,
    "census": _cmd_census,
    "ellipsoid-verify": _cmd_ellipsoid_verify,
    "growth": _cmd_growth,
    "stheta": _cmd_stheta,
    "zeta-check": _cmd_zeta_check,
    "zeta-solve": _cmd_zeta_solve,
    "torus-map": _cmd_torus_map,
    "preset-list": _cmd_preset_list,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echlab",
        description="Exact index combinatorics of embedded-orbit systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="index report for one generator")
    p.add_argument("--system", help="orbit-system JSON file")
    p.add_argument("--preset", help="orbit-system preset name")
    p.add_argument("--m", required=True, help="comma-separated multiplicities")
    p.add_argument("--out")

    p = sub.add_parser("census", help="enumerate generators by index")
    p.add_argument("--system")
    p.add_argument("--preset")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--box", help="comma-separated per-orbit bounds")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("ellipsoid-verify", help="one generator per even index check")
    p.add_argument("--phi1", required=True)
    p.add_argument("--imax", type=int, default=200)
    p.add_argument("--out")

    p = sub.add_parser("growth", help="growth exponent of the census count")
    p.add_argument("--system")
    p.add_argument("--preset")
    p.add_argument(
        "--samples",
        required=True,
        help="comma-separated cutoffs, or count:lo:hi for log-spaced cutoffs",
    )
    p.add_argument("--out")

    p = sub.add_parser("stheta", help="approximation-set members and densities")
    p.add_argument("--theta", required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--emit", choices=("members", "densities", "semiconvergents"),
                   default="members")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--out")

    p = sub.add_parser("zeta-check", help="zeta product identity check")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--matrix", help="JSON 2g x 2g integer matrix")
    p.add_argument("--periods", help="comma-separated orbit periods")
    p.add_argument("--degree", type=int)
    p.add_argument("--out")

    p = sub.add_parser("zeta-solve", help="solve the zeta degree constraint")
    p.add_argument("--gmax", type=int, required=True)
    p.add_argument("--psum", type=int, required=True)
    p.add_argument("--trace-bound", type=int, default=5)
    p.add_argument("--out")

    p = sub.add_parser("torus-map", help="periodic points of an affine torus map")
    p.add_argument("--preset")
    p.add_argument("--A", help="JSON 2x2 integer matrix")
    p.add_argument("--b", help="comma-separated exact reals")
    p.add_argument("--pmax", type=int, default=100)
    p.add_argument("--out")

    sub.add_parser("preset-list", help="list shipped presets")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (EchlabError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
