"""Command-line entry point.

Subcommands: index, census, ellipsoid-verify, growth, stheta, zeta-check,
zeta-solve, torus-map, preset-list.  Verdicts are emitted as JSON; spectra
and densities as CSV.  Exit status: 0 success/pass, 1 verification failure,
2 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
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
    """Accept a shorthand name, sqrtN, an integer, p/q, or inline JSON."""
    text = text.strip()
    if text in _NAMED_REALS:
        return make_exact(_NAMED_REALS[text])
    if text.startswith("sqrt") and text[4:].isdigit():
        return make_exact((0, 1, 1, int(text[4:])))
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


@dataclass
class RunConfig:
    """One resolved invocation: the command, its inputs, where and how to
    write, the numeric knobs, and the seed for any randomized suite."""

    command: str
    input_paths: tuple[str, ...] = ()
    output_path: str | None = None
    fmt: str = "json"
    numbers: dict = field(default_factory=dict)
    strings: dict = field(default_factory=dict)
    seed: int = 0


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_system_arg(config: RunConfig) -> OrbitSystem:
    name = config.strings.get("preset")
    if name:
        return load_system_preset(name)
    if not config.input_paths:
        raise ValueError("a --system file or --preset name is required")
    system = load_system(config.input_paths[0])
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


def _cmd_index(config: RunConfig) -> int:
    system = _load_system_arg(config)
    m = tuple(int(v) for v in config.strings["m"].split(","))
    report = indices.index_report(system, m)
    _emit(config, json.dumps({"m": list(m), **report.to_json()}, indent=2))
    return EXIT_OK


def _cmd_census(config: RunConfig) -> int:
    system = _load_system_arg(config)
    i_max = int(config.numbers["imax"])
    box = config.strings.get("box")
    box_values = tuple(int(v) for v in box.split(",")) if box else None
    result = census_mod.enumerate_generators(system, i_max, box_values)
    if config.fmt == "csv":
        n = system.n
        header = [f"m_{i + 1}" for i in range(n)] + ["I", "J0", "mod2"]
        rows = []
        for m, value in result.entries:
            rows.append(
                list(m)
                + [value, indices.j0_index(system, m), indices.mod2_grading(system, m)]
            )
        _emit(config, _csv_text(header, rows))
    else:
        payload = {
            "imax": result.cutoff,
            "lattice_index": result.lattice_index,
            "box": list(result.box) if result.box else None,
            "complete": result.box is None,
            "entries": [{"m": list(m), "I": value} for m, value in result.entries],
        }
        _emit(config, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_ellipsoid_verify(config: RunConfig) -> int:
    phi1 = parse_exact(config.strings["phi1"])
    i_max = int(config.numbers["imax"])
    outcome = census_mod.ellipsoid_verify(phi1, i_max)
    payload = {
        "phi1": phi1.to_json(),
        "imax": i_max,
        "passed": outcome.passed,
        "generators": outcome.generator_count,
        "first_discrepancy": outcome.first_discrepancy,
    }
    _emit(config, json.dumps(payload, indent=2))
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION_FAILED


def _cmd_growth(config: RunConfig) -> int:
    system = _load_system_arg(config)
    samples_text = config.strings["samples"]
    if ":" in samples_text:
        count, lo, hi = (int(v) for v in samples_text.split(":"))
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
    _emit(config, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_stheta(config: RunConfig) -> int:
    theta = parse_exact(config.strings["theta"])
    bound = int(config.numbers["max"])
    emit = config.strings.get("emit", "members")
    if emit == "members":
        rows = [[q] for q in stheta.s_theta_up_to(theta, bound)]
        _emit(config, _csv_text(["q"], rows))
    elif emit == "densities":
        samples = int(config.numbers.get("samples", 10))
        rows = [
            [n, f"{dens.numerator}/{dens.denominator}", float(dens)]
            for n, dens in stheta.density_profile(theta, bound, samples)
        ]
        _emit(config, _csv_text(["n", "density_exact", "density"], rows))
    elif emit == "semiconvergents":
        rows = [
            [frac.denominator, frac.numerator, f"{frac.numerator}/{frac.denominator}"]
            for frac in stheta.semiconvergents_above(theta, bound)
        ]
        _emit(config, _csv_text(["q", "ceil_q_theta", "fraction"], rows))
    else:
        raise ValueError(f"unknown emission {emit!r}")
    return EXIT_OK


def _cmd_zeta_check(config: RunConfig) -> int:
    genus = int(config.numbers["genus"])
    matrix = json.loads(config.strings.get("matrix") or "[]")
    periods = (
        tuple(int(v) for v in config.strings["periods"].split(","))
        if config.strings.get("periods")
        else ()
    )
    instance = lefschetz.ZetaInstance(
        genus, tuple(tuple(int(v) for v in row) for row in matrix), periods
    )
    degree = int(
        config.numbers.get("degree")
        or max(2, sum(instance.periods), 2 * instance.genus)
    )
    outcome = lefschetz.zeta_identity_check(instance, degree)
    payload = {
        "genus": genus,
        "periods": list(periods),
        "passed": outcome.passed,
        "first_failing_power": outcome.first_failing_power,
        "detail": outcome.detail,
    }
    _emit(config, json.dumps(payload, indent=2))
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION_FAILED


def _cmd_zeta_solve(config: RunConfig) -> int:
    solutions = lefschetz.zeta_solve(
        int(config.numbers["gmax"]),
        int(config.numbers["psum"]),
        int(config.numbers.get("trace_bound", 5)),
    )
    payload = [
        {
            "genus": s.genus,
            "trace": s.trace,
            "det": s.det,
            "periods": list(s.periods),
        }
        for s in solutions
    ]
    _emit(config, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_torus_map(config: RunConfig) -> int:
    name = config.strings.get("preset")
    if name:
        tm = load_torus_preset(name)
    else:
        matrix = json.loads(config.strings["A"])
        translation = [parse_exact(v) for v in _split_top_level(config.strings["b"])]
        tm = lefschetz.AffineTorusMap.build(matrix, translation)
    p_max = int(config.numbers["pmax"])
    report = lefschetz.torus_orbit_report(tm, p_max)
    payload = {
        "A": [list(r) for r in tm.matrix],
        "b": [v.to_json() for v in tm.translation],
        "pmax": p_max,
        "verdict": report.verdict,
        "first_period": report.first_period,
        "periods": [
            {"p": p, "kind": r.kind, "count": r.count} for p, r in report.rows
        ],
    }
    _emit(config, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_preset_list(config: RunConfig) -> int:
    payload = [
        {"name": n, "kind": "orbit-system" if n in SYSTEM_PRESETS else "torus-map"}
        for n in preset_names()
    ]
    _emit(config, json.dumps(payload, indent=2))
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
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    strings = {}
    numbers = {}
    for key, value in vars(args).items():
        if key in ("command", "seed", "out", "system", "format"):
            continue
        if value is None:
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers[key] = value
        else:
            strings[key] = value
    return RunConfig(
        command=args.command,
        input_paths=(args.system,) if getattr(args, "system", None) else (),
        output_path=getattr(args, "out", None),
        fmt=getattr(args, "format", "json"),
        numbers=numbers,
        strings=strings,
        seed=args.seed,
    )


def run(config: RunConfig) -> int:
    handler = _HANDLERS.get(config.command)
    if handler is None:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return handler(config)
    except (EchlabError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
