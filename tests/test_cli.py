"""CLI dispatch, exit codes, round-trips, determinism."""

import csv
import io
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from echlab import census as census_mod
from echlab import cli, indices, lefschetz
from echlab.census import enumerate_generators
from echlab.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFICATION_FAILED, main, parse_exact
from echlab.errors import EchlabError
from echlab.exactreal import make_exact
from echlab.orbits import (
    ELLIPTIC,
    Homology,
    Orbit,
    OrbitSystem,
    system_from_json,
    system_to_json,
    validate_system,
)
from echlab.presets_io import SYSTEM_PRESETS, TORUS_PRESETS, load_system_preset, load_torus_preset

from test_census import _ORACLE_CUTOFF, random_census_system
from test_indices import j0_oracle
from test_lefschetz import random_torus_map


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_exact_shorthands():
    assert parse_exact("sqrt2") == make_exact((0, 1, 1, 2))
    assert parse_exact("golden") == make_exact((1, 1, 2, 5))
    assert parse_exact("sqrt12") == make_exact((0, 2, 1, 3))
    assert parse_exact("7/3") == make_exact((7, 3))
    assert parse_exact('{"kind": "quadratic", "p": 0, "q": 1, "r": 2, "d": 2}') == make_exact(
        (0, 1, 2, 2)
    )
    with pytest.raises(ValueError):
        parse_exact("nonsense")


def test_parse_exact_negated_shorthands():
    for name in ("sqrt2", "sqrt3", "sqrt5", "sqrt12", "sqrt7", "golden", "1/sqrt2", "sqrt2m1"):
        assert parse_exact("-" + name) == -parse_exact(name), name
    for text in ("--sqrt2", "-", "- sqrt2", "+sqrt2", "sqrt\u00b2", "-sqrt"):
        with pytest.raises(ValueError, match="cannot parse exact real"):
            parse_exact(text)


def test_ellipsoid_verify_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "ellipsoid-verify", "--phi1", "sqrt2", "--imax", "200")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


def test_failed_ellipsoid_verification_exits_one(capsys, monkeypatch):
    real = census_mod.enumerate_generators

    def dropped(system, i_max, box=None):
        result = real(system, i_max, box)
        return replace(result, entries=result.entries[:-1])

    monkeypatch.setattr(census_mod, "enumerate_generators", dropped)
    code, out, err = run_cli(capsys, "ellipsoid-verify", "--phi1", "sqrt2", "--imax", "20")
    assert code == EXIT_VERIFICATION_FAILED and err == ""
    payload = json.loads(out)
    assert payload["passed"] is False and payload["generators"] == 10
    assert payload["first_discrepancy"] == "missing index 20"


def test_index_report(capsys):
    code, out, _ = run_cli(capsys, "index", "--preset", "ellipsoid-sqrt2", "--m", "1,1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["I"] == 8 and payload["J0"] == 0


def test_census_refusal_is_input_error(capsys, tmp_path):
    system = load_system_preset("ellipsoid-sqrt2")
    obj = system_to_json(system)
    obj["linking"] = [[0, -2], [-2, 0]]  # indefinite form
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "census", "--system", str(path), "--imax", "10")
    assert code == EXIT_INPUT_ERROR
    assert "certificate" in err


def test_census_of_the_empty_system(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"orbits": [], "linking": [], "homology": []}))
    code, out, _ = run_cli(capsys, "census", "--system", str(path), "--imax", "5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["entries"] == [{"m": [], "I": 0}]
    assert payload["box"] is None and payload["complete"] is True
    code, out, err = run_cli(
        capsys, "census", "--system", str(path), "--imax", "5", "--box", "3,-4"
    )
    assert code == EXIT_INPUT_ERROR and out == ""
    assert "nonnegative bound per orbit" in err


def test_census_empty_box_needs_a_system_without_orbits(capsys):
    for fmt in ("json", "csv"):
        code, out, err = run_cli(
            capsys, "census", "--preset", "lens3", "--imax", "10", "--box", "", "--format", fmt
        )
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err == "error: box must give a nonnegative bound per orbit\n"


def test_census_refuses_hyperbolic_and_infinite_order_systems(capsys, tmp_path):
    code, _, err = run_cli(capsys, "census", "--preset", "eh-system", "--imax", "10")
    assert code == EXIT_INPUT_ERROR
    assert err == "error: orbit h is hyperbolic; the census covers all-elliptic systems\n"
    obj = system_to_json(load_system_preset("ellipsoid-sqrt2"))
    obj["homology"] = [0]
    obj["orbits"][0]["class"], obj["orbits"][1]["class"] = [1], [0]
    path = tmp_path / "free.json"
    path.write_text(json.dumps(obj))
    for fmt in ("json", "csv"):
        code, out, err = run_cli(
            capsys, "census", "--system", str(path), "--imax", "10", "--format", fmt
        )
        assert code == EXIT_INPUT_ERROR and out == ""
        assert "orbit short is not torsion" in err


def test_census_csv_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--preset", "lens3", "--imax", "40", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m_1,m_2,I,J0,mod2"
    assert lines[1] == "0,0,0,0,0"


def test_census_csv_j0_matches_defining_sum(capsys):
    for preset, imax in (("lens3", "200"), ("n3", "300")):
        code, out, _ = run_cli(
            capsys, "census", "--preset", preset, "--imax", imax, "--format", "csv"
        )
        assert code == EXIT_OK
        system = load_system_preset(preset)
        rows = out.strip().splitlines()[1:]
        assert len(rows) > 20
        for line in rows:
            *m, _, j0, mod2 = (int(v) for v in line.split(","))
            assert j0 == j0_oracle(system, m), (preset, m)
            assert mod2 == 0


def test_census_json_reparses(capsys):
    code, out, _ = run_cli(capsys, "census", "--preset", "ellipsoid-sqrt2", "--imax", "12")
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["entries"][0] == {"m": [0, 0], "I": 0}


def test_zeta_solve(capsys):
    code, out, _ = run_cli(capsys, "zeta-solve", "--gmax", "3", "--psum", "6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 2


def test_zeta_check_fail_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "zeta-check", "--genus", "0", "--periods", "2", "--degree", "4"
    )
    assert code == EXIT_VERIFICATION_FAILED
    assert json.loads(out)["first_failing_power"] == 1


@pytest.mark.parametrize(
    "matrix", ["[[1.9,0],[0.5,1]]", "[[true,0],[0,true]]", '[["1",0],[0,1]]']
)
def test_zeta_check_non_integer_matrix_is_an_input_error(capsys, matrix):
    code, out, err = run_cli(capsys, "zeta-check", "--genus", "1", "--matrix", matrix)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: matrix entries must be integers\n"


@pytest.mark.parametrize("matrix", ["[1,2]", "5", "[[1,0],[0]]", "[[1,0,0],[0,1,0]]"])
def test_zeta_check_misshapen_matrix_is_an_input_error(capsys, matrix):
    code, out, err = run_cli(capsys, "zeta-check", "--genus", "1", "--matrix", matrix)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: matrix must be 2g x 2g\n"


def test_zeta_check_degree_zero_is_an_input_error(capsys):
    code, out, err = run_cli(
        capsys, "zeta-check", "--genus", "0", "--periods", "1,1", "--degree", "0"
    )
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: degree must be at least 2\n"


def test_torus_map_preset(capsys):
    code, out, _ = run_cli(capsys, "torus-map", "--preset", "irrational-rotation", "--pmax", "12")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["first_period"] is None


def test_torus_map_inline(capsys):
    code, out, _ = run_cli(
        capsys, "torus-map", "--A", "[[2,1],[1,1]]", "--b", "0,0", "--pmax", "2"
    )
    payload = json.loads(out)
    assert payload["periods"][0]["count"] == 1


def test_torus_map_inline_json_translation(capsys):
    code, out, err = run_cli(
        capsys,
        "torus-map",
        "--A",
        "[[1,1],[0,1]]",
        "--b",
        '{"kind":"quadratic","p":1,"q":1,"r":2,"d":5},0',
        "--pmax",
        "3",
    )
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["b"] == [
        {"kind": "quadratic", "p": 1, "q": 1, "r": 2, "d": 5},
        {"kind": "rational", "num": 0, "den": 1},
    ]


def test_torus_map_negated_shorthand_translation(capsys):
    argv = ("torus-map", "--A", "[[1,1],[0,1]]", "--b=sqrt2,-sqrt2", "--pmax", "4")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["b"] == [
        {"kind": "quadratic", "p": 0, "q": 1, "r": 1, "d": 2},
        {"kind": "quadratic", "p": 0, "q": -1, "r": 1, "d": 2},
    ]
    sqrt2 = make_exact((0, 1, 1, 2))
    tm = lefschetz.AffineTorusMap.build([[1, 1], [0, 1]], [sqrt2, -sqrt2])
    assert (code, out, err) == torus_oracle(tm, 4)


def test_torus_map_prints_counts_past_the_int_digit_limit(capsys):
    # |2 - tr(A^p)| passes 4,300 digits near p = 6,300; the setting the
    # caller had is back in place after main returns
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, err = run_cli(
            capsys, "torus-map", "--A", "[[5,-1],[1,0]]", "--b", "0,0", "--pmax", "6500"
        )
        assert sys.get_int_max_str_digits() == 5000
        assert (code, err) == (EXIT_OK, "")
        sys.set_int_max_str_digits(0)
        tm = lefschetz.AffineTorusMap.build([[5, -1], [1, 0]], [make_exact(0), make_exact(0)])
        assert (code, out, err) == torus_oracle(tm, 6500)
        traces = [2, 5]  # tr(A^p) = 5 tr(A^(p-1)) - tr(A^(p-2))
        while len(traces) <= 6500:
            traces.append(5 * traces[-1] - traces[-2])
        rows = json.loads(out)["periods"]
        assert [row["count"] for row in rows] == [abs(2 - t) for t in traces[1:]]
        assert len(str(rows[-1]["count"])) > 4300
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("given", [("--b", "0,0"), ("--A", "[[1,1],[0,1]]")])
def test_torus_map_missing_matrix_or_translation_names_the_flags(capsys, given):
    code, out, err = run_cli(capsys, "torus-map", *given, "--pmax", "5")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: torus-map needs --A and --b unless --preset is given\n"


_SHAPE_ERROR = "torus maps are 2 x 2 with a length-2 translation"
_ENTRY_ERROR = "torus map matrix entries must be integers"


@pytest.mark.parametrize(
    "matrix, message",
    [
        ("[[1,1],[0]]", _SHAPE_ERROR),
        ("[[1,1,0],[0,1,0]]", _SHAPE_ERROR),
        ("[1,2]", _SHAPE_ERROR),
        ("5", _SHAPE_ERROR),
        ("[[1.5,0],[0.9,1]]", _ENTRY_ERROR),
        ("[[true,0],[0,true]]", _ENTRY_ERROR),
        ('[["1",0],[0,1]]', _ENTRY_ERROR),
    ],
)
def test_torus_map_malformed_matrix_is_an_input_error(capsys, matrix, message):
    code, out, err = run_cli(capsys, "torus-map", "--A", matrix, "--b", "0,0", "--pmax", "3")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


def test_index_of_the_empty_generator(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"orbits": [], "linking": [], "homology": []}))
    code, out, err = run_cli(capsys, "index", "--system", str(path), "--m", "")
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["m"] == [] and payload["I"] == payload["J0"] == 0
    assert payload["envelope"] == [0, 0]
    code, out, err = run_cli(capsys, "index", "--preset", "lens3", "--m", "")
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == "error: dimension mismatch\n"


def torus_oracle(tm, pmax):
    """(exit code, stdout, stderr) of torus-map written through
    json.dumps(payload, indent=2)."""
    try:
        report = lefschetz.torus_orbit_report(tm, pmax)
    except ValueError as exc:
        return EXIT_INPUT_ERROR, "", f"error: {exc}\n"
    payload = {
        "A": [list(r) for r in tm.matrix],
        "b": [v.to_json() for v in tm.translation],
        "pmax": pmax,
        "verdict": report.verdict,
        "first_period": report.first_period,
        "periods": [{"p": p, "kind": r.kind, "count": r.count} for p, r in report.rows],
    }
    return EXIT_OK, json.dumps(payload, indent=2) + "\n", ""


def test_torus_map_output_matches_oracle(capsys):
    rng = random.Random(31)
    cases = [(("--preset", name), load_torus_preset(name)) for name in TORUS_PRESETS]
    for family in ("finite-order", "parabolic", "hyperbolic") * 3:
        tm = random_torus_map(rng, family)
        b = ",".join(json.dumps(v.to_json()) for v in tm.translation)
        cases.append((("--A", json.dumps([list(r) for r in tm.matrix]), "--b", b), tm))
    seen = set()
    for source, tm in cases:
        for pmax in (0, 1, 2, 60):
            got = run_cli(capsys, "torus-map", *source, "--pmax", str(pmax))
            assert got == torus_oracle(tm, pmax), (source, pmax)
            for row in json.loads(got[1])["periods"] if got[0] == EXIT_OK else ():
                seen.add(row["kind"])
                if row["count"] is None or row["count"] > 2**64:
                    seen.add("null" if row["count"] is None else "above 2**64")
    assert seen == {"none", "count", "positive-dimensional", "null", "above 2**64"}


def test_index_at_huge_multiplicities(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--preset", "ellipsoid-sqrt2", "--m", "1000000000000,1000000000000"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    lo, hi = payload["envelope"]
    assert lo <= payload["I"] <= hi


def test_stheta_members_csv(capsys):
    code, out, _ = run_cli(capsys, "stheta", "--theta", "sqrt2m1", "--max", "12")
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["q", "1", "2", "7", "12"]


def test_stheta_semiconvergents_csv(capsys):
    code, out, _ = run_cli(
        capsys, "stheta", "--theta", "sqrt2m1", "--max", "12", "--emit", "semiconvergents"
    )
    rows = out.strip().splitlines()
    assert rows[1].startswith("1,1")
    assert rows[-1].split(",")[0] == "12"


def test_preset_list(capsys):
    code, out, _ = run_cli(capsys, "preset-list")
    names = {entry["name"] for entry in json.loads(out)}
    assert {"ellipsoid-sqrt2", "lens3", "eh-system", "anosov"} <= names


def test_unknown_preset_is_input_error(capsys):
    code, _, err = run_cli(capsys, "index", "--preset", "nope", "--m", "1")
    assert code == EXIT_INPUT_ERROR


def test_growth_command(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "--preset", "ellipsoid-sqrt2", "--samples", "8:200:1000"
    )
    payload = json.loads(out)
    assert abs(payload["exponent"] - 1.0) < 0.1


@pytest.mark.parametrize(
    "samples", ["1:5:10", "2:0:10", "4:-5:10", "4:5:-10", "0:5:10", "4:5", "4:5:6:7"]
)
def test_growth_bad_sample_range_is_an_input_error(capsys, samples):
    code, out, err = run_cli(
        capsys, "growth", "--preset", "ellipsoid-sqrt2", "--samples", samples
    )
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == "error: --samples count:lo:hi needs count >= 2 and lo, hi >= 1\n"


def test_output_file_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main(["census", "--preset", "lens3", "--imax", "30", "--out", str(path)])
        assert code == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_system_json_round_trip():
    system = load_system_preset("lens3")
    assert system_from_json(system_to_json(system)) == system


def census_oracle(system, imax, box, fmt):
    """(exit code, stdout, stderr) of the census command written through the
    general encoders: json.dumps(payload, indent=2), and csv.writer rows with
    one index_residual call per row."""
    try:
        result = enumerate_generators(system, imax, box)
    except (EchlabError, ValueError) as exc:
        return EXIT_INPUT_ERROR, "", f"error: {exc}\n"
    if fmt == "csv":
        compiled = indices.compile_system(system)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"m_{i + 1}" for i in range(system.n)] + ["I", "J0", "mod2"])
        writer.writerows(
            list(m) + [value, value - indices.index_residual(compiled, m), 0]
            for m, value in result.entries
        )
        text = buf.getvalue()
    else:
        payload = {
            "imax": result.cutoff,
            "lattice_index": result.lattice_index,
            "box": list(result.box) if result.box is not None else None,
            "complete": result.box is None,
            "entries": [{"m": list(m), "I": value} for m, value in result.entries],
        }
        text = json.dumps(payload, indent=2)
    return EXIT_OK, text if text.endswith("\n") else text + "\n", ""


def random_elliptic_system(rng, n, torsion):
    """n elliptic orbits with positive quadratic or rational phi, eta in
    {0, 1, 2} and linking 0..2, so the quadrant certificate holds; with
    torsion, an H1 factor Z/2..Z/5 and random classes."""
    orders = (rng.randint(2, 5),) if torsion else ()
    orbits = []
    for i in range(n):
        d = rng.choice((1, 2, 3, 5, 7))
        if d == 1:
            phi = make_exact(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        else:
            phi = make_exact((rng.randint(0, 4), rng.randint(1, 3), rng.randint(1, 3), d))
        eta = Fraction(rng.choice((0, 1, 1, 2)))
        classes = tuple(rng.randrange(k) for k in orders)
        orbits.append(Orbit(f"o{i}", ELLIPTIC, eta=eta, phi=phi, homology_class=classes))
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = rng.randint(0, 2)
    return OrbitSystem(tuple(orbits), tuple(map(tuple, linking)), Homology(orders))


def assert_census_matches_oracle(capsys, system, source, imax, box):
    """Both formats, --box given (unless box is None) and omitted."""
    for fmt in ("json", "csv"):
        for bounds in (None, box) if box is not None else (None,):
            argv = ["census", *source, "--imax", str(imax), "--format", fmt]
            if bounds is not None:
                argv += ["--box", ",".join(map(str, bounds))]
            got = run_cli(capsys, *argv)
            assert got == census_oracle(system, imax, bounds, fmt), argv


# cutoffs giving no entry (negative), one (m = 0 alone on every preset) and
# many
_ORACLE_CUTOFFS = (-2, 0, 1, 40, 400)


@pytest.mark.parametrize("preset", SYSTEM_PRESETS)
def test_census_output_matches_oracle_on_presets(capsys, preset):
    system = load_system_preset(preset)
    for imax in _ORACLE_CUTOFFS:
        assert_census_matches_oracle(
            capsys, system, ("--preset", preset), imax, (3,) * system.n
        )


def test_census_output_matches_oracle_on_random_systems(capsys, tmp_path):
    rng = random.Random(13)
    path = tmp_path / "system.json"
    shapes = set()
    for n in (1, 2, 3):
        for torsion in (False, True):
            for imax in (-2, 0, rng.randint(20, 120 // n), rng.randint(20, 120 // n)):
                system = random_elliptic_system(rng, n, torsion)
                path.write_text(json.dumps(system_to_json(system)))
                box = tuple(rng.randint(0, 6) for _ in range(n))
                assert_census_matches_oracle(capsys, system, ("--system", str(path)), imax, box)
                count = len(enumerate_generators(system, imax).entries)
                shapes.add((n, torsion, min(count, 2)))
    # every n, with and without torsion, saw an empty, a one-entry and a
    # many-entry census
    assert len(shapes) == 3 * 2 * 3


def test_census_output_matches_oracle_on_signed_and_half_integer_systems(
    capsys, tmp_path, monkeypatch
):
    """Seeded systems with negative linking, zero or negative phi and
    half-integer eta, read from a system file, with and without --box.  A
    system with eta outside (1/2)Z fails the file's validation, so it
    reaches the census through a preset lookup, which does not validate,
    and the census's own refusal is compared."""
    rng = random.Random(17)
    path = tmp_path / "system.json"
    seen = set()
    for i in range(90):
        system = random_census_system(rng)
        n = system.n
        if n and i % 9 == 0:
            first = replace(system.orbits[0], eta=Fraction(rng.choice((1, -5, 7)), 3))
            system = replace(system, orbits=(first, *system.orbits[1:]))
        path.write_text(json.dumps(system_to_json(system)))
        source = ("--system", str(path))
        if not validate_system(system).ok:
            for fmt in ("json", "csv"):
                code, out, err = run_cli(
                    capsys, "census", *source, "--imax", "9", "--format", fmt
                )
                assert (code, out) == (EXIT_INPUT_ERROR, "")
                assert err.startswith("error: invalid system: orbit o")
            monkeypatch.setattr(cli, "load_system_preset", lambda name: system)
            source = ("--preset", "unvalidated")
        imax = rng.randint(-2, _ORACLE_CUTOFF[n])
        box = tuple(rng.randint(0, 6) for _ in range(n))
        assert_census_matches_oracle(capsys, system, source, imax, box)
        code, out, err = census_oracle(system, imax, box, "csv")
        if code != EXIT_OK:
            seen.add("odd index" if "odd index" in err else err.split(": ")[-1])
        elif out.count("\n") > 2:  # a header and at least two rows
            if any(q < 0 for row in system.linking for q in row):
                seen.add("negative linking")
            if any(orbit.eta.denominator == 2 for orbit in system.orbits):
                seen.add("half-integer eta")
    assert seen == {
        "negative linking", "half-integer eta", "odd index", "eta must lie in (1/2)Z\n"
    }


def test_census_output_matches_oracle_on_the_empty_system(capsys, tmp_path):
    system = OrbitSystem((), (), Homology())
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(system_to_json(system)))
    for imax in (-1, 0, 5):
        assert_census_matches_oracle(capsys, system, ("--system", str(path)), imax, ())
    code, out, _ = run_cli(capsys, "census", "--system", str(path), "--imax", "-1", "--box", "")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "imax": -1, "lattice_index": 1, "box": [], "complete": False, "entries": []
    }
    _, out, _ = run_cli(capsys, "census", "--system", str(path), "--imax", "0")
    assert '"m": []' in out
    _, out, _ = run_cli(capsys, "census", "--system", str(path), "--imax", "-1")
    assert out.endswith('"entries": []\n}\n')


_OUT_COMMANDS = [
    ("index", "--preset", "lens3", "--m", "1,1"),
    ("census", "--preset", "lens3", "--imax", "4"),
    ("census", "--preset", "lens3", "--imax", "40", "--format", "csv"),
    ("ellipsoid-verify", "--phi1", "sqrt2", "--imax", "20"),
    ("growth", "--preset", "ellipsoid-sqrt2", "--samples", "4:50:200"),
    ("stheta", "--theta", "sqrt2m1", "--max", "40"),
    ("stheta", "--theta", "sqrt2m1", "--max", "40", "--emit", "densities", "--samples", "3"),
    ("stheta", "--theta", "sqrt2m1", "--max", "40", "--emit", "semiconvergents"),
    ("zeta-check", "--genus", "0", "--periods", "2", "--degree", "4"),
    ("zeta-solve", "--gmax", "2", "--psum", "4"),
    ("torus-map", "--preset", "anosov", "--pmax", "5"),
]


@pytest.mark.parametrize("argv", _OUT_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_out_file_holds_what_stdout_gets(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    assert out.endswith("\n") and not out.endswith("\n\n")
