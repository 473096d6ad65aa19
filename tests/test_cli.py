"""CLI dispatch, exit codes, round-trips, determinism."""

import json

import pytest

from echlab.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFICATION_FAILED, main, parse_exact
from echlab.exactreal import make_exact
from echlab.orbits import system_from_json, system_to_json
from echlab.presets_io import load_system_preset

from test_indices import j0_oracle


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


def test_ellipsoid_verify_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "ellipsoid-verify", "--phi1", "sqrt2", "--imax", "200")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


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
