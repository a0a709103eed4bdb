import io
import json
import math
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from helpers import tridiagonal_gram
from mukai_entropy import _linalg, cli, entropy, orthosearch, spectral
from mukai_entropy.cli import main
from mukai_entropy.lattice import model_from_dict, vector_from_dict
from mukai_entropy.isometries import isometry_from_dict
from mukai_entropy.spectral import charpoly_from_dict, matrix_from_obj

MODEL_D2 = '{"picard_rank":1,"ns_gram":[[4]]}'
SPHERE = '{"r":1,"c":[0],"m":1}'


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_lattice_check_round_trip():
    code, out, err = run_cli("lattice-check", MODEL_D2)
    assert code == 0
    model = model_from_dict(json.loads(out))
    assert model.picard_rank == 1
    assert "ok" in err


def test_lattice_check_rejects_bad_gram():
    code, _, err = run_cli("lattice-check", '{"picard_rank":1,"ns_gram":[[3]]}')
    assert code == 2
    assert "error" in err


def test_pair_command():
    code, out, _ = run_cli(
        "pair", "--lattice", MODEL_D2, "--v", SPHERE,
        "--w", '{"r":1,"c":[-1],"m":3}',
    )
    assert code == 0
    assert json.loads(out) == {"mukai": -4, "euler": 4}


def test_twist_command_emits_readable_isometry():
    code, out, _ = run_cli("twist", "--lattice", MODEL_D2, "--s", SPHERE)
    assert code == 0
    data = json.loads(out)
    model = model_from_dict(json.loads(MODEL_D2))
    action = isometry_from_dict(model, data)
    assert action.apply(vector_from_dict(json.loads(SPHERE))).coords == \
        (-1, 0, -1)


def test_twist_command_rejects_non_spherical():
    code, _, err = run_cli(
        "twist", "--lattice", MODEL_D2, "--s", '{"r":1,"c":[0],"m":-1}'
    )
    assert code == 2 and "square -2" in err


def test_phi_h_reference_matrix():
    code, out, _ = run_cli("phi-h", "--d", "3")
    assert code == 0
    assert out == '{"matrix": [[-3,6,-1],[-1,1,0],[-1,0,0]]}\n'


def test_phi_h_full_isometry():
    code, out, _ = run_cli("phi-h", "--d", "2", "--full", "--lattice", MODEL_D2)
    assert code == 0
    data = json.loads(out)
    model = model_from_dict(json.loads(MODEL_D2))
    isometry_from_dict(model, data)


def test_phi_h_degree_mismatch():
    code, _, err = run_cli("phi-h", "--d", "5", "--lattice", MODEL_D2)
    assert code == 2 and "does not match" in err


def test_char_poly_command():
    code, out, _ = run_cli(
        "char-poly", "--matrix", '{"matrix":[[-5,10,-1],[-1,1,0],[-1,0,0]]}'
    )
    assert code == 0
    assert charpoly_from_dict(json.loads(out)).coeffs == (1, 4, 4, 1)


def test_spectral_radius_command_and_env(monkeypatch):
    code, out, _ = run_cli(
        "spectral-radius", "--matrix", "[[-5,10,-1],[-1,1,0],[-1,0,0]]",
        "--tol", "1e-9",
    )
    assert code == 0
    data = json.loads(out)
    lo, hi = Fraction(data["lo"]), Fraction(data["hi"])
    assert hi - lo <= Fraction(1e-9)
    assert abs(data["value"] - (3 + math.sqrt(5)) / 2) <= 1e-9

    monkeypatch.setenv("MUKAI_ENTROPY_TOL", "1e-3")
    code, out, _ = run_cli(
        "spectral-radius", "--matrix", "[[-5,10,-1],[-1,1,0],[-1,0,0]]"
    )
    assert code == 0
    data = json.loads(out)
    assert Fraction(data["hi"]) - Fraction(data["lo"]) <= Fraction(1e-3)

    monkeypatch.setenv("MUKAI_ENTROPY_TOL", "bogus")
    code, _, err = run_cli(
        "spectral-radius", "--matrix", "[[1]]"
    )
    assert code == 2


def test_non_finite_tolerance_exits_two(monkeypatch):
    for tol in ("inf", "nan"):
        code, _, err = run_cli(
            "spectral-radius", "--matrix", "[[2,1],[1,1]]", "--tol", tol
        )
        assert code == 2 and "error" in err
    # spectral_radius refuses these; the CLI reads the variable as a float
    for tol in ("inf", "nan", "0", "-1e-9"):
        monkeypatch.setenv("MUKAI_ENTROPY_TOL", tol)
        code, out, err = run_cli("spectral-radius", "--matrix", "[[2,1],[1,1]]")
        assert (code, out) == (2, "") and "error" in err


def test_subnormal_tolerance_is_certified(monkeypatch):
    # 8 / tol overflows a float here; the radius is still certified
    for tol in ("1e-320", "5e-324"):
        code, out, _ = run_cli(
            "spectral-radius", "--matrix", "[[2,1],[1,1]]", "--tol", tol
        )
        assert code == 0
        data = json.loads(out)
        assert Fraction(data["hi"]) - Fraction(data["lo"]) <= Fraction(tol)
    monkeypatch.setenv("MUKAI_ENTROPY_TOL", "5e-324")
    code, out, _ = run_cli("spectral-radius", "--matrix", "[[2,1],[1,1]]")
    assert code == 0
    data = json.loads(out)
    assert Fraction(data["hi"]) - Fraction(data["lo"]) <= Fraction(5e-324)


def test_gy_gap_reference_row():
    code, out, _ = run_cli("gy-gap", "--d-min", "5", "--d-max", "5")
    assert code == 0
    assert out == (
        "d,log(d+2),rho,log_rho,gap\n"
        "5,1.94591014906,2.61803398875,0.962423650119,0.983486498936\n"
    )


def test_gy_gap_sweep_ordering():
    code, out, _ = run_cli("gy-gap", "--d-min", "1", "--d-max", "6")
    rows = out.strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]
    assert all(float(row.split(",")[4]) > 0 for row in rows)
    for d_min, d_max in ((3, 1), (0, 5), (-3, 2)):
        code, out, _ = run_cli("gy-gap", f"--d-min={d_min}", f"--d-max={d_max}")
        assert (code, out) == (2, "")


def test_gy_gap_refuses_d_past_cap(monkeypatch):
    code, out, _ = run_cli("gy-gap", "--d-min", str(cli.MAX_GY_D),
                           "--d-max", str(cli.MAX_GY_D))
    assert code == 0 and out.startswith("d,") and len(out.split("\n")) == 3

    def refuse(d):
        raise AssertionError("gy_gap ran before the bounds were checked")

    monkeypatch.setattr(entropy, "gy_gap", refuse)
    for d_min, d_max in ((1, cli.MAX_GY_D + 1), (10 ** 18, 10 ** 18)):
        code, _, err = run_cli("gy-gap", "--d-min", str(d_min),
                               "--d-max", str(d_max))
        assert code == 2 and "at most" in err


def test_gy_gap_row_cap(monkeypatch):
    monkeypatch.setattr(entropy, "gy_gap", None)  # refused before any row
    code, _, err = run_cli("gy-gap", "--d-min", "1",
                           "--d-max", str(cli.MAX_CURVE_ROWS + 1))
    assert code == 2 and "rows" in err


def test_spectral_radius_past_float_range_exits_two():
    code, out, err = run_cli("spectral-radius", "--matrix",
                             "[[1" + "0" * 400 + "]]")
    assert code == 2 and out == "" and "float range" in err
    # the float estimate of this radius is inf
    big = "1" + "0" * 308
    code, out, err = run_cli("spectral-radius", "--matrix",
                             f"[[{big}, {big}], [{big}, {big}]]")
    assert code == 2 and out == "" and "float range" in err
    assert "Traceback" not in err


def test_entropy_curve_reference_rows():
    code, out, _ = run_cli(
        "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
        "--t-min", "-1", "--t-max", "1", "--step", "1",
    )
    assert code == 0
    assert out == "t,h_t,proven\n-1,1,proven\n0,0,proven\n1,0,proven\n"


def test_entropy_curve_unknown_complement_flags():
    # rational grid values with a leading minus need the --flag=value form
    code, out, _ = run_cli(
        "entropy-curve", "--spherical-dim", "3", "--complement", "unknown",
        "--t-min=-1/2", "--t-max", "1/2", "--step", "1/2",
    )
    assert code == 0
    assert out == "t,h_t,proven\n-1/2,1,proven\n0,0,proven\n1/2,0,unproven\n"


def test_entropy_curve_grid_validation():
    code, _, _ = run_cli(
        "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
        "--t-min", "1", "--t-max", "0", "--step", "1",
    )
    assert code == 2
    code, _, _ = run_cli(
        "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
        "--t-min", "0", "--t-max", "1", "--step", "0",
    )
    assert code == 2
    code, _, _ = run_cli(
        "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
        "--t-min", "0", "--t-max", "1", "--step", "bad",
    )
    assert code == 2


def test_entropy_curve_row_cap():
    code, _, err = run_cli(
        "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
        "--t-min", "0", "--t-max", "1", "--step", "1/100000000",
    )
    assert code == 2 and "rows" in err


def test_entropy_curve_huge_rationals_exit_two_quickly():
    limit = sys.get_int_max_str_digits()
    for flag, value in (
        ("--t-min", "-1e5000"),   # exponent past the digit limit
        ("--step", "1e-10000000"),  # would build 10**10000000 first
        ("--step", "0e99999999"),
        ("--t-min", "-1e4000"),   # parsed, but a grid of 10**4000 rows
    ):
        argv = {"--t-min": "-2", "--t-max": "2", "--step": "1", flag: value}
        start = time.perf_counter()
        code, out, err = run_cli(
            "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
            *(f"{k}={v}" for k, v in argv.items()))
        assert time.perf_counter() - start < 5.0, value
        assert (code, out) == (2, ""), value
        assert err.count("\n") == 1 and len(err) < 200, value
    assert f"exponent over {limit}" in run_cli(
        "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
        "--t-min", "-2", "--t-max", "2", "--step", "1e-10000000")[2]
    assert f"more than {cli.MAX_CURVE_ROWS} rows" in err


def test_entropy_curve_refuses_huge_output_quickly():
    # 2001 rows of 4300-digit rationals would print about 17 MB
    t_min = -10 ** 4298
    argv = ("entropy-curve", "--spherical-dim", "2", "--complement", "yes",
            f"--t-min={t_min}", "--step", "1")
    start = time.perf_counter()
    code, out, err = run_cli(*argv, f"--t-max={t_min + 1999}")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: grid output over {cli.MAX_CURVE_CHARS} "
                   "characters; raise --step\n")
    # the same rationals on a few rows are printed
    code, out, _ = run_cli(*argv, f"--t-max={t_min + 2}")
    assert code == 0 and out.count("\n") == 4 and len(out) > 3 * 8600


def test_phi_h_rejects_nonpositive_degree():
    code, _, _ = run_cli("phi-h", "--d", "0")
    assert code == 2


def test_ext_recursion_table_csv():
    code, out, _ = run_cli(
        "ext-recursion", "--d", "2", "--i", "1", "--k", "1", "--n-max", "3",
    )
    assert code == 0
    assert out == (
        "n,top_dim,growth_bound,chi\n"
        "0,10,1,10\n"
        "1,40,4,-20\n"
        "2,160,16,14\n"
        "3,640,64,-4\n"
    )


@pytest.fixture
def digit_limit():
    """Pin the interpreter's int-to-str limit at its default of 4300 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_input_integer_past_digit_limit_exits_two(digit_limit):
    code, out, err = run_cli("char-poly", "--matrix", f"[[{'7' * 5001}]]")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_output_integer_past_digit_limit_exits_two(digit_limit):
    big = "9" * 2500
    code, out, err = run_cli(
        "pair", "--lattice", MODEL_D2, "--v", f'{{"r":{big},"c":[0],"m":1}}',
        "--w", f'{{"r":1,"c":[0],"m":{big}}}',
    )
    assert (code, out) == (2, "")
    assert err == "error: result has more than 4300 digits\n"


def test_entropy_curve_value_past_digit_limit_exits_two(digit_limit):
    t = "-" + "1" * 4295
    code, out, err = run_cli(
        "entropy-curve", "--spherical-dim", "1000000", "--complement", "yes",
        "--t-min", t, "--t-max", t, "--step", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: result has more than 4300 digits\n"


def test_ext_recursion_refuses_huge_degree(digit_limit):
    code, out, err = run_cli(
        "ext-recursion", "--d", "1" * 3001, "--i", "1", "--k", "1",
        "--n-max", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: result has more than 4300 digits\n"


def test_ext_recursion_refuses_long_table_before_building(digit_limit,
                                                          monkeypatch):
    def no_table(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(entropy, "ext_recursion_table", no_table)
    for n_max in ("4500", "10" + "0" * 4000):
        code, out, err = run_cli(
            "ext-recursion", "--d", "10", "--i", "1", "--k", "1",
            "--n-max", n_max,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def no_digit_limit():
    """Switch the interpreter's int-to-str limit off, as PYTHONINTMAXSTRDIGITS=0
    does; Python 3.10 before 3.10.7 has no limit at all."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv", [
    ("ext-recursion", "--d", "1", "--i", "1", "--k", "1", "--n-max", "1000000"),
    # refused by the digit check of row 42 (4301 digits), not the bit bound
    ("ext-recursion", "--d", f"1{'0' * 100}", "--i", "1", "--k", "1",
     "--n-max", "42"),
    ("entropy-curve", "--spherical-dim", "2", "--complement", "yes",
     "--t-min", "1e1000000000", "--t-max", "1e1000000000", "--step", "1"),
], ids=["ext-recursion-n-max", "ext-recursion-top-row", "entropy-curve"])
def test_guards_keep_the_default_limit_without_one(no_digit_limit, argv):
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "4300" in err


def test_ext_recursion_below_the_default_limit_runs_without_one(no_digit_limit):
    code, out, _ = run_cli(
        "ext-recursion", "--d", f"1{'0' * 100}", "--i", "1", "--k", "1",
        "--n-max", "41")   # row 41 has 4201 digits
    assert code == 0 and len(out.splitlines()[-1].split(",")[1]) == 4201


@pytest.mark.parametrize("form", ["inline", "file"])
def test_long_json_integers_exit_two_without_a_limit(no_digit_limit, tmp_path,
                                                     form):
    # int() of such a literal is quadratic in its digits, and pair would
    # print a result twice as long
    vector = '{"r": ' + "7" * 400_000 + ', "c": [0], "m": 1}'
    if form == "file":
        path = tmp_path / "v.json"
        path.write_text(vector, encoding="utf-8")
        vector = str(path)
    start = time.perf_counter()
    code, out, err = run_cli("pair", "--lattice", MODEL_D2, "--v", vector,
                             "--w", SPHERE)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "4300" in err
    # a literal at the limit, sign not counted, is read
    code, out, _ = run_cli("pair", "--lattice", MODEL_D2, "--v",
                           '{"r": -' + "7" * 4300 + ', "c": [0], "m": 1}',
                           "--w", SPHERE)
    assert code == 0 and len(str(json.loads(out)["mukai"])) == 4300


def tridiagonal_model(rho):
    return json.dumps({"picard_rank": rho, "ns_gram": tridiagonal_gram(rho)})


@pytest.mark.parametrize("rho", [21, 320])
def test_models_past_picard_rank_twenty_exit_two_quickly(rho):
    model = tridiagonal_model(rho)
    vector = json.dumps({"r": 1, "c": [0] * rho, "m": 1})
    for argv in (
        ("lattice-check", model),
        ("pair", "--lattice", model, "--v", vector, "--w", vector),
        ("twist", "--lattice", model, "--s", vector),
        ("phi-h", "--d", "2", "--lattice", model),
        ("complement-search", "--lattice", model, "--s", vector),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 0.5, argv[0]
        assert (code, out) == (2, ""), argv[0]
        assert err == f"error: picard_rank {rho} is over 20\n", argv[0]
    assert run_cli("lattice-check", tridiagonal_model(20))[0] == 0


def test_complement_search_command():
    code, out, _ = run_cli(
        "complement-search", "--lattice", MODEL_D2, "--s", SPHERE,
        "--bound", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["v_squared"] == 4
    assert data["twice_square"] == 8
    assert data["is_square"] is False
    vector_from_dict(data["v"])


def test_file_inputs_and_output(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(MODEL_D2)
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(
        "--output", str(out_path), "lattice-check", str(model_path)
    )
    assert code == 0 and out == ""
    model_from_dict(json.loads(out_path.read_text()))
    code, _, err = run_cli("lattice-check", str(tmp_path / "missing.json"))
    assert code == 2


def test_output_to_a_directory_exits_two(tmp_path):
    code, out, err = run_cli(
        "--output", str(tmp_path), "lattice-check", MODEL_D2
    )
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: cannot write {tmp_path}: ")


def test_output_under_a_missing_directory_exits_two(tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli("--output", str(target), "lattice-check", MODEL_D2)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


DEEP_LIST = "[" * 5000 + "]" * 5000


def test_deeply_nested_inline_json_exits_two():
    for argv in (
        ("char-poly", "--matrix", DEEP_LIST),
        ("lattice-check", DEEP_LIST),
        ("pair", "--lattice", MODEL_D2, "--v", DEEP_LIST, "--w", SPHERE),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad inline JSON: ")


def test_deeply_nested_json_file_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_LIST)
    code, out, err = run_cli("char-poly", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad JSON in {path}: ")


def test_non_integer_entry_error_shows_a_short_value():
    # a non-integer entry is named in the message, cut to a few characters
    deep = "[" * 900 + "1" + "]" * 900
    for argv in (
        ("char-poly", "--matrix", f"[[{deep}]]"),
        ("lattice-check", '{"picard_rank":1,"ns_gram":[[%s]]}' % deep),
        ("pair", "--lattice", MODEL_D2, "--v",
         '{"r":%s,"c":[0],"m":1}' % deep, "--w", SPHERE),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert "must be" in err and "integer" in err
        assert err.count("\n") == 1 and len(err) < 200
    code, _, err = run_cli(
        "entropy-curve", "--spherical-dim", "2", "--complement", "yes",
        "--t-min", "-2", "--t-max", "2", "--step", "x" * 5000)
    assert code == 2 and "bad rational number" in err and len(err) < 200


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2


def test_exit_codes_for_certification_and_search_failures(monkeypatch):
    from mukai_entropy.errors import CertificationError, SearchExhaustedError

    def certify_fail(*args, **kwargs):
        raise CertificationError("forced")

    monkeypatch.setattr(spectral, "spectral_radius", certify_fail)
    code, _, err = run_cli("spectral-radius", "--matrix", "[[1]]")
    assert code == 3 and "certification" in err

    def search_fail(*args, **kwargs):
        raise SearchExhaustedError("forced")

    monkeypatch.setattr(orthosearch, "find_positive_orthogonal", search_fail)
    code, _, err = run_cli(
        "complement-search", "--lattice", MODEL_D2, "--s", SPHERE
    )
    assert code == 4 and "search exhausted" in err


def test_byte_determinism():
    for argv in (
        ("gy-gap", "--d-min", "1", "--d-max", "20"),
        ("phi-h", "--d", "7"),
        ("spectral-radius", "--matrix", "[[-9,18,-1],[-1,1,0],[-1,0,0]]"),
        ("entropy-curve", "--spherical-dim", "2", "--complement", "yes",
         "--t-min", "-2", "--t-max", "2", "--step", "1/4"),
        ("complement-search", "--lattice", MODEL_D2, "--s", SPHERE),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


def test_matrix_reader_accepts_both_shapes():
    assert matrix_from_obj([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    code, out, _ = run_cli("char-poly", "--matrix", "[[1,0],[0,1]]")
    assert code == 0 and json.loads(out) == {"coeffs": [1, -2, 1]}


@pytest.mark.parametrize("matrix", ["[[1,2],[3,4]]",
                                    '{"matrix": [[1,2],[3,4]]}'])
def test_char_poly_checks_the_matrix_once(monkeypatch, matrix):
    calls = []
    real = _linalg.to_int_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_linalg, "to_int_matrix", counted)
    code, out, _ = run_cli("char-poly", "--matrix", matrix)
    assert code == 0 and json.loads(out) == {"coeffs": [-2, -5, 1]}
    assert len(calls) == 1


def test_matrix_shape_errors_come_from_the_routines():
    # matrix_from_obj only unwraps; char_poly and spectral_radius refuse
    for command in ("char-poly", "spectral-radius"):
        for matrix in ("[]", '{"matrix": []}', '{"matrix": 5}',
                       '{"matrix": [[1, 2]]}'):
            code, out, err = run_cli(command, "--matrix", matrix)
            assert (code, out) == (2, ""), (command, matrix)
            assert err.startswith("error: ")


def test_non_utf8_json_file_exits_two(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"matrix": [[1]], "label": "\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli("char-poly", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad JSON in {path}: ")
    code, out, err = run_cli("char-poly", "--matrix",
                             str(tmp_path / "missing.json"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {tmp_path / 'missing.json'}: ")


def _square_case_lattice(exponent):
    # no class of the bound-1 box has 2 v^2 non-square, so the search
    # repairs v = (1, 0, -1), of square 2, as N v + u with u = (0, (0, 1), 0)
    # of square -2 10^exponent: N v + u is positive only past
    # N = 10^(exponent / 2)
    return (f'{{"picard_rank": 2, "ns_gram": [[0, 1], '
            f'[1, -2{"0" * exponent}]]}}')


def test_square_case_search_answers_at_the_first_positive_n():
    # N v + u is positive only past N = 10^6, where the repair starts, so
    # its first N already answers: 2 (10^6 + 1)^2 - 2 10^12 = 4 000 002
    start = time.perf_counter()
    code, out, err = run_cli(
        "complement-search", "--lattice", _square_case_lattice(12),
        "--s", '{"r": 1, "c": [0, 0], "m": 1}', "--bound", "1")
    assert time.perf_counter() - start < 4.0
    assert (code, err) == (0, "")
    assert out == ('{"v": {"r": 1000001,"c": [0,1],"m": -1000001},'
                   '"v_squared": 4000002,"twice_square": 8000004,'
                   '"is_square": false}\n')


def test_search_with_no_positive_class_in_the_box_exits_four():
    # the bound-3 box of this model holds no positive class at all
    lattice = '{"picard_rank": 3, "ns_gram": [[4,-6,-6],[-6,4,1],[-6,1,-8]]}'
    code, out, err = run_cli("complement-search", "--lattice", lattice,
                             "--s", '{"r": -2, "c": [0, 5, -3], "m": 0}',
                             "--bound", "3")
    assert (code, out) == (4, "")
    assert err.startswith("search exhausted: no positive orthogonal class")
    assert err.endswith("raise the bound\n")


def test_exhausted_repair_budget_exits_four(monkeypatch):
    # every positive class of the bound-1 box has 2 v^2 a square, so the
    # search goes to the repair, which gets no N at all here
    monkeypatch.setattr(orthosearch, "_PERTURBATION_BUDGET", 0)
    lattice = '{"picard_rank": 3, "ns_gram": [[2,0,0],[0,-4,2],[0,2,-2]]}'
    code, out, err = run_cli("complement-search", "--lattice", lattice,
                             "--s", '{"r": -1, "c": [0, 1, -1], "m": 4}',
                             "--bound", "1")
    assert (code, out) == (4, "")
    assert err == ("search exhausted: perturbation budget exhausted "
                   "without breaking squareness\n")


def test_square_case_search_repairs_at_large_n():
    code, out, err = run_cli(
        "complement-search", "--lattice", _square_case_lattice(11),
        "--s", '{"r": 1, "c": [0, 0], "m": 1}', "--bound", "1")
    assert (code, err) == (0, "")
    assert out == ('{"v": {"r": 316228,"c": [0,1],"m": -316228},'
                   '"v_squared": 295968,"twice_square": 591936,'
                   '"is_square": false}\n')


def test_non_integer_matrix_entries_are_input_errors():
    code, _, err = run_cli("char-poly", "--matrix", "[[1.5]]")
    assert code == 2 and "integer" in err
    code, _, _ = run_cli("spectral-radius", "--matrix", '[[true]]')
    assert code == 2
    code, _, err = run_cli("char-poly", "--matrix", "[1]")
    assert code == 2 and "rows must be lists" in err
    code, _, err = run_cli("lattice-check", '{"picard_rank":1,"ns_gram":null}')
    assert code == 2 and "list of rows" in err
