import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import sympineq
from sympineq import families, series, spectral
from sympineq.cli import emit, main
from sympineq.majorize import t_transform_pair
from sympineq.vectors import RationalVector

from conftest import SAMPLE_Q, SAMPLE_R


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)

    write("x.json", '[4, "19/10", "11/10"]')
    write("y.json", "[3, 3, 1]")
    write("a.json", "[3, 1]")
    write("b.json", "[2, 2]")
    write("q.json", json.dumps([list(r) for r in SAMPLE_Q]))
    write("r.json", json.dumps([list(r) for r in SAMPLE_R]))
    # first and last rows equal, so the Gram product is singular; r3 flips
    # the sign of entry (3, 2), counted from 1, and stays singular
    singular = [[1, -1, 1, 1], [-2, 2, -1, 2], [2, -2, -2, -2], [1, -1, 1, 1]]
    write("q3.json", json.dumps(singular))
    singular[2][1] = -singular[2][1]
    write("r3.json", json.dumps(singular))
    write("q.csv", "\n".join(",".join(str(v) for v in row) for row in SAMPLE_Q))
    write("c.json", '[1, "1/2"]')
    write("bad.json", "[1, 2,")
    write("negative.json", "[1, -2]")
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@contextlib.contextmanager
def int_max_str_digits(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestNorms:
    def test_defaults(self, capsys, files):
        code, report, _ = run_json(capsys, "norms", "--x", files["x.json"])
        assert code == 0
        assert report["partial_sums_desc"] == ["4", "59/10", "7"]
        by_p = {row["p"]: row["mean"] for row in report["means"]}
        assert by_p[1.0] == pytest.approx(7 / 3)

    def test_explicit_exponents(self, capsys, files):
        code, report, _ = run_json(capsys, "norms", "--x", files["y.json"],
                                   "--p", "inf", "--p", "0")
        assert code == 0
        assert report["means"][0]["mean"] == 3.0

    def test_nan_exponent_is_a_usage_error(self, capsys, files):
        code, out, err = run(capsys, "norms", "--x", files["x.json"],
                             "--p", "nan")
        assert code == 2 and out == ""
        assert "error: bad exponent 'nan'" in err


class TestFkr:
    def test_table(self, capsys, files):
        code, report, _ = run_json(capsys, "fkr", "--x", files["b.json"],
                                   "--r", "2")
        assert code == 0
        assert [row["value"] for row in report["values"]] == \
            ["1", "4", "8", "8", "4"]

    def test_single_k(self, capsys, files):
        code, report, _ = run_json(capsys, "fkr", "--x", files["b.json"],
                                   "--r", "2", "--k", "3")
        assert report["values"] == [
            {"k": 3, "value": "8", "kfact_value": "48"}]

    def test_values_of_any_length(self, capsys, tmp_path):
        # six 500-digit denominators give 6,000-digit ones at k = 12, past
        # the 4,300 digits that str() of an int allows by default
        entries = [Fraction(i + 1, 10 ** 499 + 7 * i + 1) for i in range(6)]
        path = tmp_path / "long.json"
        path.write_text(json.dumps([str(e) for e in entries]))
        code, out, err = run(capsys, "fkr", "--x", str(path), "--r", "2")
        assert (code, err) == (0, "")
        with int_max_str_digits(0):
            values = [Fraction(row["value"]) for row in json.loads(out)["values"]]
        assert values == families.f_kr_all(RationalVector(entries), 2)

    @pytest.mark.parametrize("argv", [
        ("fkr", "--x", "x.json", "--r", "2"),
        ("mellin-validate", "--which", "id1", "--r", "2", "--p", "0.5",
         "--a", "2"),
        ("norms", "--x", "bad.json"),
        ("fkr", "--r", "2")],
        ids=["report", "mellin", "usage-error", "argparse-exit"])
    @pytest.mark.parametrize("limit", [4300, 5000])
    def test_the_callers_digit_limit_comes_back(self, capsys, files, argv,
                                                limit):
        with int_max_str_digits(limit):
            try:
                main([files.get(a, a) for a in argv])
            except SystemExit:
                pass
            assert sys.get_int_max_str_digits() == limit
        capsys.readouterr()


class TestTheorem1:
    def test_matrix_mode_order_two_certifies(self, capsys, files):
        code, report, _ = run_json(
            capsys, "theorem1", "--qx", files["q.json"], "--qy",
            files["r.json"], "--r", "2")
        assert code == 0
        assert report["certified_r"] == 2
        assert report["certified_interval"] == [0.0, 3.0]
        assert report["conclusions"]["low_all_pass"]
        assert report["conclusions"]["high_all_pass"]

    def test_matrix_mode_order_three_fails_with_witness(self, capsys, files):
        code, report, _ = run_json(
            capsys, "theorem1", "--qx", files["q.json"], "--qy",
            files["r.json"], "--r", "3")
        assert code == 1
        failing = [c for c in report["hypotheses"][0]["checks"]
                   if not c["pass"]]
        assert failing == [{
            "k": 10, "fx": "73/216", "fy": "71/216",
            "kfact_fx": "1226400", "kfact_fy": "1192800", "pass": False}]

    def test_matrix_scan_certifies_order_two(self, capsys, files):
        code, report, _ = run_json(
            capsys, "theorem1", "--qx", files["q.json"], "--qy",
            files["r.json"], "--r-max", "3")
        assert code == 1  # the r = 3 hypothesis check fails
        assert report["certified_r"] == 2

    def test_singular_gram_pair_certifies_order_three(self, capsys, files):
        code, report, _ = run_json(
            capsys, "theorem1", "--qx", files["q3.json"], "--qy",
            files["r3.json"], "--r-max", "3")
        assert code == 0
        assert report["certified_r"] == 3
        assert report["conclusions"]["low_all_pass"]
        assert report["conclusions"]["high_all_pass"]
        p0 = report["conclusions"]["low_grid"][0]
        assert (p0["p"], p0["nx"], p0["ny"]) == (0.0, 0.0, 0.0)

    def test_vector_mode(self, capsys, files):
        code, report, _ = run_json(
            capsys, "theorem1", "--x", files["x.json"], "--y",
            files["y.json"], "--r", "3")
        assert code == 0
        assert report["certified_r"] == 3

    def test_csv_matrix_input(self, capsys, files):
        code, report, _ = run_json(
            capsys, "theorem1", "--qx", files["q.csv"], "--qy",
            files["r.json"], "--r", "1")
        assert code == 0

    def test_mode_confusion_rejected(self, capsys, files):
        code, _, err = run(capsys, "theorem1", "--x", files["x.json"],
                           "--r", "1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("order", [["--r-max", "0"], ["--r-max", "-1"],
                                       ["--r", "0"]])
    @pytest.mark.parametrize("mode", [("--x", "x.json", "--y", "y.json"),
                                      ("--qx", "q.json", "--qy", "r.json")])
    def test_orders_below_one_are_usage_errors(self, capsys, files, mode,
                                               order):
        code, out, err = run(capsys, "theorem1", mode[0], files[mode[1]],
                             mode[2], files[mode[3]], *order)
        assert code == 2 and "error:" in err and out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, files, tol):
        code, out, err = run(capsys, "theorem1", "--x", files["a.json"],
                             "--y", files["b.json"], "--r", "1", "--tol", tol)
        assert code == 2 and out == ""
        assert err == "error: tolerance must be positive and finite\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "nan", "tolerance must be positive and finite"),
        ("--grid-points", "2", "need at least 3 grid points")],
        ids=["tol-nan", "grid-points-2"])
    def test_grid_inputs_checked_with_no_order_certified(
            self, capsys, tmp_path, flag, value, message):
        # no order is certified for this pair, so no grid is measured
        (tmp_path / "x.json").write_text("[5, 1]")
        (tmp_path / "y.json").write_text("[1, 1]")
        code, out, err = run(capsys, "theorem1", "--x",
                             str(tmp_path / "x.json"), "--y",
                             str(tmp_path / "y.json"), "--r-max", "2",
                             flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_diagonal_factors_match_the_squared_vectors(self, capsys,
                                                        tmp_path):
        # Gram(diag(d)) = diag(d^2), and both modes share one verdict rule
        paths = {}
        for name, content in (("qx", [[0, 0, 0, 0], [0, 0, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 3]]),
                              ("qy", [[1, 0, 0, 0], [0, 1, 0, 0],
                                      [0, 0, 2, 0], [0, 0, 0, 2]]),
                              ("x", [0, 0, 1, 9]), ("y", [1, 1, 4, 4])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(content))
        code_m, matrices, _ = run_json(capsys, "theorem1", "--qx",
                                       str(paths["qx"]), "--qy",
                                       str(paths["qy"]), "--r-max", "3")
        code_v, vectors, _ = run_json(capsys, "theorem1", "--x",
                                      str(paths["x"]), "--y", str(paths["y"]),
                                      "--r-max", "3")
        assert code_m == code_v
        assert matrices["certified_r"] is not None
        for key in ("hypotheses", "certified_r", "conclusions", "pass"):
            assert matrices[key] == vectors[key]

    def test_one_characteristic_polynomial_per_matrix(self, capsys, files,
                                                      monkeypatch):
        calls = []
        elementary = spectral._elementary

        def counting(am):
            calls.append(len(am))
            return elementary(am)

        monkeypatch.setattr(spectral, "_elementary", counting)
        code, _, _ = run(capsys, "theorem1", "--qx", files["q.json"], "--qy",
                         files["r.json"], "--r-max", "3")
        assert code == 1 and len(calls) == 2
        calls.clear()
        code, _, _ = run(capsys, "spectral", "--q", files["q.json"], "--r",
                         "1", "--r", "2", "--r", "3")
        assert code == 0 and len(calls) == 1


class TestMajorize:
    def test_holds(self, capsys, files):
        code, report, _ = run_json(capsys, "majorize", "--x", files["a.json"],
                                   "--y", files["b.json"])
        assert code == 0 and report["holds"]

    def test_fails_with_witness(self, capsys, files):
        code, report, _ = run_json(capsys, "majorize", "--x", files["x.json"],
                                   "--y", files["y.json"])
        assert code == 1
        assert report["first_violation"] == {
            "k": 2, "x_partial": "59/10", "y_partial": "6"}

    def test_psi_grid(self, capsys, files):
        code, report, _ = run_json(capsys, "majorize", "--x", files["a.json"],
                                   "--y", files["b.json"], "--psi-grid", "1",
                                   "--psi-grid", "2")
        assert [row["holds"] for row in report["psi"]] == [True, True]

    def test_nan_lambda_is_a_usage_error(self, capsys, files):
        code, out, err = run(capsys, "majorize", "--x", files["a.json"],
                             "--y", files["b.json"], "--psi-grid", "NaN")
        assert code == 2 and out == ""
        assert "error: bad exponent 'NaN'" in err


class TestTheorem2:
    def test_majorizing_pair(self, capsys, files):
        code, report, _ = run_json(capsys, "theorem2", "--x", files["a.json"],
                                   "--y", files["b.json"], "--k-max", "6")
        assert code == 0 and report["pass"]

    def test_probe_pair_reports_violations(self, capsys, files):
        code, report, _ = run_json(capsys, "theorem2", "--x", files["x.json"],
                                   "--y", files["y.json"], "--k-max", "12")
        assert code == 1
        assert not report["majorization_holds"]
        assert report["subset_power_family_violation"]["k"] == 11

    def test_large_robin_hood_pair_passes(self, capsys, tmp_path):
        # n = 24 is past every enumeration budget; a valid pair is never a
        # usage error
        x, y = t_transform_pair(random.Random(24), 24)
        assert x != y
        paths = []
        for name, v in (("x24.json", x), ("y24.json", y)):
            path = tmp_path / name
            path.write_text(json.dumps([str(e) for e in v.entries]))
            paths.append(str(path))
        code, report, _ = run_json(capsys, "theorem2", "--x", paths[0],
                                   "--y", paths[1], "--k-max", "8")
        assert code == 0 and report["pass"]
        assert report["distinct_var_family_violation"] is None
        assert report["subset_power_family_violation"] is None
        assert report["cells_checked"] == 36  # r <= k <= 8

    def test_one_subset_power_table_per_vector(self, capsys, files,
                                               monkeypatch):
        calls = []
        build = series.subset_power_table

        def counting(x, *rest):
            calls.append(len(x))
            return build(x, *rest)

        def refused(*args, **kwargs):
            raise AssertionError("theorem2 ran the template product kernel")

        monkeypatch.setattr(series, "subset_power_table", counting)
        monkeypatch.setattr(series, "product_over_vector", refused)
        monkeypatch.setattr(families, "product_over_vector", refused)
        code, _, _ = run(capsys, "theorem2", "--x", files["x.json"], "--y",
                         files["y.json"], "--k-max", "12")
        assert code == 1 and calls == [3, 3]


class TestSpectral:
    def test_gram_pipeline(self, capsys, files):
        code, report, _ = run_json(capsys, "spectral", "--q", files["q.json"],
                                   "--r", "2")
        assert code == 0
        assert report["e_coeffs"] == ["1", "9", "16", "9", "1"]
        table = report["f_tables"]["2"]
        assert [row["kfact_value"] for row in table[2:9]] == \
            ["81", "405", "1524", "4050", "7290", "5670", "2520"]

    def test_requires_exactly_one_input(self, capsys, files):
        code, _, err = run(capsys, "spectral", "--q", files["q.json"],
                           "--matrix", files["q.json"])
        assert code == 2 and "error:" in err


class TestMellinValidate:
    def test_identity_passes(self, capsys):
        code, report, _ = run_json(capsys, "mellin-validate", "--which", "id1",
                                   "--r", "2", "--p", "0.5", "--a", "2")
        assert code == 0
        assert report["relative_error"] < 1e-6
        assert report["target"] == pytest.approx(2 ** 0.5)

    def test_out_of_range_p(self, capsys):
        code, _, err = run(capsys, "mellin-validate", "--which", "id1",
                           "--r", "2", "--p", "1.5", "--a", "2")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        code, out, err = run(capsys, "mellin-validate", "--which", "id1",
                             "--r", "2", "--p", "0.5", "--a", "2",
                             "--tol", tol)
        assert code == 2 and out == ""
        assert err == "error: tolerance must be positive and finite\n"

    @pytest.mark.parametrize("a", ["inf", "nan", "-1"])
    def test_scale_must_be_finite_and_nonnegative(self, capsys, a):
        code, out, err = run(capsys, "mellin-validate", "--which", "id2",
                             "--r", "2", "--p", "1.5", "--a", a)
        assert code == 2 and out == ""
        assert err == "error: need a finite a >= 0\n"


class TestCatalyst:
    def test_comparison_passes(self, capsys, files):
        code, report, _ = run_json(capsys, "catalyst", "--x", files["x.json"],
                                   "--c", files["c.json"], "--y",
                                   files["y.json"])
        assert code == 0 and report["pass"]
        assert len(report["tensor_x"]) == 6
        assert report["degree_bound"] == 6  # n * len(c) * r

    def test_degree_truncates_both_products(self, capsys, files):
        code, report, _ = run_json(capsys, "catalyst", "--x", files["x.json"],
                                   "--c", files["c.json"], "--y",
                                   files["y.json"], "--degree", "2")
        assert code == 0 and report["degree_bound"] == 2
        assert len(report["x_coeffs"]) == len(report["y_coeffs"]) == 3
        assert [row["k"] for row in report["comparison"]] == [0, 1, 2]

    def test_catalyst_head_must_be_one(self, capsys, files, tmp_path):
        bad = tmp_path / "badc.json"
        bad.write_text("[2, 1]")
        code, _, err = run(capsys, "catalyst", "--x", files["x.json"],
                           "--c", str(bad))
        assert code == 2 and "error:" in err


class TestErrorsAndDeterminism:
    @pytest.mark.parametrize("argv", [
        ("theorem1", "--x", "x.json", "--y", "a.json", "--r", "1"),
        ("majorize", "--x", "x.json", "--y", "a.json"),
        ("theorem2", "--x", "x.json", "--y", "a.json"),
        ("catalyst", "--x", "x.json", "--c", "c.json", "--y", "a.json")],
        ids=lambda argv: argv[0])
    def test_unequal_lengths_are_usage_errors(self, capsys, files, argv):
        code, out, err = run(capsys, *(files.get(a, a) for a in argv))
        assert code == 2 and out == ""
        assert err == "error: vectors must have equal length\n"

    def test_malformed_json_diagnoses_position(self, capsys, files):
        code, _, err = run(capsys, "norms", "--x", files["bad.json"])
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_negative_entry_rejected(self, capsys, files):
        code, _, err = run(capsys, "norms", "--x", files["negative.json"])
        assert code == 2 and "nonnegative" in err

    @pytest.mark.parametrize("argv", [["norms"], ["fkr", "--r", "2"],
                                      ["theorem1", "--r", "1", "--y"]],
                             ids=["norms", "fkr", "theorem1"])
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity"])
    def test_infinite_entry_is_a_usage_error(self, capsys, files, tmp_path,
                                             argv, literal):
        path = tmp_path / "inf.json"
        path.write_text(f"[1, {literal}]")
        if argv[0] == "theorem1":
            argv = argv + [files["a.json"]]
        code, out, err = run(capsys, *argv, "--x", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ")

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_contract_violations_are_usage_errors(self, capsys, files):
        code, _, err = run(capsys, "theorem1", "--x", files["a.json"], "--y",
                           files["b.json"], "--r", "1", "--grid-points", "2")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "fkr", "--x", files["a.json"], "--r", "0")
        assert code == 2 and "error:" in err

    def test_reports_are_byte_identical_and_round_trip(self, capsys, files):
        _, out1, _ = run(capsys, "theorem2", "--x", files["a.json"], "--y",
                         files["b.json"], "--k-max", "5")
        _, out2, _ = run(capsys, "theorem2", "--x", files["a.json"], "--y",
                         files["b.json"], "--k-max", "5")
        assert out1 == out2
        parsed = json.loads(out1)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out1
        assert "seed" not in parsed
        # every other report shape: the default norms exponents and
        # --psi-grid inf print -Infinity and Infinity
        outs = {}
        for argv in (("norms", "--x", "x.json"),
                     ("fkr", "--x", "x.json", "--r", "2"),
                     ("theorem1", "--x", "x.json", "--y", "y.json", "--r", "3"),
                     ("theorem1", "--qx", "q.json", "--qy", "r.json", "--r-max", "3"),
                     ("majorize", "--x", "a.json", "--y", "b.json",
                      "--psi-grid", "inf", "--psi-grid", "0.5"),
                     ("spectral", "--q", "q.json", "--r", "1", "--r", "2"),
                     ("catalyst", "--x", "x.json", "--c", "c.json", "--y", "y.json"),
                     ("mellin-validate", "--which", "id1", "--r", "2",
                      "--p", "0.5", "--a", "1.5")):
            argv = [files.get(a, a) for a in argv]
            code, out, err = run(capsys, *argv)
            assert code in (0, 1) and err == "", argv
            assert run(capsys, *argv) == (code, out, err)
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
            outs[argv[0]] = out
        assert '"p": -Infinity' in outs["norms"]
        assert '"lambda": Infinity' in outs["majorize"]

    def test_text_format(self, capsys, files):
        code, out, _ = run(capsys, "--format", "text", "majorize", "--x",
                           files["a.json"], "--y", files["b.json"])
        assert code == 0
        assert "holds: True" in out


def emitted(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(obj, "json")
    return out.getvalue()


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text())
# the rows, checks and value tables of the reports are lists of flat dicts
TREES = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)
                  | st.lists(st.dictionaries(st.text(), SCALARS, max_size=4),
                             max_size=4)),
    max_leaves=24)
SEAM = "},\n      {"


class TestJsonWriter:
    @given(TREES)
    @example({"rows": [{"a": SEAM, SEAM: "},\n", "{[": "]}"},
                       {"q": '"\\', "c": "\x00\x1f\n\t", "u": "\u00e9\u2713",
                        "s": "\ud800"}]})
    @example([{"a": 1}, {}, {"b": [SEAM]}])
    @example({"top": [{"a": 1}, {}], "e": {}, "l": [], "n": [[], {}, [{}]]})
    @example({})
    @example([])
    @example(())
    @example("},\n")
    @example({"f": [0.0, -0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan],
              "rows": [{"p": math.inf, "m": -0.0}, {"p": math.nan, "m": 5e-324}]})
    @example({"b": [True, 0, False, 1], "rows": [{"t": True, "o": 1},
                                                  {"t": False, "o": 0}]})
    @example({"big": [10 ** 4400, -(10 ** 4400)], "rows": [{"v": 10 ** 4400}]})
    def test_matches_json_dumps(self, obj):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert emitted(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        finally:
            sys.set_int_max_str_digits(old)

    def test_same_bytes_without_the_c_accelerator(self, capsys, files):
        argv = ["theorem1", "--x", files["x.json"], "--y", files["y.json"],
                "--r", "3"]
        code, out, _ = run(capsys, *argv)
        script = ("import sys\n"
                  "sys.modules['_json'] = None\n"
                  "import json.encoder\n"
                  "assert json.encoder.c_make_encoder is None\n"
                  "from sympineq.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(sympineq.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
