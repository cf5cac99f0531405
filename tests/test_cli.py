import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sympineq import cli, families, series, spectral, theorem1
from sympineq.cli import emit, main
from sympineq.majorize import t_transform_pair
from sympineq.vectors import RationalVector

from conftest import SAMPLE_Q, SAMPLE_R, run_python


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


@pytest.fixture
def lp_mean_calls(monkeypatch):
    """The exponents of every lp mean taken through the module globals
    ``sympineq.theorem1.lp_mean`` and ``sympineq.cli.lp_mean``, which the
    benchmark's tracer wraps to count them."""
    calls = []
    for module in (theorem1, cli):
        def counting(x, p, original=module.lp_mean):
            calls.append(p)
            return original(x, p)
        monkeypatch.setattr(module, "lp_mean", counting)
    return calls


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

    def test_mean_beyond_the_float_range_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('["1e400", "1"]')
        code, out, err = run(capsys, "norms", "--x", str(path))
        assert (code, out) == (2, "")
        assert err == "error: the lp mean at p=0.5 is beyond the float range\n"

    def test_one_lp_mean_per_exponent(self, capsys, files, lp_mean_calls):
        code, _, _ = run_json(capsys, "norms", "--x", files["x.json"])
        assert code == 0 and len(lp_mean_calls) == 8
        lp_mean_calls.clear()
        code, report, _ = run_json(capsys, "norms", "--x", files["x.json"],
                                   "--p", "0.5", "--p", "-inf", "--p", "3")
        assert code == 0 and lp_mean_calls == [0.5, -math.inf, 3.0]
        assert [row["p"] for row in report["means"]] == lp_mean_calls

    @pytest.mark.parametrize("p, want", [
        ("-inf", -math.inf), ("-INFINITY", -math.inf), ("-1e-3", -0.001),
        ("-2.5E+1", -25.0), ("-.5", -0.5), ("-2", -2.0)])
    def test_negative_exponent_reaches_the_option(self, capsys, files, p, want):
        # argparse alone reads -inf and -1e-3 as options, and exits 2 with
        # "expected one argument"
        code, report, err = run_json(capsys, "norms", "--x", files["x.json"],
                                     "--p", p)
        assert (code, err) == (0, "")
        assert report["means"][0]["p"] == want
        if want == -math.inf:  # the mean at -inf is the smallest entry
            assert report["means"][0]["mean"] == 1.1

    def test_nan_exponent_is_a_usage_error(self, capsys, files):
        code, out, err = run(capsys, "norms", "--x", files["x.json"],
                             "--p", "nan")
        assert code == 2 and out == ""
        assert "error: bad exponent 'nan'" in err

    @pytest.mark.parametrize("values", [["1e160", "1"], ["1e-160", "1"],
                                        ["1e-400", "1"], ["1e-170", "3e-170"]],
                             ids=str)
    def test_extreme_entries(self, capsys, tmp_path, values):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(values))
        code, report, err = run_json(capsys, "norms", "--x", str(path))
        assert code == 0 and err == ""
        assert all(row["mean"] >= 0 for row in report["means"])


    @pytest.mark.parametrize("values, p, want", [
        (["1e400", "1"], "0.001", 3.2394213884199771e244),
        (["1e-400", "1"], "-0.001", 3.0869710361693589e-245),
        (["1e-400", "1"], "0.001", 3.2394213884199771e-156),
        (["1e-400", "1"], "0.01", 7.9678869075676370e-31),
        (["1/3", "1/6", "5", "7/2"], "1e-15", 0.99298202258815811),
        (["1/3", "1/6", "5", "7/2"], "-1e-15", 0.99298202258815811),
        ([2, 8], "5e-324", 4.0)], ids=str)
    def test_means_at_the_edges_of_the_float_range(self, capsys, tmp_path,
                                                   values, p, want):
        # 50-digit references; before the fallback took the exact ratios in
        # log space these printed 9.3e98, 0.0, 9.3e-302, 7.889e-31, 1.0,
        # 1.0 and 1.0
        path = tmp_path / "x.json"
        path.write_text(json.dumps(values))
        code, report, err = run_json(capsys, "norms", "--x", str(path), "--p", p)
        assert (code, err) == (0, "")
        assert report["means"][0]["mean"] == pytest.approx(want, rel=1e-12)

    def test_psi_grid_on_an_entry_beyond_the_float_range(self, capsys, tmp_path):
        (tmp_path / "x.json").write_text('["1e400", "1"]')
        (tmp_path / "y.json").write_text('["1e399", "2"]')
        code, report, err = run_json(capsys, "majorize", "--x",
                                     str(tmp_path / "x.json"), "--y",
                                     str(tmp_path / "y.json"), "--psi-grid", "1")
        assert (code, err) == (1, "")
        assert report["psi"][0]["lhs"] == pytest.approx(923.034037197618, rel=1e-12)


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


class TestFactorialScaledText:
    # the kfact_* fields of the ledgers and F tables
    @given(st.one_of(st.just(0), st.integers(2 ** 300, 2 ** 400)), st.booleans(),
           st.one_of(st.integers(1, 2 ** 350),
                     st.integers(0, 60).map(math.factorial)),
           st.integers(0, 80))
    def test_equals_the_fraction_product(self, numerator, negative, denominator, k):
        q = Fraction(-numerator if negative else numerator, denominator)
        f = math.factorial(k)
        assert cli._times_text(q, f) == str(q * f)


class TestTheorem1:
    @pytest.mark.parametrize("grid_points", [3, 11, 101])
    def test_four_lp_means_per_grid_point(self, capsys, files, lp_mean_calls,
                                          grid_points):
        # x and y on the low grid and on the high grid
        code, report, _ = run_json(capsys, "theorem1", "--x", files["a.json"],
                                   "--y", files["b.json"], "--r", "2",
                                   "--grid-points", str(grid_points))
        assert code == 0 and report["certified_r"] == 2
        assert len(lp_mean_calls) == 4 * grid_points

    def test_default_grids(self, capsys, files):
        # without --grid-points: 101 points on [0, 1] and on [1, r + 1]
        code, report, _ = run_json(capsys, "theorem1", "--x", files["a.json"],
                                   "--y", files["b.json"], "--r", "2")
        grids = report["conclusions"]
        assert code == 0
        assert [pt["p"] for pt in grids["low_grid"]] == \
            [i / 100 for i in range(101)]
        assert [pt["p"] for pt in grids["high_grid"]] == \
            [1 + 2 * i / 100 for i in range(101)]

    def test_entries_whose_powers_overflow(self, capsys, tmp_path):
        # 1e200 ** p overflows a float for p > 1.54 on the high grid
        (tmp_path / "x.json").write_text('["1e200", "3e199", "1"]')
        (tmp_path / "y.json").write_text('["9e199", "4e199", "1"]')
        code, report, err = run_json(capsys, "theorem1", "--r", "1", "--x",
                                     str(tmp_path / "x.json"), "--y",
                                     str(tmp_path / "y.json"))
        assert code == 0 and err == ""
        assert report["conclusions"]["high_all_pass"]

    # a pair that theorem1 certifies at order 2; scaled by 10^9 one low-grid
    # point fails the absolute tolerance, at p = 1 with margin -3.8e-6, where
    # the exact sums are equal
    CERTIFIED_X = ("133/11", "156/11", "58", "404/7", "429/10", "11/10")
    CERTIFIED_Y = ("133/11", "156/11", "58", "404/7", "297/7", "11/7")

    @pytest.mark.parametrize("scale", [1, pytest.param(
        10 ** 9, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP items 2 and 11: the conclusion grid compares "
                   "float means against an absolute tolerance"))])
    def test_certified_pair_passes_at_any_scale(self, capsys, tmp_path, scale):
        for name, entries in (("x", self.CERTIFIED_X), ("y", self.CERTIFIED_Y)):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                [str(Fraction(e) * scale) for e in entries]))
        code, report, _ = run_json(capsys, "theorem1", "--r", "2", "--x",
                                   str(tmp_path / "x.json"), "--y",
                                   str(tmp_path / "y.json"))
        assert report["certified_r"] == 2
        assert code == 0

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
        traces = spectral._traces

        def counting(am):
            calls.append(len(am))
            return traces(am)

        monkeypatch.setattr(spectral, "_traces", counting)
        code, _, _ = run(capsys, "theorem1", "--qx", files["q.json"], "--qy",
                         files["r.json"], "--r-max", "3")
        assert code == 1 and len(calls) == 2
        calls.clear()
        code, _, _ = run(capsys, "spectral", "--q", files["q.json"], "--r",
                         "1", "--r", "2", "--r", "3")
        assert code == 0 and len(calls) == 1

    def test_gram_pair_checks_its_spectral_coefficients(self, capsys, files,
                                                         monkeypatch):
        # a Gram product is PSD, so a negative det(I + tA) coefficient is a
        # fault; the theorem1 route checks it as spectral --q does.  A trace
        # p_1 = -1 gives e_1 = -1
        traces = spectral._traces
        monkeypatch.setattr(spectral, "_traces",
                            lambda am: [len(am), -1, *traces(am)[2:]])
        for argv in (("theorem1", "--qx", files["q.json"], "--qy",
                      files["r.json"], "--r", "2"),
                     ("spectral", "--q", files["q.json"])):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: negative spectral coefficient")


class TestMajorize:
    def test_holds(self, capsys, files):
        code, report, _ = run_json(capsys, "majorize", "--x", files["a.json"],
                                   "--y", files["b.json"])
        assert code == 0 and report["holds"]

    def test_partial_sums_and_the_swapped_pair(self, capsys, files):
        # [3, 1] majorizes [2, 2], and not the other way round
        code, report, _ = run_json(capsys, "majorize", "--x", files["a.json"],
                                   "--y", files["b.json"])
        assert code == 0 and report["x_partial_sums"] == ["3", "4"]
        code, report, _ = run_json(capsys, "majorize", "--x", files["b.json"],
                                   "--y", files["a.json"])
        assert code == 1 and not report["holds"]

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

    def test_negative_lambda_reaches_the_option(self, capsys, files):
        code, out, err = run(capsys, "majorize", "--x", files["a.json"],
                             "--y", files["b.json"], "--psi-grid", "-inf")
        assert (code, out) == (2, "")
        assert err == "error: lambda must be positive\n"


class TestTheorem2:
    def test_majorizing_pair(self, capsys, files):
        code, report, _ = run_json(capsys, "theorem2", "--x", files["a.json"],
                                   "--y", files["b.json"], "--k-max", "6")
        assert code == 0 and report["pass"]

    def test_default_k_max_and_the_swapped_pair(self, capsys, files):
        code, report, _ = run_json(capsys, "theorem2", "--x", files["a.json"],
                                   "--y", files["b.json"])
        assert code == 0 and report["pass"]
        code, report, _ = run_json(capsys, "theorem2", "--x", files["b.json"],
                                   "--y", files["a.json"])
        assert code == 1 and not report["pass"]

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


BEYOND = "a^p or the transform at scale a is beyond the float range at "
BEYOND_1 = "the transform at scale 1 or its window is beyond the float range at "


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

    # the benchmark's tracer wraps these attributes of sympineq.cli, so the
    # command must call each through the module global, loaded or not
    @pytest.mark.parametrize("kernel, which, p", [
        ("identity_lhs", "id1", "0.5"), ("identity_check", "id1", "0.5"),
        ("integral_I", "id1", "0.5"), ("integral_J", "id2", "2.5")])
    def test_kernels_are_called_through_module_globals(self, capsys, monkeypatch,
                                                        kernel, which, p):
        original = getattr(cli, kernel)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, kernel, counting)
        code, _, _ = run(capsys, "mellin-validate", "--which", which, "--r", "2",
                         "--p", p, "--a", "2")
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("argv, message", [
        ("id1 --r 169 --p 0.5 --a 2", None),
        ("id2 --r 169 --p 1.5 --a 2", None),
        ("id2 --r 170 --p 1.5 --a 2", "r must be an integer with 1 <= r <= 169"),
        ("id1 --r 200 --p 0.5 --a 2", "r must be an integer with 1 <= r <= 169"),
        ("id2 --r 2 --p 1.5 --a 1e205", None),
        ("id2 --r 2 --p 2.9 --a 1e110", BEYOND + "a=1e+110, p=2.9"),
        ("id2 --r 2 --p 1.5 --a 1e206", BEYOND + "a=1e+206, p=1.5"),
        ("id2 --r 2 --p 1.5 --a 1e300", BEYOND + "a=1e+300, p=1.5"),
        # at a = 0 only the kernel at scale 1 runs, and a^p is 0
        ("id1 --r 1 --p 1e-300 --a 0", BEYOND_1 + "p=1e-300")])
    def test_float_range_bounds(self, capsys, argv, message):
        code, out, err = run(capsys, "mellin-validate", "--which", *argv.split())
        if message is None:
            assert code == 0 and json.loads(out)["pass"] and err == ""
        else:
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        code, out, err = run(capsys, "mellin-validate", "--which", "id1",
                             "--r", "2", "--p", "0.5", "--a", "2",
                             "--tol", tol)
        assert code == 2 and out == ""
        assert err == "error: tolerance must be positive and finite\n"

    @pytest.mark.parametrize("a", ["inf", "nan", "-1", "-1e-3", "-inf"])
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

    @pytest.mark.parametrize("inputs, argv, message", [
        ({}, ("fkr", "--x", "y.json", "--r", "1", "--k", "99"),
         "k=99 outside 0..3"),
        ({}, ("theorem1", "--qx", "q.json", "--r", "1"),
         "matrix mode needs both --qx and --qy"),
        ({"two.json": "[[1, 2], [3, 4]]", "three.json": "[[1], [2], [3]]"},
         ("theorem1", "--qx", "two.json", "--qy", "three.json", "--r", "1"),
         "factor matrices must have equal row counts"),
        ({}, ("theorem2", "--x", "a.json", "--y", "b.json", "--k-max", "0"),
         "need k_max >= 1"),
        ({}, ("spectral", "--q", "q.json", "--r", "0"), "need r >= 1"),
        ({}, ("catalyst", "--x", "x.json", "--c", "c.json", "--degree", "-1"),
         "degree bound must be nonnegative"),
        ({"empty.json": "[]"}, ("spectral", "--matrix", "empty.json"),
         "empty.json: matrix must be nonempty"),
        ({"bool.json": "[true, 1]"}, ("norms", "--x", "bool.json"),
         "bool.json: booleans are not rational scalars"),
        ({"dict.json": "[{}, 1]"}, ("norms", "--x", "dict.json"),
         "dict.json: cannot interpret {} as an exact rational"),
        ({}, ("norms", "--x", "missing.json"),
         "missing.json: No such file or directory"),
        ({}, ("norms", "--x", "x.json", "--p", "abc"), "bad exponent 'abc'"),
        ({"big.json": '["1e400", "1"]'},
         ("majorize", "--x", "big.json", "--y", "big.json", "--psi-grid", "inf"),
         "the psi sum at lambda=inf is beyond the float range")],
        ids=["fkr-k", "theorem1-qx-alone", "theorem1-row-counts",
             "theorem2-k-max", "spectral-r", "catalyst-degree",
             "spectral-empty", "vector-bool", "vector-dict", "missing-file",
             "exponent-abc", "psi-beyond-the-float-range"])
    def test_input_errors_exit_2(self, capsys, files, tmp_path, monkeypatch,
                                 inputs, argv, message):
        monkeypatch.chdir(tmp_path)  # where files wrote its inputs
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_an_order_below_one_gets_one_message(self, capsys, files):
        # both commands reach the product kernel's own check
        for argv in (("fkr", "--x", files["a.json"], "--r", "0"),
                     ("catalyst", "--x", files["x.json"], "--c", files["c.json"],
                      "--r", "0")):
            assert run(capsys, *argv) == (2, "", "error: need r >= 1\n")

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


LIBRARY = ("vectors", "series", "families", "majorize", "theorem1", "spectral",
           "roots", "oracles", "mellin")


class TestRoutes:
    """Each command in a fresh interpreter where every library module off
    its route is blocked (numpy too, but for mellin-validate): it must print
    what it prints unblocked.  The matrix commands include the singular
    pair."""

    SCRIPT = ("import contextlib, io, json, sys\n"
              "blocked, commands = json.loads(sys.argv[1])\n"
              "for name in blocked:\n"
              "    sys.modules[name] = None\n"
              "from sympineq.cli import main\n"
              "results = []\n"
              "for argv in commands:\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), "
              "contextlib.redirect_stderr(err):\n"
              "        code = main(argv)\n"
              "    results.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(results))\n")

    # (argv, the library modules its route may load, its exit code)
    VECTORS, SERIES = ("vectors",), ("vectors", "series")
    FAMILIES = ("vectors", "series", "families")
    ROUTES = [
        (("norms", "--x", "x.json"), VECTORS, 0),
        (("norms", "--x", "bad.json"), VECTORS, 2),
        (("spectral", "--q", "q.json", "--r", "1", "--r", "2"),
         ("spectral", "roots"), 0),
        (("mellin-validate", "--which", "id1", "--r", "2", "--p", "0.5",
          "--a", "2"), ("mellin",), 0),
        (("fkr", "--x", "x.json", "--r", "2"), FAMILIES, 0),
        (("catalyst", "--x", "x.json", "--c", "c.json", "--y", "y.json"),
         SERIES, 0),
        (("theorem1", "--x", "x.json", "--y", "y.json", "--r", "3"),
         FAMILIES + ("theorem1",), 0),
        (("theorem1", "--qx", "q.json", "--qy", "r.json", "--r-max", "3"),
         FAMILIES + ("theorem1", "spectral", "roots"), 1),
        (("theorem1", "--qx", "q3.json", "--qy", "r3.json", "--r-max", "3"),
         FAMILIES + ("theorem1", "spectral", "roots"), 0),
        (("majorize", "--x", "x.json", "--y", "y.json", "--psi-grid", "0.5"),
         FAMILIES + ("majorize",), 1),
        (("theorem2", "--x", "a.json", "--y", "b.json", "--k-max", "5"),
         FAMILIES + ("majorize",), 0),
        (("theorem2", "--x", "b.json", "--y", "a.json", "--k-max", "5"),
         FAMILIES + ("majorize",), 1),
    ]

    @pytest.mark.parametrize("argv, route, want", ROUTES,
                             ids=[" ".join(argv) for argv, _, _ in ROUTES])
    def test_same_output_with_the_other_modules_blocked(self, capsys, files,
                                                        argv, route, want):
        argv = [files.get(a, a) for a in argv]
        blocked = [f"sympineq.{m}" for m in LIBRARY if m not in route]
        if "mellin" not in route:
            blocked.append("numpy")
        done = run_python(self.SCRIPT, json.dumps([blocked, [argv]]))
        assert (done.returncode, done.stderr) == (0, "")
        [result] = json.loads(done.stdout)
        assert result[0] == want
        assert result == list(run(capsys, *argv))

    def test_mellin_validate_names_the_extra(self):
        argv = ["mellin-validate", "--which", "id1", "--r", "2", "--p", "0.5",
                "--a", "2"]
        done = run_python(self.SCRIPT, json.dumps([["numpy"], [argv]]))
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == [[
            2, "", "error: mellin-validate needs numpy, the 'mellin' extra: "
                   "pip install 'sympineq[mellin]'\n"]]


class TestTracedGlobals:
    """The benchmark's tracer wraps or counts these globals of sympineq.cli,
    so each must be there from import on, keep its name, and be what its
    command calls, loaded or not: once, but lp_mean once for each of norms'
    eight default exponents."""

    COMMANDS = {
        "load_vector": ("norms", "--x", "x.json"),
        "load_matrix": ("spectral", "--q", "q.json"),
        "build_parser": ("norms", "--x", "x.json"),
        "f_kr_all": ("fkr", "--x", "x.json", "--r", "2"),
        "theorem2_scan": ("theorem2", "--x", "a.json", "--y", "b.json"),
        "check_hypotheses": ("theorem1", "--x", "x.json", "--y", "y.json",
                             "--r", "3"),
        "check_hypotheses_coeffs": ("theorem1", "--qx", "q.json", "--qy",
                                    "r.json", "--r", "2"),
        "gram": ("spectral", "--q", "q.json"),
        "identity_lhs": ("mellin-validate", "--which", "id1", "--r", "2",
                         "--p", "0.5", "--a", "2"),
        "identity_check": ("mellin-validate", "--which", "id1", "--r", "2",
                           "--p", "0.5", "--a", "2"),
        "integral_I": ("mellin-validate", "--which", "id1", "--r", "2",
                       "--p", "0.5", "--a", "2"),
        "integral_J": ("mellin-validate", "--which", "id2", "--r", "2",
                       "--p", "2.5", "--a", "2"),
        "lp_mean": ("norms", "--x", "x.json"),
    }
    CALLS = {"lp_mean": 8}

    def test_each_is_there_after_import_under_its_name(self):
        names = sorted(self.COMMANDS)
        done = run_python("import json, sys, sympineq.cli\n"
                          "print(json.dumps([getattr(sympineq.cli, name).__name__"
                          " for name in json.loads(sys.argv[1])]))\n",
                          json.dumps(names))
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == names

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_its_command_calls_it(self, capsys, files, monkeypatch, name):
        original = getattr(cli, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        cli._parser.cache_clear()  # so main builds its parser again
        try:
            code, _, _ = run(capsys, *[files.get(a, a)
                                       for a in self.COMMANDS[name]])
        finally:
            cli._parser.cache_clear()
        assert code == 0 and len(calls) == self.CALLS.get(name, 1)


def emitted(obj, fmt="json"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(obj, fmt)
    return out.getvalue()


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text())
# trees of scalars, lists, tuples and dicts, lists of flat dicts among them
TREES = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)
                  | st.lists(st.dictionaries(st.text(), SCALARS, max_size=4),
                             max_size=4)),
    max_leaves=24)
SEAM = "},\n      {"

# every row shape the commands emit, and the values their fields take
ROW_SHAPES = (cli._GRID, cli._LEDGER, cli._F_TABLE, cli._MEANS, cli._PSI,
              cli._COMPARISON)
ROW_VALUES = (st.floats() | st.sampled_from(
                  [-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan])
              | st.booleans() | st.none()
              | st.integers() | st.sampled_from([10 ** 4400, -(10 ** 4400)])
              | st.fractions().map(str))


@st.composite
def row_objects(draw):
    fields = draw(st.sampled_from(ROW_SHAPES))
    rows = draw(st.lists(st.tuples(*[ROW_VALUES] * len(fields)), max_size=4))
    order = draw(st.permutations(fields))
    return cli._Rows(fields, rows, order=tuple(order))


@st.composite
def nested_rows(draw):
    """A rows object at depth 0 to 3, each level a dict or a list that may
    hold scalars and other rows objects beside it."""
    tree = draw(row_objects())
    for _ in range(draw(st.integers(0, 3))):
        kin = draw(st.lists(SCALARS | row_objects(), max_size=2))
        kin.insert(draw(st.integers(0, len(kin))), tree)
        if draw(st.booleans()):
            keys = draw(st.lists(st.text(max_size=3), min_size=len(kin),
                                 max_size=len(kin), unique=True))
            tree = dict(zip(keys, kin))
        else:
            tree = kin
    return tree


def as_dicts(tree):
    """``tree`` with each rows object replaced by its rows as dicts, keys in
    the rows object's own order."""
    if isinstance(tree, cli._Rows):
        index = [tree.fields.index(key) for key in tree.order]
        return [{key: row[i] for key, i in zip(tree.order, index)}
                for row in tree.rows]
    if isinstance(tree, dict):
        return {key: as_dicts(v) for key, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [as_dicts(v) for v in tree]
    return tree


class TestJsonWriter:
    @pytest.fixture(autouse=True, scope="class")
    def no_digit_limit(self):
        # hypothesis takes the repr of an example, rows of 10^4400 included
        with int_max_str_digits(0):
            yield

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
    @example({"%s": [{"%": "%%", "%d": ["%"]}], "a%": 1})
    def test_matches_json_dumps(self, obj):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert emitted(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        finally:
            sys.set_int_max_str_digits(old)

    @given(nested_rows())
    @example(cli._Rows(cli._GRID, [(-0.0, 5e-324, 1e16, math.inf, None),
                                   (math.nan, 1.0, -1.0, 0.5, True)]))
    @example({"checks": cli._Rows(cli._LEDGER, [
        ("1/3", str(10 ** 400), 10 ** 4400, "-2/7", "0", False)])})
    @example([[{"values": cli._Rows(cli._F_TABLE, [(10 ** 4400, "1", "1/2")]),
                "n": 3}]])
    @example({"a": [{"means": cli._Rows(cli._MEANS, [(0.0, -math.inf)])},
                    cli._Rows(cli._PSI, [])]})
    @example([{"%": cli._Rows(cli._COMPARISON, [("%s", "%%", 0, "%(k)s"),
                                                ("%", "100%", 1, True)])}])
    def test_rows_match_json_dumps_of_their_dicts(self, tree):
        assert emitted(tree) == \
            json.dumps(as_dicts(tree), indent=2, sort_keys=True) + "\n"

    @given(st.dictionaries(st.text(max_size=3),
                           row_objects() | SCALARS | st.lists(
                               st.fixed_dictionaries({"checks": row_objects(),
                                                      "r": st.integers()}),
                               max_size=3),
                           max_size=3))
    def test_text_rows_print_as_their_dicts(self, report):
        # nested in a row, a rows object prints as the repr of its dicts
        assert emitted(report, "text") == emitted(as_dicts(report), "text")

    @pytest.mark.parametrize("fields", [("p", "margin"), ()])
    def test_rows_take_their_fields_sorted(self, fields):
        with pytest.raises(ValueError, match="sorted fields"):
            cli._Rows(fields, [])

    def test_same_bytes_without_the_c_accelerator(self, capsys, files):
        commands = [
            ("theorem1", "--x", "x.json", "--y", "y.json", "--r", "3"),
            ("norms", "--x", "x.json"),
            ("fkr", "--x", "x.json", "--r", "2"),
            ("catalyst", "--x", "x.json", "--c", "c.json", "--y", "y.json"),
            ("majorize", "--x", "a.json", "--y", "b.json",
             "--psi-grid", "0.5", "--psi-grid", "inf"),
            ("spectral", "--q", "q.json", "--r", "1", "--r", "2")]
        commands = [[files.get(a, a) for a in argv] for argv in commands]
        script = ("import sys\n"
                  "sys.modules['_json'] = None\n"
                  "import json.encoder\n"
                  "assert json.encoder.c_make_encoder is None\n"
                  + TestRoutes.SCRIPT)
        done = run_python(script, json.dumps([["numpy"], commands]))
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == [list(run(capsys, *argv))
                                           for argv in commands]
