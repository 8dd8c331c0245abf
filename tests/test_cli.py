import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from perspex.cli import main

GOLDEN = (5.0**0.5 - 1.0) / 2.0


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse flag errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


class TestVolume:
    def test_plpr_equal_two(self):
        report = run_json("volume", "--p", "2", "--l", "0", "--u", "1", "--equal", "2", "--relax", "plpr")
        assert report["volume"] == pytest.approx(0.0625, rel=1e-14)
        assert report["xi"] == [0.0, 0.5, 1.0]

    def test_naive(self):
        report = run_json("volume", "--p", "2", "--l", "0", "--u", "1", "--relax", "nr")
        assert report["volume"] == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_explicit_interior_point(self):
        report = run_json(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--xi", "0.3", "--relax", "plpr"
        )
        assert report["volume"] > 0.0625
        full = run_json(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--xi", "0,0.3,1", "--relax", "plpr"
        )
        assert full["volume"] == report["volume"]

    def test_areas_sum_to_three_volumes(self):
        report = run_json(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--equal", "3", "--relax", "plpr",
            "--areas",
        )
        assert sum(report["triangle_areas"]) == pytest.approx(3.0 * report["volume"], rel=1e-12)

    def test_full_list_must_match_endpoints(self):
        code, _, err = run_cli(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--xi", "0,0.3,0.9", "--relax", "plpr"
        )
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    def test_pl_kind_requires_breakpoints(self):
        code, _, err = run_cli("volume", "--p", "2", "--l", "0", "--u", "1", "--relax", "plpr")
        assert code == 2 and "breakpoints" in err

    def test_non_pl_kind_rejects_breakpoints(self):
        code, _, _ = run_cli(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--relax", "nr", "--equal", "3"
        )
        assert code == 2

    def test_no_quadratic_closed_form_for_other_exponents(self):
        code, _, err = run_cli("volume", "--p", "3", "--l", "0", "--u", "1", "--relax", "nr")
        assert code == 2 and "mc" in err

    def test_mc_cross_check(self):
        report = run_json(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--equal", "2", "--relax", "plpr",
            "--check", "--samples", "50000", "--seed", "3",
        )
        assert report["mc_check"]["sigma_distance"] <= 4.0

    def test_optimized_source_reports_trace(self):
        report = run_json(
            "volume", "--p", "3", "--l", "0", "--u", "1", "--optimize", "2", "--relax", "plpr"
        )
        assert report["xi"][1] == pytest.approx(GOLDEN, abs=1e-9)
        assert report["trace"]["direction"] == "increasing"
        assert report["trace"]["iterations"] >= 1


class TestOptimize:
    def test_golden_root(self):
        report = run_json("optimize", "--p", "3", "--l", "0", "--u", "1", "--n", "2")
        assert report["xi"][1] == pytest.approx(GOLDEN, abs=1e-9)
        assert 1.0 / 3.0 ** 0.5 < report["xi"][1] < 2.0 / 3.0
        assert report["direction"] == "increasing"

    def test_quadratic_fast_path(self):
        report = run_json("optimize", "--p", "2", "--l", "0", "--u", "1", "--n", "5")
        np.testing.assert_allclose(report["xi"], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)
        assert report["iterations"] == 0

    def test_subquadratic_bracket(self):
        report = run_json("optimize", "--p", "1.5", "--l", "0", "--u", "1", "--n", "2")
        assert 1.0 / 3.0 < report["xi"][1] < 4.0 / 9.0

    def test_nonconvergence_exit_code(self):
        code, _, err = run_cli(
            "optimize", "--p", "8", "--l", "0", "--u", "1", "--n", "10", "--max-iter", "1"
        )
        assert code == 3 and err.startswith("error: MaxIterExceeded")


class TestSweep:
    def test_csv_shape_and_monotonicity(self):
        code, out, _ = run_cli("sweep", "--l", "0", "--u", "1", "--n", "5", "--p-grid", "1.5,2,3,5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "xi_1", "xi_2", "xi_3", "xi_4"]
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        assert (np.diff(data[:, 1:], axis=0) > 0.0).all()
        quad = data[np.where(data[:, 0] == 2.0)[0][0], 1:]
        np.testing.assert_allclose(quad, [0.2, 0.4, 0.6, 0.8], atol=1e-10)

    def test_single_entry_grid_matches_equal_spacing(self):
        code, out, _ = run_cli("sweep", "--l", "0", "--u", "1", "--n", "4", "--p-grid", "2")
        rows = list(csv.reader(io.StringIO(out)))
        np.testing.assert_allclose(
            [float(v) for v in rows[1][1:]], [0.25, 0.5, 0.75], atol=1e-12
        )

    def test_json_format(self):
        report = run_json(
            "sweep", "--l", "0", "--u", "1", "--n", "2", "--p-grid", "1.5,3", "--format", "json"
        )
        assert len(report["p"]) == 2 and len(report["xi"][0]) == 1


class TestCompare:
    def test_thresholds_and_table(self):
        report = run_json("compare", "--l", "0", "--u", "1", "--gap", "0.001")
        assert report["n1"] == 7 and report["n2"] == 6
        assert report["ratio"] == pytest.approx(1.225, abs=1e-3)
        table = report["table"]
        assert table["pr"] <= table["plpr"] <= table["nr"]

    def test_rejects_other_exponents(self):
        code, _, _ = run_cli("compare", "--p", "3", "--l", "0", "--u", "1", "--gap", "0.001")
        assert code == 2


class TestMc:
    def test_seed_repetition_is_bit_identical(self):
        args = ("mc", "--p", "2", "--l", "0", "--u", "1", "--relax", "nr",
                "--samples", "50000", "--seed", "42")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second

    def test_check_against_closed_form(self):
        report = run_json(
            "mc", "--p", "2", "--l", "0", "--u", "1", "--equal", "2", "--relax", "plpr",
            "--check", "--samples", "100000", "--seed", "8",
        )
        assert report["analytic"] == pytest.approx(0.0625, rel=1e-14)
        assert report["sigma_distance"] <= 4.0

    def test_no_reference_flagged(self):
        report = run_json(
            "mc", "--p", "3", "--l", "0.5", "--u", "1", "--relax", "pr",
            "--check", "--samples", "20000", "--seed", "8",
        )
        assert report["analytic"] is None
        assert report["note"] == "no analytic reference"


class TestOutputContracts:
    def test_json_round_trip(self):
        code, out, _ = run_cli(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--equal", "3", "--relax", "plpr"
        )
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        # shortest repr decimals survive a text round trip exactly
        assert float(repr(report["volume"])) == report["volume"]

    def test_csv_round_trip(self):
        code, out, _ = run_cli(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--equal", "3", "--relax", "plpr",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        flat = dict(rows[1:])
        json_report = run_json(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--equal", "3", "--relax", "plpr"
        )
        assert float(flat["volume"]) == json_report["volume"]
        assert float(flat["xi.1"]) == json_report["xi"][1]

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            "volume", "--p", "2", "--l", "0", "--u", "1", "--relax", "pr", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["volume"] == pytest.approx(1.0 / 18.0)

    def test_malformed_flags_exit_two(self):
        code, _, _ = run_cli("volume", "--p", "2", "--l", "0")
        assert code == 2
        code, _, _ = run_cli("volume", "--p", "two", "--l", "0", "--u", "1", "--relax", "nr")
        assert code == 2
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_domain_errors_exit_two(self):
        code, _, err = run_cli("volume", "--p", "2", "--l", "-1", "--u", "1", "--relax", "nr")
        assert code == 2 and err.startswith("error: DomainError")
        code, _, _ = run_cli("volume", "--p", "0.5", "--l", "0", "--u", "1", "--relax", "nr")
        assert code == 2
        code, _, _ = run_cli(
            "mc", "--p", "2", "--l", "0", "--u", "1", "--relax", "nr", "--samples", "10"
        )
        assert code == 2
        degenerate = ("--l", "0", "--u", "0.01")
        for argv in (
            ("volume", "--p", "150", *degenerate, "--equal", "5", "--relax", "plpr"),
            ("optimize", "--p", "150", *degenerate, "--n", "5"),
            ("sweep", *degenerate, "--n", "5", "--p-grid", "150"),
            ("sweep", *degenerate, "--n", "5", "--p-grid", "3,150"),
        ):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == "" and err.startswith("error: DegenerateTangents")
            assert "Warning" not in err
