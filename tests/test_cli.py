import csv
import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from perspex import Breakpoints, Interval, McEstimate, PowerFn, RelaxationKind
from perspex.cli import _flatten, main
from perspex.placement import newton_optimize
from perspex.power import closed_form_volume, volume_power_closed_form

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

    def test_areas_only_for_plpr(self):
        # the other kinds have no fan triangles to list
        for relax in ("nr", "pr", "enr", "plenr"):
            argv = ["volume", "--p", "3", "--l", "0", "--u", "1", "--relax", relax, "--areas"]
            if relax == "plenr":
                argv += ["--equal", "3"]
            code, out, err = run_cli(*argv)
            assert code == 2 and out == "", relax
            assert err.startswith("error: DomainError") and err.count("\n") == 1, relax

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

    def test_closed_form_at_every_exponent(self):
        # nr of x**3 on [0, 1]: pr's (p-1)/(6 (p+1)) = 1/12 plus κ/(3 (p+1)) = 1/30
        report = run_json("volume", "--p", "3", "--l", "0", "--u", "1", "--relax", "nr")
        assert report["volume"] == pytest.approx(7.0 / 60.0, rel=1e-15)

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

    def test_quadratic_volume_matches_the_volume_command(self):
        domain = ("--p", "2", "--l", "1000", "--u", "1000.001")
        opt = run_json("optimize", *domain, "--n", "3")
        vol = run_json("volume", *domain, "--equal", "3", "--relax", "plpr")
        assert opt["xi"] == vol["xi"]
        assert opt["volume"] == vol["volume"] > 0.0

    def test_optimization_needs_an_interior_point(self):
        for p in ("2", "3"):
            domain = ("--p", p, "--l", "0", "--u", "1")
            for argv in (
                ("optimize", *domain, "--n", "1"),
                ("volume", *domain, "--optimize", "1", "--relax", "plpr"),
            ):
                code, out, err = run_cli(*argv)
                assert code == 2 and out == "", argv
                assert err.startswith("error: DomainError") and "n >= 2" in err, argv
        report = run_json("volume", "--p", "2", "--l", "0", "--u", "1", "--equal", "1")
        assert report["xi"] == [0.0, 1.0]
        assert report["volume"] == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_subquadratic_bracket(self):
        report = run_json("optimize", "--p", "1.5", "--l", "0", "--u", "1", "--n", "2")
        assert 1.0 / 3.0 < report["xi"][1] < 4.0 / 9.0

    def test_nonconvergence_exit_code(self, monkeypatch):
        from perspex import placement

        monkeypatch.setattr(placement, "_MAX_ITER", 1)
        code, out, err = run_cli("optimize", "--p", "8", "--l", "0", "--u", "1", "--n", "10")
        assert code == 3 and out == ""
        assert err.startswith("error: MaxIterExceeded")

    def test_iteration_limit_defaults_to_the_solver_s(self, monkeypatch):
        # optimize has no --max-iter; it reads the solver's limit at call time
        from perspex import placement

        monkeypatch.setattr(placement, "_MAX_ITER", 1)
        code, _, err = run_cli("optimize", "--p", "8", "--l", "0", "--u", "1", "--n", "10")
        assert code == 3 and " within 1 iterations " in err


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

    def test_csv_rows_are_the_json_numbers(self):
        # each CSV cell is the shortest round-trip decimal of the JSON
        # report's number, as csv writes a Python float
        argv = ("sweep", "--l", "0.3", "--u", "1.7", "--n", "20",
                "--p-grid", "1.1,1.5,2,2.718281828459045,7.9")
        code, out, _ = run_cli(*argv)
        assert code == 0
        report = run_json(*argv, "--format", "json")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows == [[repr(p), *map(repr, xi)] for p, xi in zip(report["p"], report["xi"])]


class TestCompare:
    def test_thresholds_and_table(self):
        report = run_json("compare", "--l", "0", "--u", "1", "--gap", "0.001")
        assert report["n1"] == 7 and report["n2"] == 6
        assert report["ratio"] == pytest.approx(1.225, abs=1e-3)
        table = report["table"]
        assert table["pr"] <= table["plpr"] <= table["nr"]
        # the table is closed_form_volume's, bit for bit, in a fixed key order
        iv = Interval(0.0, 1.0)
        bp = Breakpoints.equally_spaced(iv, report["n"])
        tags = ["pr", "plpr", "nr", "enr", "plenr"]
        assert list(table) == tags
        for tag in tags:
            assert table[tag] == closed_form_volume(RelaxationKind(tag), PowerFn(2.0, iv), bp)

    def test_thresholds_do_not_underflow(self):
        # 24 * upper * gap underflows to 0 here; both bounds are far below 1
        report = run_json("compare", "--l", "0", "--u", "1e-100", "--gap", "1e-300")
        assert report["n1"] == report["n2"] == 1
        # and the enr volume u**3 / 12 does not underflow on the way
        assert 0.0 < report["table"]["enr"] == pytest.approx(1e-300 / 12.0, rel=1e-15)

    def test_rejects_other_exponents(self):
        # the table is the quadratic's: --p is not a flag, and the report says p = 2
        for p in ("2", "3", "nan"):
            code, out, err = run_cli(
                "compare", "--p", p, "--l", "0", "--u", "1", "--gap", "0.001"
            )
            assert code == 2 and out == "" and "unrecognized arguments: --p" in err, p
        assert run_json("compare", "--l", "0", "--u", "1", "--gap", "0.001")["p"] == 2.0


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

    def test_every_check_has_a_reference(self):
        # pr of x**3 on [0.5, 1]: (0.5 (1/8 + 1) / 2 - (1 - 1/16) / 4) / 3 = 1/64
        report = run_json(
            "mc", "--p", "3", "--l", "0.5", "--u", "1", "--relax", "pr",
            "--check", "--samples", "20000", "--seed", "8",
        )
        assert report["analytic"] == pytest.approx(1.0 / 64.0, rel=1e-15)
        assert report["sigma_distance"] <= 4.0 and "note" not in report

    def test_narrow_body_has_a_spread(self):
        report = run_json(
            "mc", "--p", "2", "--l", "1000", "--u", "1000.001", "--relax", "pr",
            "--check", "--seed", "1", "--samples", "200000",
        )
        assert report["stderr"] > 0.0 and report["mean"] > 0.0
        assert report["sigma_distance"] <= 4.0

    @pytest.mark.parametrize("agrees", [False, True])
    def test_zero_stderr_is_no_agreement(self, monkeypatch, agrees):
        # an estimate with no spread says nothing about its distance from the
        # closed form unless it equals it
        def no_spread(body, samples, seed, workers=None):
            mean = 1.0 / 18.0 if agrees else 0.0
            return McEstimate(mean, 0.0, samples, seed, 0, body.cone_volume)

        # the CLI reads mc_volume from its module at call time
        monkeypatch.setattr("perspex.mc.mc_volume", no_spread)
        common = ("--p", "2", "--l", "0", "--u", "1", "--relax", "pr", "--check",
                  "--samples", "20000", "--seed", "1")
        report = run_json("mc", *common)
        if agrees:
            assert report["sigma_distance"] == 0.0 and "note" not in report
        else:
            assert report["sigma_distance"] is None
            assert "zero stderr" in report["note"]
        if not agrees:  # CSV prints the null as an empty value
            _, out, _ = run_cli("mc", *common, "--format", "csv")
            assert "\nsigma_distance,\n" in out


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
        code, _, _ = run_cli("optimize", "--p", "3", "--l", "0", "--u", "1", "--n", "4",
                             "--tol", "1e-9")
        assert code == 2

    def test_removed_flags_exit_two(self):
        # mc --check is the one Monte-Carlo cross-check, compare is p = 2
        # only, and optimize always runs to the solver's iteration limit
        plpr = ("--p", "2", "--l", "0", "--u", "1", "--equal", "2", "--relax", "plpr")
        for argv in (
            ("volume", *plpr, "--check"),
            ("volume", *plpr, "--samples", "50000"),
            ("volume", *plpr, "--seed", "3"),
            ("volume", *plpr, "--workers", "1"),
            ("compare", "--p", "2", "--l", "0", "--u", "1", "--gap", "0.001"),
            ("optimize", "--p", "3", "--l", "0", "--u", "1", "--n", "4", "--max-iter", "200"),
        ):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == "" and "unrecognized arguments" in err, argv

    def test_infinite_exponent_exits_two(self):
        for argv in (
            ("mc", "--p", "inf", "--l", "0", "--u", "1", "--relax", "pr", "--samples", "20000"),
            ("mc", "--p", "inf", "--l", "0", "--u", "1", "--relax", "plenr", "--equal", "3",
             "--samples", "20000"),
            ("sweep", "--l", "0", "--u", "1", "--n", "3", "--p-grid", "2,inf"),
            ("optimize", "--p", "inf", "--l", "0", "--u", "1", "--n", "3"),
        ):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: DomainError: exponent must be finite"), argv

    def test_underflowing_slopes_scale_and_converge(self):
        # x**149 underflows at the first breakpoints of [0, 0.01]; the
        # ratio-form volume and Newton residual do not, and Newton stops at
        # the residual's rounding floor (warnings fail the suite)
        tiny = ("--l", "0", "--u", "0.01")
        doc = run_json("volume", "--p", "150", *tiny, "--equal", "5", "--relax", "plpr")
        unit = volume_power_closed_form(
            PowerFn(150.0, Interval(0.0, 1.0)), Breakpoints.equally_spaced(Interval(0.0, 1.0), 5)
        )
        assert doc["volume"] == pytest.approx(0.01**151 * unit, rel=4e-15, abs=0)
        bp, _ = newton_optimize(PowerFn(150.0, Interval(0.0, 0.01)), 5)
        assert run_json("optimize", "--p", "150", *tiny, "--n", "5")["xi"] == bp.xi.tolist()
        for grid in ("150", "3,150"):
            code, out, err = run_cli("sweep", *tiny, "--n", "5", "--p-grid", grid)
            assert code == 0 and err == "", grid
            assert list(csv.reader(io.StringIO(out)))[-1] == [
                "150.0", *map(repr, bp.interior.tolist())
            ]

    def test_domain_errors_exit_two(self):
        code, _, err = run_cli("volume", "--p", "2", "--l", "-1", "--u", "1", "--relax", "nr")
        assert code == 2 and err.startswith("error: DomainError")
        code, _, _ = run_cli("volume", "--p", "0.5", "--l", "0", "--u", "1", "--relax", "nr")
        assert code == 2
        code, _, _ = run_cli(
            "mc", "--p", "2", "--l", "0", "--u", "1", "--relax", "nr", "--samples", "10"
        )
        assert code == 2
        for argv in (
            ("mc", "--p", "150", "--l", "0", "--u", "1000", "--relax", "nr"),
            ("mc", "--p", "150", "--l", "1e-5", "--u", "1e-3", "--relax", "pr"),
        ):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == "" and err.startswith("error: DomainError")
            assert "Warning" not in err
        # volumes, estimates and piece-count bounds that overflow floats;
        # optimize's solver terms do not, so its one line is the volume's
        # (warnings fail the suite)
        for argv in (
            ("mc", "--p", "200", "--l", "0", "--u", "33.9", "--relax", "plenr",
             "--equal", "4", "--samples", "65536", "--seed", "1"),
            ("volume", "--p", "2", "--l", "0", "--u", "1e200", "--relax", "plpr", "--equal", "3"),
            ("optimize", "--p", "2", "--l", "0", "--u", "1e200", "--n", "3"),
            ("volume", "--p", "3", "--l", "0", "--u", "1e120", "--relax", "plpr", "--equal", "3"),
            ("volume", "--p", "2", "--l", "0", "--u", "1e120", "--relax", "nr"),
            ("compare", "--l", "0", "--u", "1e120", "--gap", "1e-3"),
        ):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: DomainError") and err.count("\n") == 1, argv
        # f(upper) fits but f'(upper) and p f(upper) overflow: plpr's piece
        # columns, and plenr's cone, are not finite
        for kind in ("plpr", "plenr"):
            argv = ("mc", "--p", "200", "--l", "0", "--u", "34.6", "--relax", kind,
                    "--equal", "4", "--samples", "8192")
            code, out, err = run_cli(*argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: DomainError") and err.count("\n") == 1, argv


def _readme_cli_lines():
    """``(argv, claim)`` per line of the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, claim = line.partition("#")
        lines.append((shlex.split(command)[1:], claim.strip()))
    return lines


def _printed_values(out):
    """A JSON report flattened to the keys ``--format csv`` prints, or a CSV
    table keyed by column and row (``xi_1.2``); values as printed."""
    if out.startswith("{"):
        return {key: json.dumps(value) for key, value in _flatten(json.loads(out))}
    rows = list(csv.DictReader(io.StringIO(out)))
    return {f"{col}.{i}": value for i, row in enumerate(rows) for col, value in row.items()}


class TestReadme:
    @pytest.mark.parametrize("argv, claim", _readme_cli_lines(), ids=lambda v: " ".join(v)
                             if isinstance(v, list) else None)
    def test_cli_block_prints_what_its_comments_say(self, argv, claim):
        code, out, err = run_cli(*argv)
        assert code == 0, err
        values = _printed_values(out)
        assert claim, "every README CLI line states what it prints"
        for clause in claim.split(";"):
            key, op, want = re.fullmatch(r"\s*(\S+) ([=<]) (\S+)\s*", clause).groups()
            got = values[key]
            if op == "<":
                assert float(got) < float(want), clause
            elif want.endswith("..."):
                assert got.startswith(want[:-3]), clause
            elif "/" in want:
                assert float(got) == pytest.approx(float(Fraction(want)), rel=1e-15), clause
            else:
                assert float(got) == float(want), clause
