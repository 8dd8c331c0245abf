"""The package surface that the benchmark harness in ``perfbench/`` reads.

The harness is not imported here.  These tests name the functions, records,
call shapes and CLI flags it uses, so a change that would break a benchmark
run fails in the test suite first.  A change to the benchmark that stops
reading a name should drop it here too.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import perspex
from perspex import cli, mc, placement, power, underestimator
from perspex.power import PowerFn, RelaxationKind
from perspex.underestimator import Breakpoints, Interval

SRC = os.path.dirname(os.path.dirname(perspex.__file__))


@pytest.mark.parametrize(
    "owner, attr",
    [
        (power, "gradient_system"),
        (power, "volume_power_closed_form"),
        (placement, "newton_optimize"),
        (placement, "solve_tridiagonal"),
        (placement, "sweep_optimal_points"),
        (underestimator, "build_underestimator"),
        (PowerFn, "oracle"),
        (mc, "mc_volume"),
        (mc._kernel, "count_hits"),
        (cli, "main"),
    ],
)
def test_traced_functions_exist(owner, attr):
    # the harness's tracer wraps these where they are defined
    assert callable(getattr(owner, attr))


def test_package_constants():
    assert isinstance(perspex.KERNEL_BACKEND, str)
    assert isinstance(mc.BLOCK_SIZE, int) and mc.BLOCK_SIZE > 0
    assert os.path.isfile(perspex.__file__)


def test_solver_and_closed_form_call_shapes():
    iv = Interval(0.3, 1.3)
    pf = PowerFn(3.0, iv)
    bp, _ = placement.newton_optimize(pf, 5)
    assert bp.xi.shape == (6,) and bp.interior.shape == (4,)
    vol = power.volume_power_closed_form(pf, bp)
    assert np.abs(power.gradient_system(pf, bp).residual).max() >= 0.0
    under = underestimator.build_underestimator(pf.oracle(), bp)
    fan = underestimator.volume_pl_perspective(under)
    assert fan == pytest.approx(vol, rel=1e-9)
    assert power.volume_pl_extended_naive(pf.oracle(), bp) > 0.0

    sweep = placement.sweep_optimal_points(iv, 5, [1.5, 3.0])
    assert (sweep.interior[1] == bp.interior).all()
    x = placement.solve_tridiagonal([1.0], [4.0, 4.0], [1.0], [5.0, 5.0])
    assert x.tolist() == [1.0, 1.0]

    quad, qvol = placement.optimize_quadratic(iv, 4)
    assert qvol == power.volume_quadratic(quad)
    for name in ("volume_naive_quadratic", "volume_perspective_quadratic",
                 "volume_extended_naive_quadratic"):
        assert getattr(power, name)(iv) > 0.0, name
    n1, n2, ratio = power.refinement_thresholds(iv, 1e-3)
    assert n1 >= 1 and n2 >= 1 and ratio > 0.0


def test_monte_carlo_call_shapes(monkeypatch):
    # mc_volume(body, samples, seed, workers), positionally; the kernel is
    # called as count_hits(body, t) with an array t
    sizes = []
    real = mc._kernel.count_hits

    def counting(*args):
        sizes.append(args[1].size)
        return real(*args)

    monkeypatch.setattr(mc._kernel, "count_hits", counting)
    pf = PowerFn(3.0, Interval(0.0, 1.0))
    bp = Breakpoints.equally_spaced(pf.interval, 4)
    body = mc.make_body(RelaxationKind.PL_PR, pf, bp)
    est = mc.mc_volume(body, 2 * mc.BLOCK_SIZE, 0, 1)
    assert sizes and all(size > 0 for size in sizes)
    assert 0 <= est.hits <= est.samples == 2 * mc.BLOCK_SIZE
    assert est.stderr > 0.0 and est.mean > 0.0
    assert mc.mc_volume(body, est.samples, 0, 2) == est


CLI_COMMANDS = {
    "volume": (("volume", "--p", "3.0", "--l", "0.0", "--u", "1.0", "--equal", "4",
                "--relax", "plpr"), ("volume", "xi")),
    "optimize": (("optimize", "--p", "3.0", "--l", "0.0", "--u", "1.0", "--n", "4"),
                 ("xi", "volume")),
    "compare": (("compare", "--l", "0.0", "--u", "1.0", "--gap", "0.001", "--equal", "4"),
                ("n1", "n2", "ratio", "table")),
    "mc": (("mc", "--p", "2.0", "--l", "0.5", "--u", "1.0", "--relax", "pr", "--check",
            "--samples", "16384", "--seed", "7", "--workers", "1"),
           ("mean", "stderr", "hits", "samples")),
}


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_cli_commands_and_report_keys(command):
    argv, keys = CLI_COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    report = json.loads(out.getvalue())
    assert all(key in report for key in keys), keys


def test_sweep_csv_from_a_fresh_process():
    # the harness runs `python -m perspex.cli` and reads the sweep as CSV
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "perspex.cli", "sweep", "--l", "0.0", "--u", "1.0",
         "--n", "3", "--p-grid", "1.5,3.0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0] == "p,xi_1,xi_2" and [row.split(",")[0] for row in rows[1:]] == ["1.5", "3.0"]
