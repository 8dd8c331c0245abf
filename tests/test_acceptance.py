"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one ``criterion k: PASS/FAIL`` line (run with ``-s``
or read the captured output).
"""

import math
import time

import numpy as np
import pytest
from conftest import BAND_ULPS, NARROW_GRIDS, band_excess, random_power_instance

from perspex import (
    Breakpoints,
    Interval,
    PowerFn,
    RelaxationKind,
    bordered_hessian_eigs,
    bracket_gap,
    build_underestimator,
    gradient_system,
    make_body,
    mc_volume,
    min_bracket_gap,
    newton_optimize,
    optimize_quadratic,
    refinement_thresholds,
    single_point_bounds,
    sweep_optimal_points,
    volume_extended_naive_quadratic,
    volume_naive_quadratic,
    volume_perspective_quadratic,
    volume_pl_extended_naive,
    volume_pl_perspective,
    volume_power_closed_form,
    volume_quadratic,
)

UNIT = Interval(0.0, 1.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_quadratic_optimum():
    optimize_quadratic(UNIT, 2)  # warm-up outside the timed region
    worst_err, worst_vol, worst_time = 0.0, 0.0, 0.0
    for n in range(2, 11):
        t0 = time.perf_counter()
        bp, vol = optimize_quadratic(UNIT, n)
        worst_time = max(worst_time, time.perf_counter() - t0)
        expected_xi = np.linspace(0.0, 1.0, n + 1)
        expected_vol = 1.0 / 18.0 + 1.0 / (36.0 * n * n)
        worst_err = max(worst_err, float(np.abs(bp.xi - expected_xi).max()))
        worst_vol = max(worst_vol, abs(vol - expected_vol) / expected_vol)
    ok = worst_err <= 1e-10 and worst_vol <= 1e-12 and worst_time < 1e-3
    _report(1, ok, f"xi err {worst_err:.1e}, vol rel {worst_vol:.1e}, {worst_time*1e3:.3f} ms/case")


def test_criterion_02_golden_single_point():
    bp, trace = newton_optimize(PowerFn(3.0, UNIT), 2)
    xi1 = float(bp.interior[0])
    bounds = single_point_bounds(PowerFn(3.0, UNIT))
    ok = (
        abs(xi1 - GOLDEN) <= 1e-10
        and trace.converged
        and 0.57735 < xi1 < 0.66667
        and bounds.lower < xi1 < bounds.upper
    )
    _report(2, ok, f"xi1 = {xi1:.12f}, err {abs(xi1 - GOLDEN):.1e}")


def test_criterion_03_reference_matrices():
    bp = Breakpoints(UNIT, [0.0, 0.2, 0.8, 1.0])
    hess = gradient_system(PowerFn(1.5, UNIT), bp).hessian()
    hess_err = float(np.abs(hess - [[0.1366, -0.0621], [-0.0621, 0.0587]]).max())
    eigs = bordered_hessian_eigs(PowerFn(3.0, UNIT), bp)
    eig_err = float(np.abs(eigs - [-0.03950, -0.00086, 0.30807]).max())
    ok = hess_err <= 5e-4 and eig_err <= 5e-4
    _report(3, ok, f"hessian err {hess_err:.1e}, bordered eig err {eig_err:.1e}")


def test_criterion_04_gap_constants():
    p0, gap0 = min_bracket_gap()
    near_one = bracket_gap(1.0 + 1e-6, 0.0).value
    ok = (
        abs(p0 - 6.3212) <= 1e-3
        and abs(gap0 + 0.1347) <= 1e-3
        and abs(near_one - math.exp(-1.0)) <= 1e-4
    )
    _report(4, ok, f"p0 = {p0:.5f}, gap(p0) = {gap0:.5f}, gap(1+) = {near_one:.6f}")


def test_criterion_05_monotone_newton_grid():
    t0 = time.perf_counter()
    runs = 0
    for p in (1.2, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0):
        for n in (2, 5, 10):
            for lower in (0.0, 0.25, 0.75):
                pf = PowerFn(p, Interval(lower, 1.0))
                bp, trace = newton_optimize(pf, n)
                assert trace.converged
                for a, b in zip(trace.iterates, trace.iterates[1:]):
                    step = b.interior - a.interior
                    if p < 2.0:
                        assert (step <= 1e-12).all(), (p, n, lower)
                    else:
                        assert (step >= -1e-12).all(), (p, n, lower)
                eigs = np.linalg.eigvalsh(gradient_system(pf, bp).hessian())
                assert eigs.min() > 0.0, (p, n, lower)
                runs += 1
    elapsed = time.perf_counter() - t0
    ok = runs == 63 and elapsed < 1.0
    _report(5, ok, f"{runs} runs, PD Hessians, {elapsed:.2f} s")


def test_criterion_06_formula_cross_validation():
    rng = np.random.default_rng(2024)
    worst_vol, worst_grad, grad_checked = 0.0, 0.0, 0
    for _ in range(500):
        pf, bp = random_power_instance(rng)
        closed = volume_power_closed_form(pf, bp)
        geo = volume_pl_perspective(build_underestimator(pf.oracle(), bp))
        worst_vol = max(worst_vol, abs(closed - geo) / abs(closed))
        if bp.n < 2 or grad_checked >= 150:
            continue
        grad_checked += 1
        grad = gradient_system(pf, bp).grad
        h = 1e-6 * bp.interval.width
        fd = np.empty_like(grad)
        for j in range(grad.size):
            up = bp.xi.copy()
            dn = bp.xi.copy()
            up[1 + j] += h
            dn[1 + j] -= h
            fd[j] = (
                volume_power_closed_form(pf, Breakpoints(bp.interval, up))
                - volume_power_closed_form(pf, Breakpoints(bp.interval, dn))
            ) / (2.0 * h)
        scale = max(float(np.abs(grad).max()), 1e-12)
        worst_grad = max(worst_grad, float(np.abs(grad - fd).max()) / scale)
    ok = worst_vol <= 1e-10 and worst_grad <= 1e-5 and grad_checked == 150
    _report(6, ok, f"vol rel {worst_vol:.1e} (500 inst), grad rel {worst_grad:.1e} ({grad_checked} inst)")


def test_criterion_07_mc_oracle_agreement():
    t0 = time.perf_counter()
    half = Interval(0.5, 1.0)
    p2_unit = PowerFn(2.0, UNIT)
    p2_half = PowerFn(2.0, half)
    cases = [
        ("plpr n=1", RelaxationKind.PL_PR, p2_unit, Breakpoints.equally_spaced(UNIT, 1),
         volume_quadratic(Breakpoints.equally_spaced(UNIT, 1))),
        ("plpr n=3", RelaxationKind.PL_PR, p2_unit, Breakpoints.equally_spaced(UNIT, 3),
         volume_quadratic(Breakpoints.equally_spaced(UNIT, 3))),
        ("nr", RelaxationKind.NR, p2_unit, None, volume_naive_quadratic(UNIT)),
        ("pr", RelaxationKind.PR, p2_unit, None, volume_perspective_quadratic(UNIT)),
        ("enr", RelaxationKind.E_NR, p2_half, None, volume_extended_naive_quadratic(half)),
        ("plenr n=2", RelaxationKind.PL_E_NR, p2_half, Breakpoints.equally_spaced(half, 2),
         volume_pl_extended_naive(p2_half.oracle(), Breakpoints.equally_spaced(half, 2))),
    ]
    details = []
    ok = True
    for label, kind, pf, bp, analytic in cases:
        body = make_body(kind, pf, bp)
        est = mc_volume(body, 1_000_000, seed=2024)
        sigma = abs(analytic - est.mean) / est.stderr
        details.append(f"{label} {sigma:.2f}sd")
        ok = ok and sigma <= 4.0
    repeat = mc_volume(make_body(RelaxationKind.NR, p2_unit), 1_000_000, seed=2024)
    first = mc_volume(make_body(RelaxationKind.NR, p2_unit), 1_000_000, seed=2024)
    ok = ok and repeat.hits == first.hits and repeat.mean == first.mean
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(7, ok, f"max sigma dist [{', '.join(details)}], {elapsed:.1f} s")


def test_criterion_08_refinement_thresholds():
    ok = True
    details = []
    for iv in (UNIT, Interval(0.5, 1.0)):
        pf = PowerFn(2.0, iv)
        enr_limit = volume_extended_naive_quadratic(iv)
        pr_limit = volume_perspective_quadratic(iv)

        def pl_e_nr_vol(n):
            return volume_pl_extended_naive(pf.oracle(), Breakpoints.equally_spaced(iv, n))

        def pl_pr_vol(n):
            return volume_quadratic(Breakpoints.equally_spaced(iv, n))

        for gap in (1e-2, 1e-3, 1e-4):
            n1, n2, ratio = refinement_thresholds(iv, gap)
            ok = ok and pl_e_nr_vol(n1) - enr_limit < gap
            if n1 - 1 >= 1:
                ok = ok and pl_e_nr_vol(n1 - 1) - enr_limit >= gap
            ok = ok and pl_pr_vol(n2) - pr_limit < gap
            if n2 - 1 >= 1:
                ok = ok and pl_pr_vol(n2 - 1) - pr_limit >= gap
            expected_ratio = math.sqrt(1.5 * (1.0 - iv.lower / iv.upper))
            ok = ok and abs(ratio - expected_ratio) <= 1e-12
            details.append(f"[{iv.lower},{iv.upper}] gap={gap:g}: n1={n1} n2={n2}")
    _report(8, ok, "; ".join(details[:3]) + " ...")


def test_criterion_09_ordering_properties():
    ok = True
    # PL+PR never exceeds the naive volume; equality exactly at n=1, lower=0
    for lower in (0.0, 0.25, 1.0):
        for width in (1.0, 2.5):
            iv = Interval(lower, lower + width)
            nr = volume_naive_quadratic(iv)
            for n in range(1, 7):
                vol = volume_quadratic(Breakpoints.equally_spaced(iv, n))
                if n == 1 and lower == 0.0:
                    ok = ok and abs(vol - nr) <= 1e-14 * nr
                else:
                    ok = ok and vol < nr
    # refinement of any breakpoint set never increases the volume
    rng = np.random.default_rng(909)
    for _ in range(60):
        pf, bp = random_power_instance(rng, n_max=5)
        before = volume_power_closed_form(pf, bp)
        k = int(rng.integers(0, bp.n))
        refined = Breakpoints(bp.interval, np.insert(bp.xi, k + 1, 0.5 * (bp.xi[k] + bp.xi[k + 1])))
        after = volume_power_closed_form(pf, refined)
        ok = ok and after <= before + 1e-12 * max(1.0, before)
    _report(9, ok, "PL+PR <= NR with exact equality case; refinement monotone")


def test_criterion_10_exponent_sweep():
    result = sweep_optimal_points(UNIT, 5, [1.2, 1.5, 2.0, 3.0, 5.0, 8.0])
    steps = np.diff(result.interior, axis=0)
    ok = bool((steps > 1e-9).all())
    _report(10, ok, f"min coordinate step {float(steps.min()):.3e}")


def test_criterion_11_jacobian_bands_on_narrow_intervals():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for p, lower, upper, n in NARROW_GRIDS:
        iv = Interval(lower, upper)
        worst = max(worst, band_excess(mpmath, PowerFn(p, iv), Breakpoints.equally_spaced(iv, n)))
    _report(
        11,
        worst <= 1.0,
        f"Jacobian bands on {len(NARROW_GRIDS)} narrow grids vs 60 digits: worst error "
        f"{worst:.2f} of its bound {BAND_ULPS:g} eps b / min(t - a, b - t)",
    )
