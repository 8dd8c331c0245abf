import math

import numpy as np
import pytest
from conftest import random_power_instance

from perspex import (
    Breakpoints,
    DegenerateTangents,
    DomainError,
    Interval,
    MaxIterExceeded,
    PerspexError,
    PowerFn,
    SingularJacobian,
    bracket_gap,
    concave_surrogate,
    gradient_system,
    min_bracket_gap,
    newton_optimize,
    optimize_quadratic,
    single_point_bounds,
    solve_tridiagonal,
    sweep_optimal_points,
    volume_power_closed_form,
)

UNIT = Interval(0.0, 1.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestOptimizeQuadratic:
    def test_unit_two_pieces(self):
        bp, vol = optimize_quadratic(UNIT, 2)
        np.testing.assert_allclose(bp.xi, [0.0, 0.5, 1.0], atol=1e-15)
        assert vol == pytest.approx(1.0 / 16.0, rel=1e-14)

    def test_single_piece(self):
        bp, vol = optimize_quadratic(UNIT, 1)
        assert bp.interior.size == 0
        assert vol == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_wider_interval(self):
        bp, vol = optimize_quadratic(Interval(1.0, 3.0), 4)
        np.testing.assert_allclose(bp.interior, [1.5, 2.0, 2.5], atol=1e-15)
        assert vol == pytest.approx(8.0 / 18.0 + 8.0 / 576.0, rel=1e-14)

    def test_rejects_zero_pieces(self):
        with pytest.raises(DomainError):
            optimize_quadratic(UNIT, 0)


class TestTridiagonal:
    def test_one_by_one(self):
        assert solve_tridiagonal([], [2.0], [], [1.0]) == pytest.approx([0.5])

    def test_against_dense_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = int(rng.integers(2, 9))
            diag = rng.uniform(2.0, 4.0, m)
            sub = rng.uniform(-1.0, 1.0, m - 1)
            sup = rng.uniform(-1.0, 1.0, m - 1)
            rhs = rng.normal(size=m)
            dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
            expected = np.linalg.solve(dense, rhs)
            got = solve_tridiagonal(sub, diag, sup, rhs)
            assert float(np.abs(got - expected).max()) <= 1e-12 * max(
                1.0, float(np.abs(expected).max())
            )

    def test_newton_system_residual(self):
        pf = PowerFn(3.0, UNIT)
        sys = gradient_system(pf, Breakpoints.equally_spaced(UNIT, 6))
        x = solve_tridiagonal(sys.jac_sub, sys.jac_diag, sys.jac_sup, sys.residual)
        residual = sys.jacobian() @ x - sys.residual
        assert float(np.abs(residual).max()) <= 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularJacobian):
            solve_tridiagonal([], [0.0], [], [1.0])
        with pytest.raises(SingularJacobian):
            solve_tridiagonal([1.0], [1.0, 1.0], [1.0], [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            solve_tridiagonal([1.0], [1.0, 1.0, 1.0], [1.0], [1.0, 1.0, 1.0])

    @staticmethod
    def _bands(rng, rows, m):
        return (
            rng.uniform(-1.0, 1.0, (rows, m - 1)),
            rng.uniform(2.0, 4.0, (rows, m)),
            rng.uniform(-1.0, 1.0, (rows, m - 1)),
            rng.normal(size=(rows, m)),
        )

    @pytest.mark.parametrize("rows, m", [(1, 1), (1, 7), (2, 1), (5, 2), (40, 9)])
    def test_rows_equal_their_own_solves(self, rows, m):
        sub, diag, sup, rhs = self._bands(np.random.default_rng(rows * 100 + m), rows, m)
        got = solve_tridiagonal(sub, diag, sup, rhs)
        assert got.shape == (rows, m)
        for k in range(rows):
            assert (got[k] == solve_tridiagonal(sub[k], diag[k], sup[k], rhs[k])).all()

    def test_rows_singular_when_any_row_is(self):
        sub, diag, sup, rhs = self._bands(np.random.default_rng(34), 4, 5)
        a, d, c = sub[2], diag[2], sup[2]
        # elimination leaves exactly zero in row 2 of system 2
        d[2] = a[1] * (c[1] / (d[1] - a[0] * (c[0] / d[0])))
        with pytest.raises(SingularJacobian, match=r"^zero pivot in row 2$"):
            solve_tridiagonal(a, d, c, rhs[2])
        with pytest.raises(SingularJacobian, match=r"^zero pivot in row 2$"):
            solve_tridiagonal(sub, diag, sup, rhs)
        diag[1, 0] = 0.0
        with pytest.raises(SingularJacobian, match=r"^zero pivot in row 0$"):
            solve_tridiagonal(sub, diag, sup, rhs)

    def test_rows_shape_mismatch(self):
        sub, diag, sup, rhs = self._bands(np.random.default_rng(35), 3, 4)
        with pytest.raises(DomainError):
            solve_tridiagonal(sub, diag, sup, rhs[:2])
        with pytest.raises(DomainError):
            solve_tridiagonal(sub[:, :2], diag, sup, rhs)


class TestNewton:
    def test_golden_single_point(self):
        bp, trace = newton_optimize(PowerFn(3.0, UNIT), 2)
        assert bp.interior[0] == pytest.approx(GOLDEN, abs=1e-10)
        assert trace.converged and trace.direction == "increasing"

    def test_quadratic_is_stationary_at_start(self):
        bp, trace = newton_optimize(PowerFn(2.0, UNIT), 5)
        np.testing.assert_allclose(bp.interior, [0.2, 0.4, 0.6, 0.8], atol=1e-14)
        assert trace.iterations == 0
        assert trace.direction == "stationary-at-start"

    def test_supercubic_moves_up(self):
        bp, trace = newton_optimize(PowerFn(5.0, UNIT), 5)
        start = np.linspace(0.0, 1.0, 6)[1:-1]
        assert (bp.interior > start).all()
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            assert (b.interior >= a.interior - 1e-12).all()

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
    def test_subquadratic_moves_down(self, p):
        bp, trace = newton_optimize(PowerFn(p, Interval(0.25, 1.0)), 6)
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            assert (b.interior <= a.interior + 1e-12).all()
        assert trace.direction == "decreasing"
        assert (bp.interior < np.linspace(0.25, 1.0, 7)[1:-1]).all()

    def test_residuals_strictly_decrease(self):
        for p in (1.3, 3.0, 7.0):
            _, trace = newton_optimize(PowerFn(p, UNIT), 6)
            drops = np.diff(trace.residual_norms)
            assert (drops < 0.0).all()

    def test_trace_records_condition_numbers(self):
        pf = PowerFn(3.0, UNIT)
        _, trace = newton_optimize(pf, 5)
        conds = np.array(trace.condition_numbers)
        assert conds.size == len(trace.iterates)
        assert np.isfinite(conds).all() and (conds >= 1.0).all()
        # exact against the dense condition number at the start
        sys = gradient_system(pf, Breakpoints.equally_spaced(UNIT, 5))
        dense = np.linalg.cond(sys.jacobian(), p=np.inf)
        assert conds[0] == pytest.approx(dense, rel=1e-12)

    def test_start_sign_convention(self):
        # at the equally-spaced start the residual is positive below p=2
        # and negative above, for any interval position
        for p in (1.2, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0):
            for lower in (0.0, 0.25, 0.75):
                for n in (2, 5, 10):
                    iv = Interval(lower, 1.0)
                    sys = gradient_system(PowerFn(p, iv), Breakpoints.equally_spaced(iv, n))
                    if p < 2.0:
                        assert sys.residual.min() > 0.0
                    else:
                        assert sys.residual.max() < 0.0

    def test_gradient_vanishes_at_solution(self):
        for p, n in ((1.5, 5), (3.0, 4), (6.0, 3)):
            pf = PowerFn(p, Interval(0.5, 2.0))
            bp, _ = newton_optimize(pf, n)
            sys = gradient_system(pf, bp)
            scale = max(1.0, 2.0**p)
            assert float(np.abs(sys.grad).max()) <= 1e-11 * scale

    def test_hessian_positive_definite_at_solution(self):
        for p, n in ((1.2, 4), (3.0, 5), (8.0, 3)):
            pf = PowerFn(p, UNIT)
            bp, _ = newton_optimize(pf, n)
            eigs = np.linalg.eigvalsh(gradient_system(pf, bp).hessian())
            assert eigs.min() > 0.0

    def test_unique_limit_from_perturbed_starts(self):
        rng = np.random.default_rng(32)
        for p, n in ((1.5, 4), (3.0, 5), (6.0, 3)):
            pf = PowerFn(p, UNIT)
            reference, _ = newton_optimize(pf, n)
            for _ in range(32):
                while True:
                    cuts = np.sort(rng.uniform(0.03, 0.97, n - 1))
                    if n == 2 or (np.diff(cuts) > 0.02).all():
                        break
                bp, trace = newton_optimize(pf, n, start=cuts)
                assert trace.converged
                assert float(np.abs(bp.interior - reference.interior).max()) <= 1e-8

    def test_jacobian_inverse_nonnegative_along_canonical_run(self):
        # M-matrix structure: the inverse Jacobian keeps nonnegative entries
        for p in (1.5, 4.0):
            pf = PowerFn(p, UNIT)
            _, trace = newton_optimize(pf, 5)
            for bp in trace.iterates:
                inv = np.linalg.inv(gradient_system(pf, bp).jacobian())
                assert inv.min() >= -1e-10

    def test_max_iter_exceeded_carries_trace(self):
        with pytest.raises(MaxIterExceeded) as err:
            newton_optimize(PowerFn(8.0, UNIT), 10, max_iter=2)
        assert err.value.trace is not None
        assert err.value.trace.iterations == 2

    def test_underflowing_slopes_raise(self):
        # x**149 underflows to 0 at the first breakpoints of [0, 0.01]; the
        # guard fires before any NaN is formed (warnings fail the suite)
        with pytest.raises(DegenerateTangents):
            newton_optimize(PowerFn(150.0, Interval(0.0, 0.01)), 5)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            newton_optimize(PowerFn(3.0, UNIT), 1)
        with pytest.raises(DomainError):
            newton_optimize(PowerFn(3.0, UNIT), 3, tol=-1.0)
        with pytest.raises(DomainError):
            newton_optimize(PowerFn(3.0, UNIT), 3, start=[0.9, 0.1])


class TestSinglePointBounds:
    def test_quadratic_collapses_to_midpoint(self):
        b = single_point_bounds(PowerFn(2.0, UNIT))
        assert b.lower == b.upper == b.half == b.power_mean == 0.5

    def test_cubic_bracket(self):
        b = single_point_bounds(PowerFn(3.0, UNIT))
        assert b.lower == pytest.approx(3.0**-0.5, rel=1e-14)
        assert b.upper == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert b.power_mean == pytest.approx(2.0**-0.5, rel=1e-14)
        # above 2 the ordering reverses around the midpoint
        assert b.power_mean > b.upper > GOLDEN > b.lower > b.half

    def test_subquadratic_bracket(self):
        b = single_point_bounds(PowerFn(1.5, UNIT))
        assert b.lower == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert b.upper == pytest.approx(4.0 / 9.0, rel=1e-14)
        assert b.power_mean < b.lower and b.upper < b.half

    def test_minimizer_contained_across_grid(self):
        for p in np.geomspace(1.05, 12.0, 8):
            if abs(p - 2.0) < 1e-9:
                continue
            for ratio in (0.0, 0.1, 0.5, 0.9):
                iv = Interval(ratio, 1.0)
                pf = PowerFn(float(p), iv)
                bounds = single_point_bounds(pf)
                bp, _ = newton_optimize(pf, 2)
                assert bounds.lower < bp.interior[0] < bounds.upper


class TestBracketGap:
    def test_zero_at_two(self):
        assert bracket_gap(2.0, 0.37).value == 0.0

    def test_limit_towards_one(self):
        assert bracket_gap(1.0 + 1e-6, 0.0).value == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_signs(self):
        assert bracket_gap(1.5, 0.0).value > 0.0
        assert bracket_gap(3.0, 0.0).value < 0.0
        assert bracket_gap(3.0, 0.4).value < 0.0

    def test_limit_towards_infinity(self):
        assert abs(bracket_gap(1e6, 0.0).value) < 1e-4

    def test_monotone_in_ratio_below_two(self):
        ts = np.linspace(0.0, 0.95, 20)
        vals = [bracket_gap(1.5, float(t)).value for t in ts]
        assert (np.diff(vals) < 0.0).all()
        assert max(vals) == vals[0]

    def test_scaled_monotone_in_ratio_above_two(self):
        ts = np.linspace(0.0, 0.95, 20)
        vals = [(1.0 - t) * bracket_gap(3.0, float(t)).value for t in ts]
        assert (np.diff(vals) > 0.0).all()
        assert min(vals) == vals[0]

    def test_matches_single_point_bounds_width(self):
        # the gap is the signed bracket width normalized by the interval
        for p in (1.3, 1.7, 2.5, 4.0, 9.0):
            for lower, upper in ((0.0, 1.0), (0.3, 1.0), (1.0, 4.0)):
                iv = Interval(lower, upper)
                b = single_point_bounds(PowerFn(p, iv))
                width = (b.upper - b.lower) / iv.width
                gap = bracket_gap(p, lower / upper).value
                assert abs(gap) == pytest.approx(width, rel=1e-10, abs=1e-14)
                assert (gap > 0.0) == (p < 2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bracket_gap(0.9, 0.0)
        with pytest.raises(DomainError):
            bracket_gap(3.0, 1.0)


class TestMinBracketGap:
    def test_location_and_value(self):
        p0, value = min_bracket_gap()
        assert p0 == pytest.approx(6.3212, abs=1e-3)
        assert value == pytest.approx(-0.1347, abs=1e-3)

    def test_is_a_local_minimum(self):
        p0, value = min_bracket_gap()
        assert bracket_gap(p0 - 0.5, 0.0).value > value
        assert bracket_gap(p0 + 0.5, 0.0).value > value


class TestSweep:
    def test_columns_increase_with_exponent(self):
        result = sweep_optimal_points(UNIT, 5, [1.5, 2.0, 3.0, 5.0])
        assert (np.diff(result.interior, axis=0) > 0.0).all()
        np.testing.assert_allclose(result.interior[1], [0.2, 0.4, 0.6, 0.8], atol=1e-12)

    def test_two_piece_rows_stay_in_bounds(self):
        result = sweep_optimal_points(UNIT, 2, [1.3, 1.8, 2.6, 4.0, 9.0])
        for p, row in zip(result.p, result.interior):
            bounds = single_point_bounds(PowerFn(float(p), UNIT))
            assert bounds.lower <= row[0] <= bounds.upper

    def test_quadratic_only_grid(self):
        result = sweep_optimal_points(UNIT, 4, [2.0])
        expected, _ = optimize_quadratic(UNIT, 4)
        np.testing.assert_allclose(result.interior[0], expected.interior, atol=1e-14)

    @staticmethod
    def _row_by_row(iv, n, grid):
        """The sweep as separate solves: its rows, or the first row's error."""
        rows = []
        for p in grid:
            try:
                bp, _ = newton_optimize(PowerFn(float(p), iv), n)
            except PerspexError as exc:
                return None, exc
            rows.append(bp.interior)
        return np.array(rows), None

    @pytest.mark.parametrize("lower", [0.0, 0.3])
    @pytest.mark.parametrize("n", [2, 20])
    @pytest.mark.parametrize(
        "grid",
        [
            [1.2, 1.5, 1.9],
            [2.0],
            [2.5, 3.0, 4.0, 7.5],
            [1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0],
            np.geomspace(1.1, 8.0, 40),
        ],
    )
    def test_rows_equal_single_solves_exactly(self, lower, n, grid):
        iv = Interval(lower, 1.0)
        rows, err = self._row_by_row(iv, n, grid)
        assert err is None
        assert (sweep_optimal_points(iv, n, grid).interior == rows).all()

    @pytest.mark.parametrize(
        "lower, upper, grid",
        [
            (1.8, 2.0, np.geomspace(1.01, 8.0, 60)),  # the first rows fail
            (0.45, 0.5, np.geomspace(1.5, 16.0, 40)),  # later rows run out of iterations
        ],
    )
    def test_same_outcome_as_single_solves(self, lower, upper, grid):
        iv = Interval(lower, upper)
        rows, err = self._row_by_row(iv, 20, grid)
        if err is None:
            assert (sweep_optimal_points(iv, 20, grid).interior == rows).all()
        else:
            with pytest.raises(type(err)) as got:
                sweep_optimal_points(iv, 20, grid)
            assert str(got.value) == str(err)

    def test_underflowing_slopes_raise_for_their_row(self):
        iv = Interval(0.0, 0.01)
        assert sweep_optimal_points(iv, 5, [3.0]).interior.shape == (1, 4)
        for grid in ([150.0], [3.0, 150.0]):
            with pytest.raises(DegenerateTangents, match=r"p=150\.0"):
                sweep_optimal_points(iv, 5, grid)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 3, [])
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 3, [0.5, 2.0])
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 3, [2.0, 1.5])
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 0, [2.0, 3.0])


class TestConcaveSurrogate:
    IV = Interval(0.5, 1.0)

    def test_positive_and_log_concave(self):
        pf = PowerFn(3.0, self.IV)
        grid = np.linspace(0.5001, 0.9999, 301)
        vals = np.array([concave_surrogate(pf, float(x))[0] for x in grid])
        assert (vals > 0.0).all()
        assert (np.diff(np.log(vals), 2) <= 1e-10).all()

    def test_argmax_is_the_volume_minimizer(self):
        pf = PowerFn(3.0, self.IV)
        bp, _ = newton_optimize(pf, 2)
        grid = np.linspace(0.5001, 0.9999, 2001)
        vals = np.array([concave_surrogate(pf, float(x))[0] for x in grid])
        assert abs(grid[int(vals.argmax())] - bp.interior[0]) < (grid[1] - grid[0]) * 1.5

    def test_left_limit_matches_single_piece_volume(self):
        pf = PowerFn(3.0, self.IV)
        value, offset = concave_surrogate(pf, 0.5 + 1e-7)
        single = volume_power_closed_form(pf, Breakpoints(self.IV, [0.5, 1.0]))
        assert value == pytest.approx(offset - single, abs=1e-5)
        assert value >= 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            concave_surrogate(PowerFn(2.0, self.IV), 0.7)
        with pytest.raises(DomainError):
            concave_surrogate(PowerFn(3.0, self.IV), 0.5)


class TestOneDimensionalShape:
    def test_unimodal_above_two(self):
        # grid scan: strictly down, then strictly up; no interior local max
        for p, iv in ((2.5, UNIT), (4.0, Interval(0.2, 1.0)), (7.0, Interval(0.01, 2.0))):
            pf = PowerFn(p, iv)
            grid = np.linspace(iv.lower + 1e-4, iv.upper - 1e-4, 400)
            vals = np.array(
                [
                    volume_power_closed_form(pf, Breakpoints.from_interior(iv, [float(x)]))
                    for x in grid
                ]
            )
            rising = np.diff(vals) > 0.0
            switches = int(np.abs(np.diff(rising.astype(int))).sum())
            assert switches == 1

    def test_not_convex_near_left_end_above_two(self):
        iv = Interval(0.01, 1.0)
        pf = PowerFn(3.0, iv)

        def vol(x):
            return volume_power_closed_form(pf, Breakpoints.from_interior(iv, [x]))

        h = 1e-5
        x0 = iv.lower + 1e-3
        second = (vol(x0 + h) - 2.0 * vol(x0) + vol(x0 - h)) / (h * h)
        assert second < 0.0
        bp, _ = newton_optimize(pf, 2)
        x1 = bp.interior[0] + 0.1
        second = (vol(x1 + h) - 2.0 * vol(x1) + vol(x1 - h)) / (h * h)
        assert second > 0.0


def test_random_instances_have_unique_descent_target():
    # volumes at Newton's answer never exceed the start volume
    rng = np.random.default_rng(33)
    for _ in range(20):
        pf, bp = random_power_instance(rng, n_min=2, n_max=6)
        start = Breakpoints.equally_spaced(pf.interval, bp.n)
        solved, _ = newton_optimize(pf, bp.n)
        assert volume_power_closed_form(pf, solved) <= volume_power_closed_form(
            pf, start
        ) + 1e-12
