import inspect
import math

import numpy as np
import pytest
from conftest import high_precision_cuts, random_power_instance

from perspex import (
    Breakpoints,
    DomainError,
    Interval,
    MaxIterExceeded,
    MonotonicityViolated,
    PerspexError,
    PowerFn,
    SingularJacobian,
    bracket_gap,
    gradient_system,
    min_bracket_gap,
    newton_optimize,
    optimize_quadratic,
    single_point_bounds,
    sweep_optimal_points,
    volume_power_closed_form,
)
from perspex import placement
from perspex.placement import solve_tridiagonal
from perspex.power import _stationarity
from perspex.underestimator import _equal_spacing

UNIT = Interval(0.0, 1.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EPS = np.finfo(float).eps


def _floor(p, bp):
    """The residual's rounding floor at ``bp``, as the Newton run reads it."""
    return float(_stationarity(bp.xi[None, :], np.array([float(p)])).floor[0])


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
        # d2 (d1 - a0 c0/d0) = a1 c1, so the reduction's first level leaves
        # d1 - a0 c0/d0 - a1 c1/d2 = 0 at position 1, its divisor one level on
        d[2] = a[1] * (c[1] / (d[1] - a[0] * (c[0] / d[0])))
        with pytest.raises(SingularJacobian, match=r"^zero pivot in row 1$"):
            solve_tridiagonal(a, d, c, rhs[2])
        with pytest.raises(SingularJacobian, match=r"^zero pivot in row 1$"):
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

    @staticmethod
    def _thomas_longdouble(sub, diag, sup, rhs):
        """Thomas elimination in ``np.longdouble``: the extended reference."""
        bands = (sub, diag, sup, rhs)
        a, d, c, b = (np.asarray(band, dtype=np.longdouble).tolist() for band in bands)
        cp, dp, den = [], [b[0] / d[0]], d[0]
        for i in range(1, len(d)):
            cp.append(c[i - 1] / den)
            den = d[i] - a[i - 1] * cp[-1]
            dp.append((b[i] - a[i - 1] * dp[-1]) / den)
        x = [dp.pop()]
        for dpi, cpi in zip(dp[::-1], cp[::-1]):
            x.append(dpi - cpi * x[-1])
        return np.array(x[::-1], dtype=np.longdouble)

    @pytest.mark.parametrize("n", [10, 1000, 10_000, 100_000])
    @pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (1000.0, 1000.001)])
    @pytest.mark.parametrize("p", [1.2, 3.7])
    def test_newton_solve_within_its_rounding_bound(self, p, lower, upper, n):
        # The reduction is Gaussian elimination in its own order, each entry
        # and each back-substituted unknown an inner product of at most
        # k = 2 log2(n) + 1 rounded terms: backward error |dJ| <= gamma_3k
        # |L||U| (Higham, Accuracy and Stability, Thm 9.3), at most
        # 4 log2(n) eps |L||U| for n >= 3, and |L||U| of these M-matrices has
        # at most twice the norm of J (1.57 to 1.99997 on the cases here,
        # from the reduction's multipliers and divisors).  So c = 8 in
        # |x - x_ref| <= c log2(n) eps cond_inf(J) |x_ref|, with cond_inf(J)
        # exact from J^-1 1 as J^-1 >= 0.  The reference's own error bound
        # is below 2^-11 of that.
        iv = Interval(lower, upper)
        st = _stationarity(_equal_spacing(iv, n)[None, :], np.array([p]))
        bands = st.d_lo[:, 1:], st.jac_diag, st.d_hi[:, :-1]
        ones = np.ones(n - 1)
        got, pivot = placement._cyclic_reduction(*bands, st.residual, ones[None, :])
        assert pivot[0] == -1
        sub, diag, sup = (band[0] for band in bands)
        refs = [self._thomas_longdouble(sub, diag, sup, b) for b in (st.residual[0], ones)]
        row = np.abs(diag)
        row[1:] += np.abs(sub)
        row[:-1] += np.abs(sup)
        cond = float(row.max() * refs[1].max())
        for x, ref in zip(got, refs):
            err = float(np.abs(x[0] - ref).max() / np.abs(ref).max())
            assert err <= 8.0 * math.log2(n) * EPS * cond


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

    @pytest.mark.parametrize("lower, upper", [(1000.0, 1000.001), (10.0, 10.0001)])
    @pytest.mark.parametrize("n", [20, 160])
    def test_quadratic_stops_at_the_closed_form(self, lower, upper, n):
        # narrow intervals far from zero, where the residual at the start is
        # rounding noise, within the residual floor
        iv = Interval(lower, upper)
        equal = np.linspace(lower, upper, n + 1)
        bp, trace = newton_optimize(PowerFn(2.0, iv), n)
        assert bp.xi.tobytes() == equal.tobytes()
        assert trace.iterations == 0 and trace.converged
        assert trace.direction == "stationary-at-start"
        assert len(trace.residual_norms) == len(trace.condition_numbers) == 1
        row = sweep_optimal_points(iv, n, [2.0]).interior
        assert row.tobytes() == equal[1:-1].tobytes()

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

    @pytest.mark.parametrize(
        "n, p, lower",
        [
            pytest.param(n, p, lower, id=f"{n}-{p}" + (f"-{lower}" if lower else ""))
            for n, p, lower in [
                (300, 1.05, 0.0),
                (1000, 5.0, 0.0),
                (2000, 3.0, 0.0),
                (10_000, 3.0, 0.0),
                (100_000, 1.05, 0.0),
                (100_000, 3.0, 0.0),
                (100_000, 8.0, 0.5),
            ]
        ],
    )
    def test_large_n_moves_in_the_guaranteed_direction(self, n, p, lower):
        # the residual's rounding, once up to 6e-13 of the width here,
        # stalled these runs near 1e-12 and then stepped against the direction
        bp, trace = newton_optimize(PowerFn(p, Interval(lower, 1.0)), n)
        assert trace.converged and trace.iterations <= 8
        assert trace.residual_norms[-1] <= 1e-9 * (1.0 - lower)
        assert trace.direction == ("decreasing" if p < 2.0 else "increasing")
        steps = np.diff([it.interior for it in trace.iterates], axis=0)
        assert ((steps <= 0.0) if p < 2.0 else (steps >= 0.0)).all()

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

    @staticmethod
    def _damped_newton(pf, start, floor):
        """Newton on the stationarity residual from any ``start``, each step
        halved until the iterate is strictly increasing inside the interval:
        a reference that needs no direction guarantee."""
        iv = pf.interval
        x = np.asarray(start, dtype=float)
        for _ in range(100):
            sys = gradient_system(pf, Breakpoints.from_interior(iv, x))
            if np.abs(sys.residual).max() <= floor:
                return x
            step = solve_tridiagonal(sys.jac_sub, sys.jac_diag, sys.jac_sup, sys.residual)
            for _ in range(60):
                trial = x - step
                if iv.lower < trial[0] and trial[-1] < iv.upper and (np.diff(trial) > 0).all():
                    break
                step = 0.5 * step
            x = trial
        raise AssertionError(f"no convergence from {start}")

    def test_unique_limit_from_perturbed_starts(self):
        # the canonical run's optimum is the one zero of the residual: a
        # damped run from any interior start ends there too.  Both end within
        # the floor, so coordinate k is within 4 floor (J^-1 1)_k of the other
        rng = np.random.default_rng(32)
        for p, n in ((1.5, 4), (3.0, 5), (6.0, 3), (2.0, 5)):
            pf = PowerFn(p, UNIT)
            reference, trace = newton_optimize(pf, n)
            sys = gradient_system(pf, reference)
            inv_rows = solve_tridiagonal(sys.jac_sub, sys.jac_diag, sys.jac_sup, np.ones(n - 1))
            bound = 4.0 * trace.residual_floor * inv_rows + np.finfo(float).eps
            for _ in range(32):
                while True:
                    cuts = np.sort(rng.uniform(0.03, 0.97, n - 1))
                    if n == 2 or (np.diff(cuts) > 0.02).all():
                        break
                limit = self._damped_newton(pf, cuts, trace.residual_floor)
                assert (np.abs(limit - reference.interior) <= bound).all(), (p, cuts)

    def test_quadratic_from_a_custom_start_iterates(self):
        # newton_optimize always starts at equal spacing, which is the p = 2
        # optimum; from an unequal start the stationarity residual still has
        # that one zero, and Newton steps reach it
        pf = PowerFn(2.0, UNIT)
        _, trace = newton_optimize(pf, 5)
        start = [0.1, 0.3, 0.5, 0.9]
        sys = gradient_system(pf, Breakpoints.from_interior(UNIT, start))
        assert np.abs(sys.residual).max() > trace.residual_floor
        limit = self._damped_newton(pf, start, trace.residual_floor)
        np.testing.assert_allclose(limit, [0.2, 0.4, 0.6, 0.8], atol=1e-12)

    def test_takes_only_the_function_and_the_piece_count(self):
        # every run starts from equal spacing and has the same iteration limit
        assert list(inspect.signature(newton_optimize).parameters) == ["pf", "n"]

    def test_jacobian_inverse_nonnegative_along_canonical_run(self):
        # M-matrix structure: the inverse Jacobian keeps nonnegative entries
        for p in (1.5, 4.0):
            pf = PowerFn(p, UNIT)
            _, trace = newton_optimize(pf, 5)
            for bp in trace.iterates:
                inv = np.linalg.inv(gradient_system(pf, bp).jacobian())
                assert inv.min() >= -1e-10

    def test_max_iter_exceeded_carries_trace(self, monkeypatch):
        monkeypatch.setattr(placement, "_MAX_ITER", 2)
        with pytest.raises(MaxIterExceeded) as err:
            newton_optimize(PowerFn(8.0, UNIT), 10)
        assert err.value.trace is not None
        assert err.value.trace.iterations == 2
        assert err.value.trace.residual_floor > 0.0

    @pytest.mark.parametrize(
        "p, lower, upper, n",
        [(8.0, 0.0, 0.1, 5), (150.0, 0.0, 0.01, 5), (8.0, 0.0, 100.0, 20),
         (3.0, 1000.0, 1000.001, 4)],
    )
    def test_stops_at_the_residual_floor(self, p, lower, upper, n):
        # a tolerance of 1e-12 * upper**(p-1) took 32 iterates on the first
        # case, ran out of iterations on the second (x**149 underflows there;
        # the ratio-form terms do not), and stopped the last two at their start
        iv = Interval(lower, upper)
        bp, trace = newton_optimize(PowerFn(p, iv), n)
        floors = [_floor(p, it) for it in trace.iterates]
        assert trace.residual_floor == floors[-1]
        assert trace.converged and 1 <= trace.iterations <= 8
        assert trace.residual_norms[-1] <= floors[-1]
        assert trace.residual_norms[-2] > floors[-2]
        # p eps upper for the breakpoints' rounding plus a few p eps width,
        # below 16.5 p eps upper
        assert floors[-1] < 16.5 * p * EPS * upper
        assert trace.direction == "increasing"
        assert (bp.interior > Breakpoints.equally_spaced(iv, n).interior).all()

    @pytest.mark.parametrize("p, n", [(8.0, 20), (3.0, 10), (1.2, 10)])
    @pytest.mark.parametrize("c", [1e-3, 0.1, 10.0, 100.0, 1e4])
    def test_scale_equivariance(self, p, n, c):
        # the optimum on [0, c] is c times the one on [0, 1].  A run ends with
        # its residual within the floor, so the exact residual there is within
        # twice the floor, and coordinate k within 2 floor (J^-1 1)_k of the
        # optimum (J^-1 >= 0); the floor scales with c and J does not
        unit = PowerFn(p, UNIT)
        ref, trace = newton_optimize(unit, n)
        bp, _ = newton_optimize(PowerFn(p, Interval(0.0, c)), n)
        sys = gradient_system(unit, ref)
        inv_rows = solve_tridiagonal(sys.jac_sub, sys.jac_diag, sys.jac_sup, np.ones(n - 1))
        bound = 4.0 * trace.residual_floor * inv_rows + np.finfo(float).eps
        assert (np.abs(bp.interior / c - ref.interior) <= bound).all()

    @pytest.mark.parametrize("p", [1.2, 3.0, 8.0])
    @pytest.mark.parametrize("c", [1e-100, 1e-3, 1e3, 1e100])
    def test_scale_equivariance_at_extreme_scales(self, p, c):
        # the residual, its bands and its floor are homogeneous of degree 1
        # in the breakpoints, so the optimum on c [l, u] is c times the one
        # on [l, u], each within the bound of test_scale_equivariance
        for lower in (0.0, 0.3):
            unit = PowerFn(p, Interval(lower, 1.0))
            ref, trace = newton_optimize(unit, 10)
            bp, scaled = newton_optimize(PowerFn(p, Interval(lower * c, c)), 10)
            assert scaled.residual_floor == pytest.approx(c * trace.residual_floor, rel=1e-12)
            sys = gradient_system(unit, ref)
            inv_rows = solve_tridiagonal(sys.jac_sub, sys.jac_diag, sys.jac_sup, np.ones(9))
            bound = 4.0 * trace.residual_floor * inv_rows + EPS
            assert (np.abs(bp.interior / c - ref.interior) <= bound).all()

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    @pytest.mark.parametrize("offset", [1e2, 1e4, 1e6])
    def test_translated_optima_at_sixty_digits(self, p, offset):
        # on [L, L + w] the floor is about p eps L, the least residual float
        # breakpoints can reach; the evaluator is within 8 eps (t_up + t_dn)
        # of each entry, in units of the gaps between breakpoints, which
        # 60-digit cuts at the returned breakpoints confirm
        mpmath = pytest.importorskip("mpmath")
        width = 1e-3
        iv = Interval(offset * width, offset * width + width)
        bp, trace = newton_optimize(PowerFn(p, iv), 8)
        assert trace.residual_norms[-1] <= trace.residual_floor
        assert trace.residual_floor <= p * EPS * (iv.upper + 20.0 * width)
        st = _stationarity(bp.xi[None, :], np.array([p]))
        bound = np.abs(st.residual[0]) + 8.0 * EPS * (st.t_up[0] + st.t_dn[0])
        with mpmath.workdps(60):
            cuts = [t for t, _, _ in high_precision_cuts(mpmath, p, bp.xi)]
            x = [mpmath.mpf(v) for v in bp.xi.tolist()]
            exact = np.array([float(abs(p * (2 * x[k] - cuts[k - 1] - cuts[k])))
                              for k in range(1, 8)])
        assert (exact <= bound).all()

    def test_documented_domain_converges_to_the_floor(self):
        # p in [1 + 1e-6, 50], upper over seven decades, lower ends at 0,
        # inside and near upper, n up to 10**4; and p = 2 over 200 decades,
        # where the equally spaced start is the optimum
        rng = np.random.default_rng(41)
        for i in range(600):
            ratio = (0.0, rng.uniform(0.01, 0.99), 1.0 - 10.0 ** rng.uniform(-9.0, -3.0))[i % 3]
            n = 10_000 if i % 100 == 0 else int(round(10.0 ** rng.uniform(0.3, 3.5)))
            if i % 8 == 7:
                p, upper = 2.0, 10.0 ** rng.uniform(-100.0, 100.0)
            else:
                p = 1.0 + float(np.exp(rng.uniform(np.log(1e-6), np.log(49.0))))
                upper = 10.0 ** rng.uniform(-3.0, 4.0)
            lower = upper * ratio
            iv = Interval(lower, upper)
            bp, trace = newton_optimize(PowerFn(p, iv), n)
            case = (p, lower, upper, n)
            assert trace.converged, case
            assert trace.residual_norms[-1] <= trace.residual_floor, case
            assert trace.residual_floor == _floor(p, bp), case
            if p == 2.0:
                assert trace.iterations == 0, case
                assert trace.direction == "stationary-at-start", case
                assert bp.xi.tobytes() == Breakpoints.equally_spaced(iv, n).xi.tobytes()

    def test_huge_interval_raises_no_warning(self):
        # the power table squared x**(p-1) and overflowed here (warnings
        # fail the suite); the ratio-form terms stay finite, and p = 2
        # stops at its equally spaced start
        iv = Interval(0.0, 1e200)
        bp, trace = newton_optimize(PowerFn(2.0, iv), 3)
        assert (bp.xi == Breakpoints.equally_spaced(iv, 3).xi).all()
        assert trace.converged and math.isfinite(trace.residual_norms[0])

    def test_input_validation(self):
        with pytest.raises(DomainError):
            newton_optimize(PowerFn(3.0, UNIT), 1)


class TestNewtonFailures:
    """Each of the Newton loop's typed failures, from a single run and, where
    a sweep can meet it, from the lowest failing row of a sweep."""

    @staticmethod
    def _patch_stationarity(monkeypatch, edit):
        # the loop reads _stationarity from its module at call time
        real = placement._stationarity

        def patched(xi, p):
            st = real(xi, p)
            return st._replace(**edit(st, p))

        monkeypatch.setattr(placement, "_stationarity", patched)

    def test_unordered_start_raises(self):
        # the ulp at 1e16 is 2, so the equally spaced start repeats points
        iv = Interval(1e16, 1e16 + 4.0)
        with pytest.raises(DomainError, match="^breakpoints must be strictly increasing$"):
            newton_optimize(PowerFn(3.0, iv), 8)
        with pytest.raises(DomainError, match="^breakpoints must be strictly increasing$"):
            sweep_optimal_points(iv, 8, [1.5, 3.0])

    @pytest.mark.parametrize("p, moved", [(1.5, "increased"), (3.0, "decreased")])
    def test_no_floor_no_slack_raises_on_rounding(self, monkeypatch, p, moved):
        # with a zero floor the run never stops and the guard has no slack, so
        # rounding noise at the optimum reads as a step the wrong way
        self._patch_stationarity(monkeypatch, lambda st, p: {"floor": 0.0 * st.floor})
        with pytest.raises(MonotonicityViolated, match=f"^a coordinate {moved} at p={p};"):
            newton_optimize(PowerFn(p, UNIT), 10)

    def test_sweep_names_its_lowest_failing_row(self, monkeypatch):
        self._patch_stationarity(monkeypatch, lambda st, p: {"floor": 0.0 * st.floor})
        with pytest.raises(MonotonicityViolated, match="^a coordinate increased at p=1.1;"):
            sweep_optimal_points(Interval(0.3, 1.0), 10, np.geomspace(1.1, 8.0, 50))

    def test_singular_step_raises(self, monkeypatch):
        # a zero first divisor in the rows at p = 3: a one-row run, and a
        # sweep whose other row converges
        def zero_pivot(st, p):
            diag = st.jac_diag.copy()
            diag[p == 3.0, 0] = 0.0
            return {"jac_diag": diag}

        self._patch_stationarity(monkeypatch, zero_pivot)
        with pytest.raises(SingularJacobian, match="^zero pivot in row 0$"):
            newton_optimize(PowerFn(3.0, UNIT), 5)
        with pytest.raises(SingularJacobian, match="^zero pivot in row 0$"):
            sweep_optimal_points(UNIT, 5, [1.5, 3.0])
        assert sweep_optimal_points(UNIT, 5, [1.5]).interior.shape == (1, 4)

    def test_overlong_steps_leave_the_interior(self, monkeypatch):
        # a residual 1e30 times too large steps out of the interval; the run
        # does not halve its steps
        self._patch_stationarity(monkeypatch, lambda st, p: {"residual": 1e30 * st.residual})
        left = "^an iterate left the open ordered interior$"
        with pytest.raises(MonotonicityViolated, match=left):
            newton_optimize(PowerFn(3.0, UNIT), 5)


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

    @pytest.mark.parametrize(
        "p,lower,upper",
        [(1.001, 6.63392, 6.633921), (3.0, 1000.0, 1000.001), (1.2, 10.0, 10.0001),
         (1.5, 0.0, 1.0), (3.0, 0.2, 1.0), (8.0, 1.0, 1.5), (40.0, 1e-10, 1.0)],
    )
    def test_bracket_matches_high_precision_reference(self, p, lower, upper):
        # both ends within the interval and near their 60-digit values: the
        # tangents' cut within 4 eps * upper (the ratio form's bound), the
        # mean within (4 / (p - 1) + 4) eps * upper, as the (p - 1)-th root
        # multiplies the quotient's few ulps of rounding by 1 / (p - 1)
        mpmath = pytest.importorskip("mpmath")
        b = single_point_bounds(PowerFn(p, Interval(lower, upper)))
        with mpmath.workdps(60):
            q, lo, up = mpmath.mpf(p), mpmath.mpf(lower), mpmath.mpf(upper)
            cut = (q - 1) * (up**q - lo**q) / (q * (up ** (q - 1) - lo ** (q - 1)))
            mean = ((up**q - lo**q) / (q * (up - lo))) ** (1 / (q - 1))
            cut, mean = float(cut), float(mean)
        eps = np.finfo(float).eps
        assert lower <= b.lower <= b.upper <= upper
        # the two ends may lie closer than the mean's rounding, so either may
        # be the lower one
        tol_cut, tol_mean = 4.0 * eps * upper, (4.0 / (p - 1.0) + 4.0) * eps * upper
        assert any(abs(c - cut) <= tol_cut and abs(m - mean) <= tol_mean
                   for c, m in ((b.lower, b.upper), (b.upper, b.lower)))

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

    def test_exponent_bound_is_powerfn_s(self):
        # below PowerFn's 1 + 1e-9 the (p-1)-th root inflates rounding: at t =
        # 0.9 the gap read 0.003467 at p = 1 + 1e-12, against 0.004389 at 1 + 1e-9
        with pytest.raises(DomainError, match=r"^exponent must be at least 1\.000000001, got"):
            bracket_gap(1.0 + 1e-12, 0.9)
        assert bracket_gap(1.0 + 1e-9, 0.9).value == pytest.approx(0.004389, rel=1e-3)
        with pytest.raises(DomainError, match=r"^exponent must be at least 1\.000000001, got 1\.0$"):
            sweep_optimal_points(UNIT, 5, [1.0, 2.0])


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

    @pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (0.15, 1.0), (1000.0, 1000.001)])
    def test_starts_are_the_equal_spacing(self, lower, upper):
        # both solvers start from Breakpoints.equally_spaced, bit for bit,
        # and at p = 2 stop there
        iv = Interval(lower, upper)
        for n in (2, 7, 200):
            want = Breakpoints.equally_spaced(iv, n).xi
            bp, trace = newton_optimize(PowerFn(2.0, iv), n)
            assert bp.xi.tobytes() == trace.iterates[0].xi.tobytes() == want.tobytes()
            got = sweep_optimal_points(iv, n, [2.0]).interior[0]
            assert got.tobytes() == want[1:-1].tobytes()
        _, trace = newton_optimize(PowerFn(3.0, iv), 7)
        assert trace.iterates[0].xi.tobytes() == Breakpoints.equally_spaced(iv, 7).xi.tobytes()

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

    @pytest.mark.parametrize("n, grid", [(5, [150.0]), (5, [3.0, 150.0]), (20, [150.0, 160.0])])
    def test_underflowing_slopes_rows_equal_single_solves(self, n, grid):
        # x**149 underflows on [0, 0.01]: p = 150 ran out of iterations under
        # a tolerance of 1e-12 * upper**(p-1), which underflows to 0 at p = 160
        iv = Interval(0.0, 0.01)
        rows, err = self._row_by_row(iv, n, grid)
        assert err is None
        assert (sweep_optimal_points(iv, n, grid).interior == rows).all()

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 3, [])
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 3, [0.5, 2.0])
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 3, [2.0, 1.5])
        with pytest.raises(DomainError):
            sweep_optimal_points(UNIT, 0, [2.0, 3.0])

    def test_every_exponent_must_be_finite(self):
        # the grid increases, so only its last exponent can be infinite
        for grid in ([2.0, math.inf], [math.inf]):
            with pytest.raises(DomainError, match="exponent must be finite"):
                sweep_optimal_points(UNIT, 3, grid)


def concave_surrogate(pf: PowerFn, xi1: float) -> tuple[float, float]:
    """Log-concave surrogate for single-point placement at ``p > 2``.

    Returns ``(value, offset)`` where ``value = offset - volume`` for the
    three-point breakpoints ``(lower, xi1, upper)``.  The offset makes the
    surrogate positive on the open interval and strictly log-concave, so
    maximizing it finds the unique volume minimizer even though the volume
    itself is only quasiconvex there.
    """
    p = pf.p
    if not p > 2.0:
        raise DomainError("the surrogate requires p > 2")
    lo, up = pf.interval.lower, pf.interval.upper
    if not lo < xi1 < up:
        raise DomainError("xi1 must lie strictly inside the interval")
    offset = (
        ((p - 1.0) * up**p + lo**p - p * up ** (p - 1.0) * lo)
        * (up**p + (p - 1.0) * lo**p - p * up * lo ** (p - 1.0))
        / (6.0 * p * (up ** (p - 1.0) - lo ** (p - 1.0)))
    )
    vol = volume_power_closed_form(pf, Breakpoints.from_interior(pf.interval, [xi1]))
    return offset - vol, offset


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
