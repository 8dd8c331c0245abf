import math

import numpy as np
import pytest
from conftest import random_power_instance

from perspex import (
    Breakpoints,
    ConvexFunction,
    DegenerateTangents,
    DomainError,
    HypothesisViolated,
    Interval,
    PowerFn,
    RelaxationKind,
    bordered_hessian_eigs,
    build_underestimator,
    gradient_system,
    newton_optimize,
    power_curvature_terms,
    refinement_thresholds,
    volume_extended_naive_quadratic,
    volume_naive_quadratic,
    volume_perspective_quadratic,
    volume_pl_extended_naive,
    volume_pl_perspective,
    volume_power_closed_form,
    volume_quadratic,
)
from perspex.power import closed_form_volume

UNIT = Interval(0.0, 1.0)

# evaluated once by hand from the quadratic sum formula, strictly above 1/16
VOL_QUAD_SKEWED = 0.8125 / 12.0
# closed form at p=3, breakpoints (0, 0.618034, 1); cross-checked against the
# fan triangulation (1e-15) and the MC oracle in the acceptance suite
VOL_P3_GOLDEN = 0.09107334583345017


def _interior_grad(pf, bp):
    return gradient_system(pf, bp).grad


class TestQuadraticVolume:
    def test_examples(self):
        assert volume_quadratic(Breakpoints(UNIT, [0.0, 0.5, 1.0])) == pytest.approx(
            1.0 / 16.0, rel=1e-14
        )
        mid = Breakpoints(Interval(1.0, 2.0), [1.0, 1.5, 2.0])
        assert volume_quadratic(mid) == pytest.approx(1.0 / 18.0 + 1.0 / 144.0, rel=1e-14)
        skew = Breakpoints(UNIT, [0.0, 0.25, 1.0])
        assert volume_quadratic(skew) == pytest.approx(VOL_QUAD_SKEWED, rel=1e-14)
        assert volume_quadratic(skew) > 1.0 / 16.0

    def test_equal_spacing_formula_any_n(self):
        iv = Interval(0.25, 1.75)
        w = iv.width
        for n in range(1, 12):
            bp = Breakpoints.equally_spaced(iv, n)
            expected = w**3 / 18.0 + w**3 / (36.0 * n * n)
            assert volume_quadratic(bp) == pytest.approx(expected, rel=1e-13)

    def test_matches_general_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            _, bp = random_power_instance(rng)
            pf = PowerFn(2.0, bp.interval)
            assert volume_power_closed_form(pf, bp) == pytest.approx(
                volume_quadratic(bp), rel=1e-13
            )

    def test_near_two_routing_is_continuous(self):
        bp = Breakpoints(UNIT, [0.0, 0.3, 1.0])
        v2 = volume_power_closed_form(PowerFn(2.0, UNIT), bp)
        v2eps = volume_power_closed_form(PowerFn(2.0 + 1e-9, UNIT), bp)
        assert v2eps == pytest.approx(v2, rel=1e-7)


class TestClosedForm:
    def test_examples(self):
        assert volume_power_closed_form(
            PowerFn(2.0, UNIT), Breakpoints.equally_spaced(UNIT, 2)
        ) == pytest.approx(1.0 / 16.0, rel=1e-14)
        assert volume_power_closed_form(
            PowerFn(2.0, UNIT), Breakpoints(UNIT, [0.0, 1.0])
        ) == pytest.approx(1.0 / 12.0, rel=1e-14)
        golden = Breakpoints(UNIT, [0.0, 0.618034, 1.0])
        assert volume_power_closed_form(PowerFn(3.0, UNIT), golden) == pytest.approx(
            VOL_P3_GOLDEN, rel=1e-13
        )

    def test_far_from_origin_stays_accurate(self):
        # the geometric route translates the fan root to the origin, so the
        # two must keep agreeing when the interval sits far from zero
        rng = np.random.default_rng(223)
        for _ in range(50):
            p = 1.0 + 6.0 * rng.random()
            lower = 30.0 + 40.0 * rng.random()
            iv = Interval(lower, lower + 0.5 + 2.0 * rng.random())
            n = int(rng.integers(1, 6))
            while True:
                cuts = np.sort(rng.uniform(0.05, 0.95, n - 1))
                if n == 1 or (np.diff(np.concatenate(([0.0], cuts, [1.0]))) > 0.02).all():
                    break
            bp = Breakpoints(
                iv, np.concatenate(([iv.lower], iv.lower + iv.width * cuts, [iv.upper]))
            )
            pf = PowerFn(p, iv)
            closed = volume_power_closed_form(pf, bp)
            geo = volume_pl_perspective(build_underestimator(pf.oracle(), bp))
            assert geo == pytest.approx(closed, rel=5e-9)

    def test_underflowing_slopes_raise(self):
        # on [0, 0.01] at p = 150, x**(p-1) underflows to 0 at the first
        # breakpoints, so every tangent-pair formula would divide by zero;
        # both raise before forming a NaN (warnings fail the suite)
        pf = PowerFn(150.0, Interval(0.0, 0.01))
        bp = Breakpoints.equally_spaced(pf.interval, 5)
        with pytest.raises(DegenerateTangents):
            volume_power_closed_form(pf, bp)
        with pytest.raises(DegenerateTangents):
            gradient_system(pf, bp)

    def test_interval_mismatch(self):
        with pytest.raises(DomainError):
            volume_power_closed_form(
                PowerFn(3.0, Interval(0.0, 2.0)), Breakpoints(UNIT, [0.0, 1.0])
            )


class TestGradient:
    def test_quadratic_partial_formula(self):
        # p=2 collapses to (xi[i+1]-xi[i-1]) * (2 xi[i]-xi[i+1]-xi[i-1]) / 12
        rng = np.random.default_rng(22)
        for _ in range(40):
            _, bp = random_power_instance(rng, n_min=2)
            xi = bp.xi
            grad = _interior_grad(PowerFn(2.0, bp.interval), bp)
            expected = (xi[2:] - xi[:-2]) * (2.0 * xi[1:-1] - xi[2:] - xi[:-2]) / 12.0
            np.testing.assert_allclose(grad, expected, rtol=1e-11, atol=1e-14)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            pf, bp = random_power_instance(rng, n_min=2)
            grad = _interior_grad(pf, bp)
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
            assert float(np.abs(grad - fd).max()) <= 1e-5 * scale

    def test_residual_and_gradient_share_signs(self):
        # grad_i is the residual times a positive factor, entry by entry
        rng = np.random.default_rng(222)
        for _ in range(40):
            pf, bp = random_power_instance(rng, n_min=2)
            sys = gradient_system(pf, bp)
            big = np.abs(sys.residual) > 1e-9
            assert (np.sign(sys.grad[big]) == np.sign(sys.residual[big])).all()

    def test_residual_zero_iff_gradient_zero_at_golden(self):
        golden = Breakpoints.from_interior(UNIT, [(math.sqrt(5.0) - 1.0) / 2.0])
        sys = gradient_system(PowerFn(3.0, UNIT), golden)
        assert abs(sys.residual[0]) < 1e-14
        assert abs(sys.grad[0]) < 1e-14

    def test_needs_interior_point(self):
        with pytest.raises(DomainError):
            gradient_system(PowerFn(3.0, UNIT), Breakpoints(UNIT, [0.0, 1.0]))


class TestHessian:
    def test_known_two_by_two(self):
        sys = gradient_system(PowerFn(1.5, UNIT), Breakpoints(UNIT, [0.0, 0.2, 0.8, 1.0]))
        np.testing.assert_allclose(
            sys.hessian(),
            [[0.1366, -0.0621], [-0.0621, 0.0587]],
            rtol=0,
            atol=5e-4,
        )

    def test_not_diagonally_dominant_there(self):
        # the off-diagonal exceeds the second diagonal entry at this point
        sys = gradient_system(PowerFn(1.5, UNIT), Breakpoints(UNIT, [0.0, 0.2, 0.8, 1.0]))
        h = sys.hessian()
        assert abs(h[1, 0]) > h[1, 1]

    def test_matches_fd_of_gradient(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            pf, bp = random_power_instance(rng, n_min=2, n_max=6)
            sys = gradient_system(pf, bp)
            h = 1e-6 * bp.interval.width
            m = sys.grad.size
            fd = np.empty((m, m))
            for j in range(m):
                up = bp.xi.copy()
                dn = bp.xi.copy()
                up[1 + j] += h
                dn[1 + j] -= h
                fd[:, j] = (
                    _interior_grad(pf, Breakpoints(bp.interval, up))
                    - _interior_grad(pf, Breakpoints(bp.interval, dn))
                ) / (2.0 * h)
            scale = max(float(np.abs(sys.hessian()).max()), 1e-12)
            assert float(np.abs(sys.hessian() - fd).max()) <= 1e-5 * scale

    def test_jacobian_matches_fd_of_residual(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            pf, bp = random_power_instance(rng, n_min=2, n_max=6)
            sys = gradient_system(pf, bp)
            h = 1e-6 * bp.interval.width
            m = sys.residual.size
            fd = np.empty((m, m))
            for j in range(m):
                up = bp.xi.copy()
                dn = bp.xi.copy()
                up[1 + j] += h
                dn[1 + j] -= h
                fd[:, j] = (
                    gradient_system(pf, Breakpoints(bp.interval, up)).residual
                    - gradient_system(pf, Breakpoints(bp.interval, dn)).residual
                ) / (2.0 * h)
            scale = max(float(np.abs(sys.jacobian()).max()), 1e-12)
            assert float(np.abs(sys.jacobian() - fd).max()) <= 1e-5 * scale

    def test_jacobian_diagonal_alternate_identity(self):
        # diag = W(lo, mid) + W(mid, hi) - left offdiag - right offdiag, with
        # W(y, z) = 1 - (p-1)^2 (yz)^(p-2) (y-z)^2 / (y^(p-1) - z^(p-1))^2
        rng = np.random.default_rng(210)
        for _ in range(30):
            pf, bp = random_power_instance(rng, n_min=3, positive_lower=True)
            p, xi = pf.p, bp.xi
            sys = gradient_system(pf, bp)

            def w_term(y, z):
                num = (y ** (p - 1.0) - z ** (p - 1.0)) ** 2 - (p - 1.0) ** 2 * y ** (
                    p - 2.0
                ) * z ** (p - 2.0) * (y - z) ** 2
                return num / (y ** (p - 1.0) - z ** (p - 1.0)) ** 2

            def d_neighbor(mid, nb):
                num = (p - 1.0) * mid**p + nb**p - p * mid ** (p - 1.0) * nb
                return -(p - 1.0) * nb ** (p - 2.0) * num / (
                    mid ** (p - 1.0) - nb ** (p - 1.0)
                ) ** 2

            alt = np.array(
                [
                    w_term(xi[k - 1], xi[k])
                    + w_term(xi[k], xi[k + 1])
                    - d_neighbor(xi[k], xi[k - 1])
                    - d_neighbor(xi[k], xi[k + 1])
                    for k in range(1, bp.n)
                ]
            )
            np.testing.assert_allclose(sys.jac_diag, alt, rtol=1e-9, atol=1e-12)

    @staticmethod
    def _reference(mpmath, p, xi):
        """Couplings and Hessian diagonal from their defining formulas, 60 digits."""
        with mpmath.workdps(60):
            p = mpmath.mpf(p)
            q = p - 1
            x = [mpmath.mpf(v) for v in xi.tolist()]

            def coupling(lo, hi):
                n1 = q * hi**p + lo**p - p * hi**q * lo
                n2 = hi**p + q * lo**p - p * hi * lo**q
                return q**2 / (3 * p) * (lo * hi) ** (p - 2) * n1 * n2 / (hi**q - lo**q) ** 3

            def tangent(mid, nb):
                return (mid**p + q * nb**p - p * mid * nb**q) / abs(nb**q - mid**q)

            c = [coupling(lo, hi) for lo, hi in zip(x[:-1], x[1:])]
            diag = []
            for k in range(1, len(x) - 1):
                lo, mid, hi = x[k - 1 : k + 2]
                grad = -q / (6 * p) * mid ** (p - 2) * (tangent(mid, hi) ** 2 - tangent(mid, lo) ** 2)
                diag.append(p / mid * grad + lo / mid * c[k - 1] + hi / mid * c[k])
            return np.array([float(v) for v in c]), np.array([float(v) for v in diag])

    def test_matches_high_precision_couplings(self):
        # float64 couplings lose accuracy to the cancelling numerators n1
        # and n2: at worst 3.4e-9 on this grid, 2.9e-7 over 5800 grids
        # drawn the same way
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(211)
        for _ in range(100):
            pf, bp = random_power_instance(rng, n_min=2, n_max=30, positive_lower=True)
            sys = gradient_system(pf, bp)
            coupling, diag = self._reference(mpmath, pf.p, bp.xi)
            np.testing.assert_allclose(sys.coupling, coupling, rtol=1e-6, atol=0)
            np.testing.assert_allclose(sys.hess_offdiag, coupling[1:-1], rtol=1e-6, atol=0)
            np.testing.assert_allclose(sys.hess_diag, diag, rtol=1e-6, atol=0)

    def test_couplings_positive(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            pf, bp = random_power_instance(rng, n_min=2, positive_lower=True)
            sys = gradient_system(pf, bp)
            assert (sys.coupling > 0.0).all()
            assert sys.b0 >= 0.0

    def test_boundary_coupling_at_zero_lower(self):
        bp = Breakpoints(UNIT, [0.0, 0.3, 1.0])
        assert gradient_system(PowerFn(3.0, UNIT), bp).b0 == 0.0
        assert gradient_system(PowerFn(2.0, UNIT), bp).b0 == pytest.approx(0.05)
        sub2 = gradient_system(PowerFn(1.5, UNIT), bp)
        assert math.isinf(sub2.b0)
        assert np.isfinite(sub2.hessian()).all()


class TestBorderedHessian:
    def test_known_eigenvalues(self):
        eigs = bordered_hessian_eigs(PowerFn(3.0, UNIT), Breakpoints(UNIT, [0.0, 0.2, 0.8, 1.0]))
        np.testing.assert_allclose(eigs, [-0.03950, -0.00086, 0.30807], rtol=0, atol=5e-4)

    def test_output_length_is_n(self):
        bp = Breakpoints.equally_spaced(Interval(0.5, 2.0), 5)
        shifted = Breakpoints(bp.interval, bp.xi + np.array([0, 0.01, -0.02, 0.03, 0.01, 0]))
        eigs = bordered_hessian_eigs(PowerFn(3.0, bp.interval), shifted)
        assert eigs.size == shifted.n

    def test_quadratic_has_exactly_one_negative(self):
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(25):
            _, bp = random_power_instance(rng, n_min=3, n_max=3)
            try:
                eigs = bordered_hessian_eigs(PowerFn(2.0, bp.interval), bp)
            except DomainError:  # landed too close to equal spacing
                continue
            assert int((eigs < 0.0).sum()) == 1
            checked += 1
        assert checked >= 20

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            bordered_hessian_eigs(PowerFn(3.0, UNIT), Breakpoints(UNIT, [0.0, 0.5, 1.0]))

    def test_rejects_stationary_point(self):
        bp, _ = newton_optimize(PowerFn(3.0, UNIT), 3)
        with pytest.raises(DomainError):
            bordered_hessian_eigs(PowerFn(3.0, UNIT), bp)


class TestQuadraticSpecials:
    def test_naive(self):
        assert volume_naive_quadratic(UNIT) == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert volume_naive_quadratic(Interval(1.0, 2.0)) == pytest.approx(
            1.0 / 18.0 + 7.0 / 36.0, rel=1e-14
        )

    def test_perspective(self):
        assert volume_perspective_quadratic(UNIT) == pytest.approx(1.0 / 18.0, rel=1e-14)
        assert volume_perspective_quadratic(Interval(2.0, 5.0)) == pytest.approx(1.5, rel=1e-14)

    def test_naive_equals_single_piece_at_zero_lower(self):
        assert volume_quadratic(Breakpoints(UNIT, [0.0, 1.0])) == pytest.approx(
            volume_naive_quadratic(UNIT), rel=1e-14
        )

    def test_pl_pr_below_naive_with_known_equality_cases(self):
        rng = np.random.default_rng(28)
        for lower in (0.0, 0.5, 1.0):
            for width in (1.0, 2.0):
                iv = Interval(lower, lower + width)
                nr = volume_naive_quadratic(iv)
                for n in range(1, 6):
                    vol = volume_quadratic(Breakpoints.equally_spaced(iv, n))
                    if n == 1 and lower == 0.0:
                        assert vol == pytest.approx(nr, rel=1e-14)
                    else:
                        assert vol < nr - 1e-12
        for _ in range(40):
            _, bp = random_power_instance(rng)
            assert volume_quadratic(bp) <= volume_naive_quadratic(bp.interval) + 1e-12

    def test_equal_spacing_converges_to_perspective(self):
        iv = Interval(0.5, 2.5)
        n = 1000
        vol = volume_quadratic(Breakpoints.equally_spaced(iv, n))
        gap = iv.width**3 / (36.0 * n * n)
        assert vol - volume_perspective_quadratic(iv) == pytest.approx(gap, rel=1e-9)


class TestClosedFormDispatch:
    IV = Interval(0.2, 1.0)

    def test_every_kind_at_two(self):
        pf = PowerFn(2.0, self.IV)
        bp = Breakpoints.equally_spaced(self.IV, 3)
        expected = {
            RelaxationKind.NR: volume_naive_quadratic(self.IV),
            RelaxationKind.PR: volume_perspective_quadratic(self.IV),
            RelaxationKind.PL_PR: volume_power_closed_form(pf, bp),
            RelaxationKind.E_NR: volume_extended_naive_quadratic(self.IV),
            RelaxationKind.PL_E_NR: volume_pl_extended_naive(pf.oracle(), bp),
        }
        for kind, vol in expected.items():
            plain = kind in (RelaxationKind.NR, RelaxationKind.PR, RelaxationKind.E_NR)
            assert closed_form_volume(kind, pf, None if plain else bp) == vol

    def test_none_without_a_closed_form(self):
        pf = PowerFn(3.0, self.IV)
        bp = Breakpoints.equally_spaced(self.IV, 3)
        for kind in (RelaxationKind.NR, RelaxationKind.PR, RelaxationKind.E_NR):
            assert closed_form_volume(kind, pf, None) is None
        assert closed_form_volume(RelaxationKind.PL_PR, pf, bp) == volume_power_closed_form(
            pf, bp
        )


class TestExtendedNaive:
    def test_quadratic_limit_formula(self):
        assert volume_extended_naive_quadratic(UNIT) == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert volume_extended_naive_quadratic(Interval(0.5, 1.0)) == pytest.approx(
            0.3125 / 12.0, rel=1e-14
        )

    @pytest.mark.parametrize("lower,upper,n", [(0.5, 1.0, 2), (0.5, 1.0, 7), (0.25, 2.0, 3), (0.0, 1.0, 4)])
    def test_pl_matches_equal_spacing_formula(self, lower, upper, n):
        iv = Interval(lower, upper)
        pf = PowerFn(2.0, iv)
        vol = volume_pl_extended_naive(pf.oracle(), Breakpoints.equally_spaced(iv, n))
        w, u = iv.width, iv.upper
        expected = w * w * (u * u + lower * lower) / (12.0 * u) + w**4 / (24.0 * n * n * u)
        assert vol == pytest.approx(expected, rel=1e-12)

    def test_frozen_example(self):
        iv = Interval(0.5, 1.0)
        vol = volume_pl_extended_naive(PowerFn(2.0, iv).oracle(), Breakpoints.equally_spaced(iv, 2))
        assert vol == pytest.approx(0.25 * 1.25 / 12.0 + 0.0625 / 96.0, rel=1e-13)

    def test_many_pieces_approach_the_limit(self):
        iv = Interval(0.5, 1.0)
        n = 1000
        vol = volume_pl_extended_naive(PowerFn(2.0, iv).oracle(), Breakpoints.equally_spaced(iv, n))
        gap = iv.width**4 / (24.0 * n * n * iv.upper)
        assert vol - volume_extended_naive_quadratic(iv) == pytest.approx(gap, rel=1e-6)

    def test_slope_hypothesis_violation(self):
        iv = Interval(0.5, 1.0)
        shifted = ConvexFunction(fn=lambda x: x * x + 1.0, deriv=lambda x: 2.0 * x, interval=iv)
        with pytest.raises(HypothesisViolated):
            volume_pl_extended_naive(shifted, Breakpoints.equally_spaced(iv, 2))

    def test_decreasing_function_rejected(self):
        iv = Interval(0.0, 0.5)
        falling = ConvexFunction(
            fn=lambda x: (1.0 - x) ** 2, deriv=lambda x: 2.0 * x - 2.0, interval=iv
        )
        with pytest.raises(HypothesisViolated):
            volume_pl_extended_naive(falling, Breakpoints.equally_spaced(iv, 2))


class TestThresholds:
    def test_unit_interval_example(self):
        n1, n2, ratio = refinement_thresholds(UNIT, 1e-3)
        assert (n1, n2) == (7, 6)
        assert ratio == pytest.approx(math.sqrt(1.5), rel=1e-14)

    def test_ratio_one_at_one_third(self):
        _, _, ratio = refinement_thresholds(Interval(1.0, 3.0), 1e-3)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_bounds_are_strict(self):
        # the returned counts make the gaps strictly smaller than the target
        for iv in (UNIT, Interval(0.5, 1.0)):
            for gap in (1e-2, 1e-3, 1e-4):
                n1, n2, _ = refinement_thresholds(iv, gap)
                w, u = iv.width, iv.upper
                assert w**4 / (24.0 * n1 * n1 * u) < gap
                assert w**3 / (36.0 * n2 * n2) < gap

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(DomainError):
            refinement_thresholds(UNIT, 0.0)


class TestCurvatureTerms:
    def test_sub_quadratic_sample(self):
        terms = power_curvature_terms(1.5, 0.5)
        assert terms.curvature_gap > 0.0

    def test_cubic_sample(self):
        terms = power_curvature_terms(3.0, 0.5)
        assert terms.curvature_gap < 0.0
        assert terms.slope_mean_gap > 0.0
        assert terms.tangent_excess > 0.0
        assert terms.envelope_excess > 0.0
        assert terms.log_weighted_gap > 0.0

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0])
    def test_all_vanish_at_one(self, p):
        terms = power_curvature_terms(p, 1.0)
        values = (
            terms.tangent_excess,
            terms.envelope_excess,
            terms.curvature_gap,
            terms.slope_mean_gap,
            terms.log_weighted_gap,
        )
        assert values == pytest.approx((0.0,) * 5, abs=1e-12)

    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0])
    def test_sign_pattern_grid(self, p):
        xs = np.concatenate((np.linspace(0.05, 0.95, 10), np.linspace(1.05, 3.0, 10)))
        for x in xs:
            terms = power_curvature_terms(p, float(x))
            assert terms.tangent_excess > 0.0
            assert terms.envelope_excess > 0.0
            assert terms.log_weighted_gap > 0.0
            inside = x < 1.0
            if p < 2.0:
                assert (terms.curvature_gap > 0.0) == inside
                assert terms.slope_mean_gap < 0.0
            else:
                assert (terms.curvature_gap < 0.0) == inside
                assert terms.slope_mean_gap > 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            power_curvature_terms(1.0, 0.5)
        with pytest.raises(DomainError):
            power_curvature_terms(3.0, 0.0)


class TestConvexityBelowTwo:
    def test_midpoint_inequality(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            pf, bp = random_power_instance(rng, p_max=2.0, n_min=2)
            other = np.sort(
                bp.interval.lower + bp.interval.width * rng.uniform(0.02, 0.98, bp.n - 1)
            )
            if (np.diff(other) < 1e-4).any():
                continue
            pm = Breakpoints.from_interior(bp.interval, other)
            half = Breakpoints.from_interior(bp.interval, 0.5 * (bp.interior + pm.interior))
            lhs = volume_power_closed_form(pf, half)
            rhs = 0.5 * (
                volume_power_closed_form(pf, bp) + volume_power_closed_form(pf, pm)
            )
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)
