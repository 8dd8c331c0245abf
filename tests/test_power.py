import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    BAND_ULPS,
    NARROW_GRIDS,
    band_excess,
    cut_slack,
    high_precision_cuts,
    random_power_instance,
)

from perspex import (
    Breakpoints,
    ConvexFunction,
    DomainError,
    HypothesisViolated,
    Interval,
    PowerFn,
    RelaxationKind,
    bordered_hessian_eigs,
    build_underestimator,
    gradient_system,
    newton_optimize,
    refinement_thresholds,
    volume_extended_naive_quadratic,
    volume_naive_quadratic,
    volume_perspective_quadratic,
    volume_pl_extended_naive,
    volume_pl_perspective,
    volume_power_closed_form,
    volume_quadratic,
)
from perspex.power import (
    _cut_terms,
    _span_integral,
    _stationarity,
    _tangent_cuts,
    closed_form_volume,
)

UNIT = Interval(0.0, 1.0)

# evaluated once by hand from the quadratic sum formula, strictly above 1/16
VOL_QUAD_SKEWED = 0.8125 / 12.0
# closed form at p=3, breakpoints (0, 0.618034, 1); cross-checked against the
# fan triangulation (1e-15) and the MC oracle in the acceptance suite
VOL_P3_GOLDEN = 0.09107334583345017


def _interior_grad(pf, bp):
    return gradient_system(pf, bp).grad


def _exact_quadratic(bp):
    """``volume_quadratic`` in exact rationals on its float breakpoints."""
    xi = [Fraction(float(x)) for x in bp.xi]
    h3 = sum((b - a) ** 3 for a, b in zip(xi, xi[1:]))
    return ((xi[-1] - xi[0]) ** 3 + h3 / 2) / 18


def _exact_naive_quadratic(iv):
    """``volume_naive_quadratic`` in exact rationals on its float endpoints."""
    lo, up = Fraction(iv.lower), Fraction(iv.upper)
    return (up - lo) ** 3 / 18 + (up**3 - lo**3) / 36


class TestPowerFn:
    def test_exponent_must_be_finite(self):
        # x**inf would read 0 below 1 and 1 at 1: not a convex power
        with pytest.raises(DomainError, match="exponent must be finite"):
            PowerFn(math.inf, UNIT)


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

    def test_matches_exact_rationals(self):
        # narrow intervals far from zero, where a difference of cubes cancels
        rng = np.random.default_rng(41)
        grids = [
            Breakpoints.equally_spaced(Interval(1000.0, 1000.001), 3),
            Breakpoints.equally_spaced(Interval(10.0, 10.0001), 160),
        ] + [random_power_instance(rng)[1] for _ in range(100)]
        for bp in grids:
            for got, exact in (
                (volume_quadratic(bp), _exact_quadratic(bp)),
                (volume_naive_quadratic(bp.interval), _exact_naive_quadratic(bp.interval)),
            ):
                assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact, bp.xi

    def test_general_form_at_fifty_digits(self):
        # volume_quadratic is the general form at p = 2, which integrates
        # each half-piece over its length theta (b - a), not over the rounded
        # cut's t - a, which is 9.4e-14 off on the first grid
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(43)
        grids = [Breakpoints.equally_spaced(Interval(1e6, 1e6 + 1e-3), 3)]
        for lower, width in ((1e6, 1e-3), (1000.0, 1e-3), (10.0, 1e-4), (0.0, 1.0), (0.3, 0.7)):
            for n in (2, 7, 40):
                iv = Interval(lower, lower + width)
                interior = np.sort(rng.uniform(iv.lower, iv.upper, n - 1))
                grids.append(Breakpoints.from_interior(iv, interior))
        for bp in grids:
            with mpmath.workdps(50):
                x = [mpmath.mpf(v) for v in bp.xi.tolist()]
                gaps = [b - a for a, b in zip(x[:-1], x[1:])]
                exact = (x[-1] - x[0]) ** 3 / 18 + sum(g**3 for g in gaps) / 36
                vol = volume_power_closed_form(PowerFn(2.0, bp.interval), bp)
                err = abs(mpmath.mpf(vol) - exact) / exact
            assert err <= 1e-15, bp.xi
            assert volume_quadratic(bp) == vol

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

    @staticmethod
    def _reference(mpmath, p, xi):
        """A third of the area between the chord and the tangents, at 60
        digits from the float breakpoints."""
        with mpmath.workdps(60):
            p = mpmath.mpf(p)
            x = [mpmath.mpf(v) for v in xi.tolist()]
            f = [v**p for v in x]
            d = [p * v ** (p - 1) for v in x]
            area = (x[-1] - x[0]) * (f[0] + f[-1]) / 2
            for k in range(len(x) - 1):
                t = (f[k + 1] - f[k] - x[k + 1] * d[k + 1] + x[k] * d[k]) / (d[k] - d[k + 1])
                area -= (f[k] + d[k] * (t - x[k]) / 2) * (t - x[k])
                area -= (f[k + 1] + d[k + 1] * (t - x[k + 1]) / 2) * (x[k + 1] - t)
            return area / 3

    # (p, lower, upper, n, at the Newton optimum rather than equally spaced)
    REFERENCE_CASES = [
        (3.0, 1.0, 1.001, 4, False), (3.0, 1000.0, 1000.001, 4, False),
        (1.2, 10.0, 10.0001, 30, False), (3.0, 0.0, 1e55, 3, False), (1.05, 1e-9, 1.0, 7, False),
        (40.0, 0.5, 2.0, 9, False), (40.0, 1e-10, 1.0, 5, False),
        (3.7, 0.0, 1.0, 200, True), (1.5, 0.15, 1.0, 1250, True),
    ]

    @pytest.mark.parametrize(
        "p,lower,upper,n,optimal", REFERENCE_CASES,
        ids=["-".join(map(str, c[:4])) + ("-newton" if c[4] else "") for c in REFERENCE_CASES],
    )
    def test_matches_high_precision_reference(self, p, lower, upper, n, optimal):
        # a sum of nonnegative terms: nothing cancels on narrow intervals
        # far from zero (the difference-of-powers form was off by a relative
        # 1.3e-7, 71 and 2.1 on the first three), nothing grows faster than
        # the volume (it gave -inf on [0, 1e55]), and many small pieces at
        # the optimum add no rounding of their own
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(lower, upper)
        if optimal:
            bp = newton_optimize(PowerFn(p, iv), n)[0]
        else:
            bp = Breakpoints.equally_spaced(iv, n)
        got = volume_power_closed_form(PowerFn(p, iv), bp)
        want = self._reference(mpmath, p, bp.xi)
        assert abs(got - want) <= 1e-14 * want

    def test_matches_high_precision_reference_on_random_grids(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(41)
        for _ in range(60):
            pf, bp = random_power_instance(rng)
            want = self._reference(mpmath, pf.p, bp.xi)
            assert abs(volume_power_closed_form(pf, bp) - want) <= 2e-15 * want

    def test_underflowing_slopes_scale_from_the_unit_interval(self):
        # on [0, 0.01] at p = 150, x**(p-1) underflows to 0 at the first
        # breakpoints; the ratio-form cuts divide by nothing that underflows,
        # so the volume is 0.01**151 times the [0, 1] one (each within 2e-15
        # of mpmath, the random-grid bound above) and the residual, a length
        # times 2p, 0.01 times it (each within 4 * 2p eps upper)
        p = 150.0
        pf = PowerFn(p, Interval(0.0, 0.01))
        bp = Breakpoints.equally_spaced(pf.interval, 5)
        unit = PowerFn(p, UNIT)
        unit_bp = Breakpoints.equally_spaced(UNIT, 5)
        want = 0.01**151 * volume_power_closed_form(unit, unit_bp)
        assert volume_power_closed_form(pf, bp) == pytest.approx(want, rel=4e-15, abs=0)
        got = gradient_system(pf, bp).residual
        want = 0.01 * gradient_system(unit, unit_bp).residual
        assert np.abs(got - want).max() <= 2.0 * 4.0 * 2.0 * p * np.finfo(float).eps * 0.01

    def test_interval_mismatch(self):
        with pytest.raises(DomainError):
            volume_power_closed_form(
                PowerFn(3.0, Interval(0.0, 2.0)), Breakpoints(UNIT, [0.0, 1.0])
            )


class TestCutFractions:
    """The tangent cut as the fraction theta of its pair, and 1 - theta,
    each a ratio of two Bregman gaps."""

    def test_within_six_eps_of_forty_digits(self):
        # p in [1 + 1e-6, 300] and L = log(b/a) in [1e-12, 700], both
        # log-uniform, on pairs placed anywhere in [e**-30, e**30]; the
        # reference takes the gaps in expm1 form, exact at 40 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(45)
        size = 2000
        p = 1.0 + np.exp(rng.uniform(np.log(1e-6), np.log(299.0), size))
        a = np.exp(rng.uniform(-30.0, 30.0, size))
        b = a * np.exp(np.exp(rng.uniform(np.log(1e-12), np.log(700.0), size)))
        keep = np.isfinite(b) & (b > a)
        p, a, b = p[keep], a[keep], b[keep]
        theta, rest, _, _ = (v[:, 0] for v in _cut_terms(a[:, None], b[:, None], p[:, None]))
        with mpmath.workdps(40):
            for k in range(p.size):
                q = mpmath.mpf(p[k]) - 1
                ratio = mpmath.log(mpmath.mpf(b[k]) / mpmath.mpf(a[k]))
                shrink, fall = mpmath.expm1(-ratio), mpmath.expm1(-q * ratio)
                lower = fall * mpmath.exp(-ratio) - q * shrink
                upper = q * shrink * mpmath.exp(-q * ratio) - fall
                for got, want in ((theta[k], lower), (rest[k], upper)):
                    want /= lower + upper
                    assert abs(got - want) <= 6.0 * np.finfo(float).eps * want, (p[k], a[k], b[k])

    def test_from_zero_and_at_two(self):
        b = np.array([1e-300, 1.0, 1e300])
        theta, rest, ratio, gap = _cut_terms(np.zeros(3), b, 3.0)
        np.testing.assert_allclose(theta, 2.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(rest, 1.0 / 3.0, rtol=1e-15)
        assert (ratio == np.inf).all() and (gap == 1.0).all()
        # both gaps are the same bits at p = 2, so every pair splits in half
        a = np.array([0.0, 1e-8, 0.5, 1000.0, 1e6])
        theta, rest, _, _ = _cut_terms(a, a + np.array([1.0, 1e-8, 0.25, 1e-3, 1e-9]), 2.0)
        assert (theta == 0.5).all() and (rest == 0.5).all()


class TestCutPositions:
    """The tangent cut as a position, the ratio-form quotient that the
    vertices, plenr and the Monte-Carlo bodies read."""

    def test_within_fifteen_u_of_forty_digits(self):
        # TestCutFractions' domain: p in [1 + 1e-6, 300] and L = log(b/a) in
        # [1e-12, 700], both log-uniform, on pairs anywhere in [e**-30,
        # e**30]; the bound is 15 u t with u = eps/2, derived for this form
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(46)
        size = 2000
        p = 1.0 + np.exp(rng.uniform(np.log(1e-6), np.log(299.0), size))
        a = np.exp(rng.uniform(-30.0, 30.0, size))
        b = a * np.exp(np.exp(rng.uniform(np.log(1e-12), np.log(700.0), size)))
        keep = np.isfinite(b) & (b > a)
        p, a, b = p[keep], a[keep], b[keep]
        cuts = _tangent_cuts(a[:, None], b[:, None], p[:, None])[:, 0]
        assert ((a <= cuts) & (cuts <= b)).all()
        with mpmath.workdps(40):
            for k in range(p.size):
                pk, ak, bk = (mpmath.mpf(v) for v in (p[k], a[k], b[k]))
                ratio = mpmath.log(bk / ak)
                want = bk * (pk - 1) / pk * mpmath.expm1(-pk * ratio) / mpmath.expm1(-(pk - 1) * ratio)
                assert abs(cuts[k] - want) <= 7.5 * np.finfo(float).eps * want, (p[k], a[k], b[k])

    def test_from_zero(self):
        b = np.array([1e-300, 1.0, 1e300])
        np.testing.assert_allclose(_tangent_cuts(np.zeros(3), b, 3.0), 2.0 / 3.0 * b, rtol=1e-15)


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

    def test_overflowing_gradient_raises(self):
        # the true gradient is about 1e400: a typed error, not NaN after
        # overflow warnings (warnings fail the suite)
        iv = Interval(0.0, 1e200)
        with pytest.raises(DomainError, match="volume gradient .* overflows floats"):
            gradient_system(PowerFn(2.0, iv), Breakpoints.equally_spaced(iv, 3))

    @pytest.mark.parametrize(
        "p,lower,upper,n",
        [(1.001, 6.63392, 6.633921, 5), (3.0, 1000.0, 1000.001, 4), (1.2, 10.0, 10.0001, 30),
         (1.05, 0.0, 1.0, 300), (5.0, 0.0, 1.0, 1000), (3.0, 0.0, 1.0, 2000),
         (3.0, 0.0, 1.0, 10_000)],
    )
    def test_residual_matches_high_precision_reference(self, p, lower, upper, n):
        # the residual is 2p (x_k - (t_{k-1} + t_k) / 2); differences of
        # powers put it off by 2e10 and 4e3 times 2p eps upper on the first
        # and fourth grids, which made Newton step the wrong way
        mpmath = pytest.importorskip("mpmath")
        # formed from the cuts' fractions of their pairs, each entry is within
        # 8 eps (t_up + t_dn), in units of the gaps between breakpoints
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, n)
        got = gradient_system(PowerFn(p, iv), bp).residual
        st = _stationarity(bp.xi[None, :], np.array([p]))
        with mpmath.workdps(60):
            q = mpmath.mpf(p)
            x = [mpmath.mpf(v) for v in bp.xi.tolist()]
            t = [(q - 1) * (b**q - a**q) / (q * (b ** (q - 1) - a ** (q - 1)))
                 for a, b in zip(x[:-1], x[1:])]
            want = np.array([float(q * (2 * x[k] - t[k - 1] - t[k])) for k in range(1, n)])
        assert (np.abs(got - want) <= 8.0 * np.finfo(float).eps * (st.t_up + st.t_dn)[0]).all()


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
        """Couplings and Hessian diagonal from their defining formulas, 60
        digits, with the diagonal's sum of term magnitudes and the pairs'
        :func:`conftest.cut_slack`."""
        with mpmath.workdps(60):
            slack = cut_slack(xi, high_precision_cuts(mpmath, p, xi))
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
            diag, scale = [], []
            for k in range(1, len(x) - 1):
                lo, mid, hi = x[k - 1 : k + 2]
                w = q / (6 * p) * mid ** (p - 2)
                up, dn = tangent(mid, hi) ** 2, tangent(mid, lo) ** 2
                couple = lo / mid * c[k - 1] + hi / mid * c[k]
                diag.append(-p / mid * w * (up - dn) + couple)
                scale.append(p / mid * w * (up + dn) + couple)
            return *(np.array([float(v) for v in z]) for z in (c, diag, scale)), slack

    def test_matches_high_precision_couplings(self):
        # a coupling is w times two cut distances of its pair, b - t and
        # t - a, times factors of a few roundings, so its relative error is
        # at most twice a band's (conftest.BAND_ULPS); each term of
        # hess_diag holds two such distances (grad's, squared)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(211)
        for _ in range(100):
            pf, bp = random_power_instance(rng, n_min=2, n_max=30, positive_lower=True)
            sys = gradient_system(pf, bp)
            coupling, diag, scale, slack = self._reference(mpmath, pf.p, bp.xi)
            bound = 2.0 * BAND_ULPS * slack
            assert (np.abs(sys.coupling - coupling) <= bound * coupling).all()
            assert (np.abs(sys.hess_offdiag - coupling[1:-1]) <= (bound * coupling)[1:-1]).all()
            diag_bound = np.maximum(bound[:-1], bound[1:]) * scale
            assert (np.abs(sys.hess_diag - diag) <= diag_bound).all()

    def test_jacobian_bands_match_high_precision(self):
        # each band is a cut distance, b - t or t - a, times factors of a
        # few roundings (conftest.BAND_ULPS); the bands that divided
        # differences of powers were off by a relative 0.27 on [1000,
        # 1000.001] at n = 40 and by 293 at p = 1.001
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(212)
        grids = [random_power_instance(rng, n_min=2, n_max=30) for _ in range(400)]
        for p, lower, upper, n in NARROW_GRIDS:
            iv = Interval(lower, upper)
            grids.append((PowerFn(p, iv), Breakpoints.equally_spaced(iv, n)))
        for pf, bp in grids:
            assert band_excess(mpmath, pf, bp) <= 1.0, (pf, bp.n)

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

    def test_vanishing_gradient_guard_is_scale_invariant(self):
        # the gradient is upper**p times a function of the offsets; at these
        # points it is 0.066 upper**p, which a guard in units of max(1, upper)**p
        # read as vanishing on [0, 1e-5].  Scaling x keeps the bordered
        # matrix's inertia (Sylvester), so both have as many negative eigenvalues
        negatives = []
        for upper in (1.0, 1e-5):
            iv = Interval(0.0, upper)
            bp = Breakpoints(iv, upper * np.array([0.0, 0.1, 0.2, 0.9, 1.0]))
            negatives.append(int((bordered_hessian_eigs(PowerFn(3.0, iv), bp) < 0.0).sum()))
        assert negatives[0] == negatives[1]

    def test_vanishing_gradient_guard_reads_the_residual_floor(self):
        # far from zero the gradient is of order p**2 upper**(p-2) width**2:
        # 1.2e-4 at these points, which a guard of 1e-11 upper**p (1e-2 here)
        # read as vanishing.  A Newton optimum's residual is within the
        # floor, so the guard still refuses it
        iv = Interval(1000.0, 1000.001)
        pf = PowerFn(3.0, iv)
        bp = Breakpoints.from_interior(iv, 1000.0 + 0.001 * np.array([0.1, 0.2, 0.9]))
        eigs = bordered_hessian_eigs(pf, bp)
        assert eigs.size == 4 and np.isfinite(eigs).all()
        optimum, _ = newton_optimize(pf, 4)
        with pytest.raises(DomainError, match="^gradient vanishes here;"):
            bordered_hessian_eigs(pf, optimum)


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
            assert closed_form_volume(kind, pf, bp if kind.piecewise_linear else None) == vol
        assert [k.value for k in RelaxationKind if k.piecewise_linear] == ["plpr", "plenr"]

    def test_missing_breakpoints_are_a_domain_error(self):
        pf = PowerFn(3.0, self.IV)
        for kind in (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR):
            with pytest.raises(DomainError, match=f"^{kind.value} needs breakpoints$"):
                closed_form_volume(kind, pf, None)
        with pytest.raises(DomainError, match="^plpr needs breakpoints$"):
            volume_power_closed_form(pf, None)
        with pytest.raises(DomainError, match="^plenr needs breakpoints$"):
            volume_pl_extended_naive(pf.oracle(), None)

    def test_non_finite_volume_is_a_domain_error(self):
        # every kind overflows here, through numpy (inf, nan) or Python floats
        # (OverflowError); numpy warnings are test errors, so none is emitted.
        # At p = 1000 even upper**(p/2) overflows; volume_power_closed_form
        # called directly raises what the dispatch raises
        iv = Interval(0.0, 1e200)
        bp = Breakpoints.equally_spaced(iv, 3)
        for p in (2.0, 1000.0):
            pf = PowerFn(p, iv)
            for kind in RelaxationKind:
                with pytest.raises(DomainError, match="overflows floats"):
                    closed_form_volume(kind, pf, bp if kind.piecewise_linear else None)
            with pytest.raises(DomainError, match=rf"^the closed-form plpr volume of x\*\*{p!r} "
                                                  r"on \[0\.0, 1e\+200\] overflows floats$"):
                volume_power_closed_form(pf, bp)

    @staticmethod
    def _exact_smooth(kind, p, iv):
        """nr, pr or enr of ``x**p`` for an integer ``p``, in exact rationals
        on the float endpoints, from ``∫ f = (u**(p+1) - l**(p+1)) / (p + 1)``."""
        l, u = Fraction(iv.lower), Fraction(iv.upper)
        integral = (u ** (p + 1) - l ** (p + 1)) / (p + 1)
        vol = ((u - l) * (l**p + u**p) / 2 - integral) / 3
        kappa = Fraction(p - 1, p + 2)
        if kind is RelaxationKind.NR:
            vol += kappa * integral / 3
        elif kind is RelaxationKind.E_NR:
            vol += kappa * (integral - l ** (p + 1) + l ** (p + 2) / u) / 3
        return vol

    def test_every_kind_at_every_exponent(self):
        # nr, pr and enr have a closed form at every p, not at p = 2 alone
        for p in (3, 4, 7):
            for iv in (self.IV, UNIT, Interval(1000.0, 1000.001), Interval(0.3, 1e4)):
                pf = PowerFn(float(p), iv)
                for kind in (RelaxationKind.NR, RelaxationKind.PR, RelaxationKind.E_NR):
                    got = closed_form_volume(kind, pf, None)
                    exact = self._exact_smooth(kind, p, iv)
                    assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact, (kind, p, iv)
        pf = PowerFn(3.0, self.IV)
        bp = Breakpoints.equally_spaced(self.IV, 3)
        assert closed_form_volume(RelaxationKind.PL_PR, pf, bp) == volume_power_closed_form(
            pf, bp
        )

    def test_huge_exponents_from_zero(self):
        # p (p - 1) overflows and pr's Beta integral underflows at p = 1e300;
        # their product is the ratio (p - 1)/(p + 1), so every kind reads 1/6
        pf = PowerFn(1e300, UNIT)
        for kind in (RelaxationKind.NR, RelaxationKind.PR, RelaxationKind.E_NR):
            assert closed_form_volume(kind, pf, None) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_exponents_beyond_the_span_rule_raise(self):
        # pr of x**p on [0.5, 1] is about 1/12; above k = 50 / (4 eps) the
        # span rule's window spans under four floats below upper (none at
        # 1e18), and the rule says so rather than return a wrong number
        for p in (1e17, 1e18, 1e100):
            with pytest.raises(DomainError, match="span rule does not resolve"):
                closed_form_volume(RelaxationKind.PR, PowerFn(p, Interval(0.5, 1.0)), None)

    @pytest.mark.parametrize("p", [1e6, 1e10, 1e14, 1e16, 5e16])
    def test_huge_exponents_within_the_span_rule(self, p):
        # pr on [0.5, 1] is (1/4 - 1/(p + 1))/3, as 0.5**p is 0; the span of
        # pr's s**(p-2) in units of upper**(p+1) is the same for every upper,
        # checked where floats lie furthest apart relative to upper (just
        # above a power of two) and nearest (just below one)
        vol = closed_form_volume(RelaxationKind.PR, PowerFn(p, Interval(0.5, 1.0)), None)
        assert vol == pytest.approx((0.25 - 1.0 / (p + 1.0)) / 3.0, rel=1e-15)
        k = Fraction(p - 2.0)
        exact = 1 / (k + 2) - Fraction(1, 2) / (k + 1) - 1 / (k + 3) + Fraction(1, 2) / (k + 2)
        for upper in (1.0 + 2.0**-51, 1.5, 2.0 - 2.0**-52):
            got = _span_integral(upper / 2.0, upper, 1, 1, p - 2.0)
            assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact, upper


# Exponents from near 1 to 300 on intervals from zero, narrow ones far from
# zero, wide ones and ones whose upper/lower overflows floats: where the
# volume overflows floats, the closed form raises DomainError; everywhere
# else it is within 1e-14 of 60 digits
ACCURACY_P = (1.001, 1.05, 1.2, 1.5, 2.0, 3.0, 3.7, 8.0, 20.0, 40.0, 100.0, 103.0, 300.0)
ACCURACY_IV = (
    (0.0, 1.0), (0.15, 1.0), (0.5, 1.0), (0.9, 1.0), (1000.0, 1000.001), (10.0, 10.0001),
    (1e-10, 1.0), (0.3, 1e4), (6.63392, 6.633921), (0.0, 1e-3), (1e-320, 1e5), (5e-324, 100.0),
)


def _within_or_overflows(get, want):
    """``get()`` is within 1e-14 of ``want`` rounded to a float, or raises
    :class:`DomainError` exactly where ``want`` overflows floats."""
    if want > np.finfo(float).max:
        with pytest.raises(DomainError, match="overflows floats"):
            get()
        return
    want = float(want)
    assert abs(get() - want) <= 1e-14 * want


class TestAccuracyGrid:
    @staticmethod
    def _smooth_reference(mpmath, kind, p, lower, upper):
        """nr, pr or enr at 60 digits, from ``∫ f = (u**(p+1) - l**(p+1)) /
        (p + 1)``: pr a third of the chord's area less ``∫ f``, nr adding
        ``κ/3 ∫ f`` and enr ``κ/3 (∫ f - f(l) l**2 (1/l - 1/u))``."""
        with mpmath.workdps(60):
            p, l, u = mpmath.mpf(p), mpmath.mpf(lower), mpmath.mpf(upper)
            integral = (u ** (p + 1) - l ** (p + 1)) / (p + 1)
            vol = ((u - l) * (l**p + u**p) / 2 - integral) / 3
            kappa = (p - 1) / (p + 2)
            if kind is RelaxationKind.NR:
                vol += kappa * integral / 3
            elif kind is RelaxationKind.E_NR:
                vol += kappa * (integral - l ** (p + 1) + l ** (p + 2) / u) / 3
            return vol

    @pytest.mark.parametrize("p", ACCURACY_P)
    def test_smooth_kinds(self, p):
        mpmath = pytest.importorskip("mpmath")
        for lower, upper in ACCURACY_IV:
            pf = PowerFn(p, Interval(lower, upper))
            for kind in (RelaxationKind.NR, RelaxationKind.PR, RelaxationKind.E_NR):
                want = self._smooth_reference(mpmath, kind, p, lower, upper)
                _within_or_overflows(lambda: closed_form_volume(kind, pf, None), want)

    @pytest.mark.parametrize("p", ACCURACY_P)
    def test_plpr(self, p):
        # a trapezoid sum of Bregman gaps, no quadrature; at p = 103 on
        # [1000, 1000.001] upper**(p+1) overflows floats but the volume does not
        mpmath = pytest.importorskip("mpmath")
        for lower, upper in ACCURACY_IV:
            iv = Interval(lower, upper)
            pf, bp = PowerFn(p, iv), Breakpoints.equally_spaced(iv, 3)
            want = TestClosedForm._reference(mpmath, p, bp.xi)
            _within_or_overflows(lambda: closed_form_volume(RelaxationKind.PL_PR, pf, bp), want)


class TestExtendedNaive:
    def test_quadratic_limit_formula(self):
        assert volume_extended_naive_quadratic(UNIT) == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert volume_extended_naive_quadratic(Interval(0.5, 1.0)) == pytest.approx(
            0.3125 / 12.0, rel=1e-14
        )

    def test_quadratic_limit_is_exact_at_every_scale(self):
        # (u - l)**2 (u**2 + l**2) / (12 u) over- and underflowed long before
        # the volume does: [0, 1e100] raised, [0, 1e-100] gave 0
        assert volume_extended_naive_quadratic(Interval(0.0, 1e100)) == 8.333333333333334e298
        assert volume_extended_naive_quadratic(Interval(0.0, 1e-100)) == 8.333333333333334e-302
        rng = np.random.default_rng(43)
        for _ in range(500):
            lo, up = np.sort(10.0 ** rng.uniform(-100, 100, 2))
            lo *= rng.integers(0, 2)
            u, l = Fraction(up), Fraction(lo)
            exact = (u - l) ** 2 * (u * u + l * l) / (12 * u)
            got = volume_extended_naive_quadratic(Interval(lo, up))
            assert abs(Fraction(got) - exact) <= 1e-15 * exact

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

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12, 1e20])
    def test_hypothesis_at_equality_holds_at_every_scale(self, scale):
        # the tangent of s (x**2 + l**2) at l passes through the origin, so
        # the hypothesis holds with equality; an absolute slack of 1e-12
        # rejected 33, 36 and 31 of these 200 intervals at s = 1e6, 1e12 and 1e20
        rng = np.random.default_rng(5)
        for _ in range(200):
            lo, up = np.sort(rng.uniform(0.01, 10.0, 2)).tolist()
            iv = Interval(lo, up)
            f = ConvexFunction(fn=lambda x, l=lo: scale * (x * x + l * l),
                               deriv=lambda x: 2.0 * scale * x, interval=iv)
            assert volume_pl_extended_naive(f, Breakpoints.equally_spaced(iv, 3)) > 0.0
            # a relative 1e-10 below equality is still a violation
            f = ConvexFunction(fn=lambda x, l=lo: scale * (x * x + l * l * (1.0 + 1e-10)),
                               deriv=lambda x: 2.0 * scale * x, interval=iv)
            with pytest.raises(HypothesisViolated):
                volume_pl_extended_naive(f, Breakpoints.equally_spaced(iv, 3))

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

    def test_tiny_interval_and_gap_do_not_underflow(self):
        # 24 * upper * gap underflows to 0 here; both bounds are far below 1
        n1, n2, _ = refinement_thresholds(Interval(0.0, 1e-200), 1e-200)
        assert (n1, n2) == (1, 1)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(DomainError):
            refinement_thresholds(UNIT, 0.0)


@dataclass(frozen=True)
class PowerCurvatureTerms:
    """Auxiliary scalar terms whose signs certify the curvature analysis.

    Every term vanishes at ``x == 1``.  ``tangent_excess`` and
    ``envelope_excess`` are positive for ``x != 1``; ``curvature_gap`` and
    ``slope_mean_gap`` flip sign at ``p == 2``; ``log_weighted_gap`` stays
    positive.
    """

    tangent_excess: float
    envelope_excess: float
    curvature_gap: float
    slope_mean_gap: float
    log_weighted_gap: float


def power_curvature_terms(p: float, x: float) -> PowerCurvatureTerms:
    if not p > 1.0:
        raise DomainError("need p > 1")
    if not x > 0.0:
        raise DomainError("need x > 0")
    xp = x**p
    xp1 = x ** (p - 1.0)
    return PowerCurvatureTerms(
        tangent_excess=xp + (p - 1.0) - p * x,
        envelope_excess=(p - 1.0) * xp + 1.0 - p * xp1,
        curvature_gap=(p - 2.0) * (xp - 1.0) - p * (xp1 - x),
        slope_mean_gap=(xp1 - 1.0) ** 2 - (p - 1.0) ** 2 * x ** (p - 2.0) * (x - 1.0) ** 2,
        log_weighted_gap=p * (p - 1.0) * (1.0 - x) * xp1 * math.log(x)
        + (xp1 - 1.0) * (xp - 1.0),
    )


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
