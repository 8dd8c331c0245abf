import numpy as np
import pytest
from conftest import column_on_piece, random_power_instance

from perspex import (
    Breakpoints,
    ConvexFunction,
    DegenerateTangents,
    DomainError,
    Interval,
    PowerFn,
    RelaxationKind,
    build_underestimator,
    fan_triangle_areas,
    make_body,
    volume_pl_perspective,
    volume_power_closed_form,
)
from perspex.mc import _kernel as mc_kernel
from perspex.power import _PowerOracle, _tangent_cuts


def _quadratic(iv):
    return ConvexFunction(fn=lambda x: x * x, deriv=lambda x: 2.0 * x, interval=iv)


class TestInterval:
    def test_width(self):
        assert Interval(0.5, 2.0).width == 1.5

    @pytest.mark.parametrize("lo,up", [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0), (0.0, np.inf)])
    def test_rejects_bad_endpoints(self, lo, up):
        with pytest.raises(DomainError):
            Interval(lo, up)


class TestBreakpoints:
    def test_properties(self):
        bp = Breakpoints(Interval(0.0, 1.0), [0.0, 0.3, 1.0])
        assert bp.n == 2
        np.testing.assert_array_equal(bp.interior, [0.3])

    def test_equally_spaced_hits_endpoints_exactly(self):
        iv = Interval(0.1, 0.7)
        bp = Breakpoints.equally_spaced(iv, 7)
        assert bp.xi[0] == iv.lower and bp.xi[-1] == iv.upper

    @pytest.mark.parametrize(
        "lo,up",
        [(0.0, 1.0), (0.15, 1.0), (1000.0, 1000.001), (1e-300, 3e-300), (0.0, 1e300),
         (0.0, 1e-320)],
    )
    def test_equally_spaced_is_linspace(self, lo, up):
        # bit for bit; on [0, 1e-320], 2024 subnormal units wide, the step
        # underflows to 0 at n = 10**4, and there both raise the same DomainError
        iv = Interval(lo, up)
        for n in [*range(1, 201), 10**4]:
            try:
                want = Breakpoints(iv, np.linspace(lo, up, n + 1)).xi
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    Breakpoints.equally_spaced(iv, n)
                assert str(got.value) == str(exc), n
                continue
            got = Breakpoints.equally_spaced(iv, n).xi
            assert got.tobytes() == want.tobytes(), n

    def test_with_point(self):
        bp = Breakpoints(Interval(0.0, 1.0), [0.0, 0.5, 1.0]).with_point(0.25)
        np.testing.assert_array_equal(bp.xi, [0.0, 0.25, 0.5, 1.0])

    @pytest.mark.parametrize(
        "xi",
        [[0.1, 0.5, 1.0], [0.0, 0.5, 0.9], [0.0, 0.6, 0.6, 1.0], [0.0, 0.7, 0.3, 1.0], [0.0]],
    )
    def test_rejects_invalid(self, xi):
        with pytest.raises(DomainError):
            Breakpoints(Interval(0.0, 1.0), xi)

    def test_immutability(self):
        bp = Breakpoints(Interval(0.0, 1.0), [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            bp.xi[1] = 0.4


class TestConvexFunction:
    def test_positivity_spot_check(self):
        with pytest.raises(DomainError):
            ConvexFunction(fn=lambda x: x - 0.5, deriv=lambda x: 1.0, interval=Interval(0.0, 1.0))

    def test_power_at_zero_lower_is_fine(self):
        # Chebyshev nodes are interior, so x**2 passes even on [0, 1]
        _quadratic(Interval(0.0, 1.0))


class TestPowerOracle:
    """``PowerFn.oracle()`` places its vertices by the ratio form, the one
    rule for where two tangents of ``x**p`` meet."""

    def test_vertices_are_the_ratio_form_cuts(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            pf, bp = random_power_instance(rng, n_min=2)
            est = build_underestimator(pf.oracle(), bp)
            cuts = _tangent_cuts(bp.xi[:-1], bp.xi[1:], pf.p)
            assert np.array_equal(est.x[1:-1], cuts)

    def test_vertices_match_high_precision_far_from_zero(self):
        # the intercept rule subtracts intercepts of size (p-1) x**p and was
        # off by 1.9e-4 of the width here, 8.6e5 eps * upper
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(1000.0, 1000.001)
        bp = Breakpoints.equally_spaced(iv, 4)
        est = build_underestimator(PowerFn(3.0, iv).oracle(), bp)
        with mpmath.workdps(60):
            x = [mpmath.mpf(v) for v in bp.xi.tolist()]
            want = np.array([float(2 * (b**3 - a**3) / (3 * (b**2 - a**2)))
                             for a, b in zip(x[:-1], x[1:])])
        assert np.abs(est.x[1:-1] - want).max() <= 4.0 * np.finfo(float).eps * iv.upper

    def test_values_match_the_pointwise_loop(self):
        # two array powers in place of one call of fn and deriv per
        # breakpoint: the vertices are the same bits, and the values differ
        # by at most the two ulps that numpy's vectorized pow and the scalar
        # one can part by; an ordinate f(x) + f'(x) (t - x) by two ulps of
        # each of its terms
        class PointwiseOracle(_PowerOracle):
            _values = ConvexFunction._values

        rng = np.random.default_rng(23)
        grids = [random_power_instance(rng, n_min=2) for _ in range(100)]
        for p, iv in ((3.7, Interval(0.0, 1.0)), (3.0, Interval(1000.0, 1000.001)),
                      (1.001, Interval(6.63392, 6.633921)), (8.0, Interval(0.3, 1.2))):
            grids.append((PowerFn(p, iv), Breakpoints.equally_spaced(iv, 64)))
        for pf, bp in grids:
            oracle = pf.oracle()
            loop = PointwiseOracle(fn=pf, deriv=pf.deriv, interval=pf.interval)
            fx, dfx = loop._values(bp.xi)
            for got, want in zip(oracle._values(bp.xi), (fx, dfx)):
                assert (np.abs(got - want) <= 2.0 * np.spacing(np.abs(want))).all()
            est, ref = build_underestimator(oracle, bp), build_underestimator(loop, bp)
            assert est.x.tobytes() == ref.x.tobytes()
            terms = fx[1:] + np.abs(dfx[1:] * (ref.x[1:-1] - bp.xi[1:]))
            eps = np.finfo(float).eps
            assert (np.abs(est.y[1:-1] - ref.y[1:-1]) <= 4.0 * eps * terms).all()
            ends = [0, -1]
            assert (np.abs(est.y[ends] - ref.y[ends]) <= 2.0 * np.spacing(ref.y[ends])).all()

    def test_overflowing_values_raise_as_the_scalar_powers_do(self):
        # numpy returns inf with a warning where Python's float power raises:
        # the power oracle raises the per-point loop's OverflowError, which
        # the closed forms turn into their overflow DomainError
        iv = Interval(0.5, 10.0)
        oracle = PowerFn(400.0, iv).oracle()
        xi = Breakpoints.equally_spaced(iv, 3).xi
        with pytest.raises(OverflowError):
            oracle._values(xi)
        with pytest.raises(OverflowError):
            ConvexFunction._values(oracle, xi)

    def test_construction_never_calls_the_function(self, monkeypatch):
        calls = []

        def counted(self, x):
            calls.append(x)
            return x**self.p

        monkeypatch.setattr(PowerFn, "__call__", counted)
        oracle = PowerFn(3.0, Interval(0.0, 1.0)).oracle()
        assert calls == []
        assert oracle.fn(0.5) == 0.125 and calls == [0.5]


class TestBuild:
    def test_quadratic_hand_example(self):
        iv = Interval(0.0, 1.0)
        est = build_underestimator(_quadratic(iv), Breakpoints(iv, [0.0, 0.5, 1.0]))
        np.testing.assert_allclose(est.x, [0.0, 0.25, 0.75, 1.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(est.y, [0.0, 0.0, 0.5, 1.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lo,up", [(0.0, 1.0), (1.0, 2.0), (0.5, 3.5)])
    def test_quadratic_single_piece_vertex_is_midpoint(self, lo, up):
        # tangents at the endpoints of x**2 meet at ((lo+up)/2, lo*up)
        iv = Interval(lo, up)
        est = build_underestimator(_quadratic(iv), Breakpoints(iv, [lo, up]))
        assert est.x[1] == pytest.approx((lo + up) / 2.0, abs=1e-14)
        assert est.y[1] == pytest.approx(lo * up, abs=1e-13)

    def test_power_vertex_formula(self):
        # tangent intersections of x**p sit at
        # (p-1)/p * (b**p - a**p) / (b**(p-1) - a**(p-1)) for adjacent a < b
        rng = np.random.default_rng(11)
        for _ in range(25):
            pf, bp = random_power_instance(rng, n_min=2, positive_lower=True)
            est = build_underestimator(pf.oracle(), bp)
            a, b = bp.xi[:-1], bp.xi[1:]
            p = pf.p
            expected_x = (p - 1.0) / p * (b**p - a**p) / (b ** (p - 1.0) - a ** (p - 1.0))
            expected_y = (
                (p - 1.0) * a ** (p - 1.0) * b ** (p - 1.0) * (b - a)
                / (b ** (p - 1.0) - a ** (p - 1.0))
            )
            np.testing.assert_allclose(est.x[1:-1], expected_x, rtol=1e-10)
            np.testing.assert_allclose(est.y[1:-1], expected_y, rtol=1e-9, atol=1e-13)

    def test_vertices_interleave_breakpoints(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            pf, bp = random_power_instance(rng, n_min=2)
            est = build_underestimator(pf.oracle(), bp)
            assert ((bp.xi[:-1] < est.x[1:-1]) & (est.x[1:-1] < bp.xi[1:])).all()

    def test_interval_mismatch(self):
        f = _quadratic(Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            build_underestimator(f, Breakpoints(Interval(0.0, 2.0), [0.0, 1.0, 2.0]))

    def test_degenerate_tangents(self):
        iv = Interval(0.0, 1.0)
        affine = ConvexFunction(fn=lambda x: x + 1.0, deriv=lambda x: 1.0, interval=iv)
        with pytest.raises(DegenerateTangents):
            build_underestimator(affine, Breakpoints(iv, [0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_scale_equivariance(self, p, n):
        # x -> c x maps the tangent vertices to c x and the volume to
        # c**(p+1) times itself, so the slope guard must not depend on c
        for ratio in (0.0, 0.15):
            unit = Interval(ratio, 1.0)
            base = build_underestimator(PowerFn(p, unit).oracle(), Breakpoints.equally_spaced(unit, n))
            vol = volume_pl_perspective(base)
            for u in (0.01, 0.1, 1.0, 100.0):
                iv = Interval(ratio * u, u)
                est = build_underestimator(PowerFn(p, iv).oracle(), Breakpoints.equally_spaced(iv, n))
                np.testing.assert_allclose(est.x, u * base.x, rtol=1e-13)
                assert volume_pl_perspective(est) == pytest.approx(vol * u ** (p + 1.0), rel=1e-12)

    def test_underflowing_slopes_are_degenerate(self):
        # adjacent derivatives both round to 0, so no relative gap separates them
        iv = Interval(0.0, 0.01)
        f = ConvexFunction(fn=lambda x: 1.0 + x**150, deriv=lambda x: 150.0 * x**149, interval=iv)
        with pytest.raises(DegenerateTangents):
            build_underestimator(f, Breakpoints.equally_spaced(iv, 5))

    def test_decreasing_derivative_rejected(self):
        iv = Interval(0.0, 1.0)
        bogus = ConvexFunction(fn=lambda x: x + 1.0, deriv=lambda x: -x, interval=iv)
        with pytest.raises(DomainError):
            build_underestimator(bogus, Breakpoints(iv, [0.0, 0.5, 1.0]))


class TestEvaluation:
    def test_matches_vertices_and_chords(self):
        rng = np.random.default_rng(13)
        pf, bp = random_power_instance(rng, n_min=3)
        est = build_underestimator(pf.oracle(), bp)
        np.testing.assert_allclose(est(est.x), est.y, rtol=1e-12, atol=1e-14)
        mids = 0.5 * (est.x[:-1] + est.x[1:])
        chords = 0.5 * (est.y[:-1] + est.y[1:])
        np.testing.assert_allclose(est(mids), chords, rtol=1e-12, atol=1e-14)

    def test_scalar_call(self):
        iv = Interval(0.0, 1.0)
        est = build_underestimator(_quadratic(iv), Breakpoints(iv, [0.0, 0.5, 1.0]))
        assert est(0.25) == pytest.approx(0.0, abs=1e-15)
        assert isinstance(est(0.25), float)

    @staticmethod
    def _lookup_points(n):
        # functions and breakpoints with points of the interval, the
        # estimator's vertices, their neighbours in floats and points past
        # both ends, infinities included
        rng = np.random.default_rng(n)
        for p, iv in ((3.7, Interval(0.0, 1.0)), (8.0, Interval(0.3, 1.2)),
                      (2.0, Interval(1000.0, 1000.001))):
            pf, bp = PowerFn(p, iv), Breakpoints.equally_spaced(iv, n)
            kx = build_underestimator(pf.oracle(), bp).x
            w = np.concatenate([
                iv.lower + iv.width * rng.random(4000),
                kx, np.nextafter(kx, -np.inf), np.nextafter(kx, np.inf),
                [-np.inf, np.inf, iv.lower - iv.width, iv.upper + iv.width, 0.0],
            ])
            yield pf, bp, w

    @staticmethod
    def _assert_pieces_are_searched(pf, bp, w):
        # est(w) is the chord of the piece np.searchsorted finds among the
        # inner vertices, and each piecewise-linear body's kernel column at
        # the offset of w is the column of the piece np.searchsorted finds
        # among its cut offsets, bit for bit, at every w of the interval
        est = build_underestimator(pf.oracle(), bp)
        x, y = est.x, est.y
        k = np.searchsorted(x[1:-1], w, side="right")
        with np.errstate(invalid="ignore"):  # 0 * inf where an end slope is 0
            want = y[k] + (y[1:] - y[:-1])[k] / (x[1:] - x[:-1])[k] * (w - x[k])
            assert np.array_equal(est(w), want, equal_nan=True)
        iv = pf.interval
        inside = w[(w >= iv.lower) & (w <= iv.upper)]
        t = np.clip((inside - iv.lower) / iv.width, 0.0, 1.0)
        for kind in (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR):
            body = make_body(kind, pf, bp)
            assert np.array_equal(body.cuts, (x[1:-1] - iv.lower) / iv.width)
            got = mc_kernel.count_hits(body, t)[1]
            k = np.searchsorted(body.cuts, t, side="right")
            assert np.array_equal(got, column_on_piece(body, t, k))

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_piece_lookup_is_searchsorted(self, n):
        for pf, bp, w in self._lookup_points(n):
            self._assert_pieces_are_searched(pf, bp, w)

    def test_piece_lookup_steps_past_clustered_vertices(self):
        # three vertices within 2e-7 of each other: the lookup still finds
        # the searched piece on either side of each of them
        iv = Interval(0.0, 1.0)
        bp = Breakpoints(iv, [0.0, 0.5, 0.5 + 1e-7, 0.5 + 2e-7, 1.0])
        pf = PowerFn(3.0, iv)
        kx = build_underestimator(pf.oracle(), bp).x
        w = np.concatenate([np.random.default_rng(5).random(4000), 0.5 + 3e-7 * np.linspace(0, 1, 301),
                            kx, np.nextafter(kx, -np.inf), np.nextafter(kx, np.inf), [-np.inf, np.inf]])
        self._assert_pieces_are_searched(pf, bp, w)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_value_is_the_chord_of_the_searched_piece(self, n):
        for pf, bp, w in self._lookup_points(n):
            est = build_underestimator(pf.oracle(), bp)
            x, y = est.x, est.y
            slope = (y[1:] - y[:-1]) / (x[1:] - x[:-1])
            k = np.searchsorted(x[1:-1], w, side="right")
            with np.errstate(invalid="ignore"):  # 0 * inf where an end slope is 0
                want = y[k] + slope[k] * (w - x[k])
                assert np.array_equal(est(w), want, equal_nan=True)
            for i in (0, -3, -2):  # inside, below and above the interval
                got = est(float(w[i]))
                assert isinstance(got, float) and got == want[i]
            assert np.isnan(est(np.nan))


class TestVolume:
    def test_single_triangle(self):
        iv = Interval(0.0, 1.0)
        est = build_underestimator(_quadratic(iv), Breakpoints(iv, [0.0, 1.0]))
        assert volume_pl_perspective(est) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_two_triangles(self):
        iv = Interval(0.0, 1.0)
        est = build_underestimator(_quadratic(iv), Breakpoints(iv, [0.0, 0.5, 1.0]))
        assert volume_pl_perspective(est) == pytest.approx(1.0 / 16.0, rel=1e-14)
        np.testing.assert_allclose(fan_triangle_areas(est), [1.0 / 16.0, 1.0 / 8.0])

    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            pf, bp = random_power_instance(rng)
            geo = volume_pl_perspective(build_underestimator(pf.oracle(), bp))
            closed = volume_power_closed_form(pf, bp)
            assert geo == pytest.approx(closed, rel=1e-10)

    def test_matches_shoelace_polygon_area(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            pf, bp = random_power_instance(rng)
            est = build_underestimator(pf.oracle(), bp)
            x, y = est.x, est.y
            shoelace = 0.5 * abs(
                float((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())
            )
            assert volume_pl_perspective(est) == pytest.approx(shoelace / 3.0, rel=1e-12)

    def test_refinement_never_increases_volume(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            pf, bp = random_power_instance(rng, n_max=5)
            quadratic = bool(rng.integers(0, 2))
            if quadratic:
                pf = PowerFn(2.0, bp.interval)
            before = volume_pl_perspective(build_underestimator(pf.oracle(), bp))
            k = int(rng.integers(0, bp.n))
            extra = 0.5 * (bp.xi[k] + bp.xi[k + 1])
            refined = bp.with_point(extra)
            after = volume_pl_perspective(build_underestimator(pf.oracle(), refined))
            assert after <= before + 1e-12 * max(1.0, before)

    def test_vertices_underestimate_the_function(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            pf, bp = random_power_instance(rng)
            est = build_underestimator(pf.oracle(), bp)
            assert (est.y <= pf(est.x) + 1e-12).all()

    def test_volume_is_linear_time_shape(self):
        # one fan triangle per piece
        rng = np.random.default_rng(18)
        pf, bp = random_power_instance(rng, n_min=6, n_max=7)
        est = build_underestimator(pf.oracle(), bp)
        assert fan_triangle_areas(est).size == bp.n
