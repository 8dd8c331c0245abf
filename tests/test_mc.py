import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from conftest import column_on_piece

from perspex import (
    Breakpoints,
    DomainError,
    Interval,
    PowerFn,
    RelaxationKind,
    build_underestimator,
    make_body,
    mc_volume,
    volume_power_closed_form,
)
from perspex.power import closed_form_volume
from perspex import mc as mc_mod

UNIT = Interval(0.0, 1.0)
HALF = Interval(0.5, 1.0)
PERSPECTIVE = (RelaxationKind.PR, RelaxationKind.PL_PR)  # L = z f(w): z integrates to a third


def _bodies(p=2.0, iv=HALF, n=3):
    pf = PowerFn(p, iv)
    bp = Breakpoints.equally_spaced(iv, n)
    return {kind: make_body(kind, pf, bp) for kind in RelaxationKind}


def _lengths(body, t):
    """The kernel's column lengths ``h(w)`` of ``body`` at the offsets ``t =
    (w - lower) / width``, per unit of width."""
    return mc_mod._kernel.count_hits(body, np.array(t, dtype=float))[1] * (
        body.unit / 3.0)


def _draws(seed, samples):
    """The uniforms ``mc_volume`` draws for ``samples``, laid out as its
    chunks use them, of shape ``(2, strata)``: a chunk of ``rows`` strata
    takes the stream's next ``2 rows`` draws of ``PCG64(SeedSequence(seed))``
    as two rows of ``rows``, so its stratum ``i`` takes its draws ``i`` and
    ``rows + i``."""
    strata = samples // 2
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    half = mc_mod.BLOCK_SIZE // 2
    return np.concatenate(
        [gen.random((2, min(half, strata - start))) for start in range(0, strata, half)], axis=1)


def _one_pass(seed, samples):
    """The offsets ``mc_volume`` scores for ``samples``, drawn in one pass,
    of shape ``(2, strata)``: column ``i`` holds stratum ``i``'s two
    offsets, ``(u + i) / strata`` for its two draws (:func:`_draws`)."""
    strata = samples // 2
    return (_draws(seed, samples) + np.arange(strata)) / strata


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        body = make_body(RelaxationKind.PL_PR, PowerFn(2.0, UNIT), Breakpoints.equally_spaced(UNIT, 2))
        a = mc_volume(body, 50_000, seed=123)
        b = mc_volume(body, 50_000, seed=123)
        assert a.hits == b.hits and a.mean == b.mean and a.stderr == b.stderr

    def test_worker_count_does_not_change_hits(self):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        serial = mc_volume(body, 300_000, seed=5, workers=1)
        threaded = mc_volume(body, 300_000, seed=5, workers=4)
        assert serial == threaded

    def test_blocks_run_on_the_calling_thread(self, monkeypatch):
        # workers is accepted and ignored: every chunk of BLOCK_SIZE columns
        # is scored in order on the caller's thread, however many workers
        # are asked for, in one kernel call that gets the offsets second
        calls = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, t):
            calls.append((threading.get_ident(), t.size))
            return count_hits(body, t)

        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        est = mc_volume(body, 3 * mc_mod.BLOCK_SIZE + 3, seed=5, workers=2)
        sizes = [mc_mod.BLOCK_SIZE] * 3 + [2]  # an odd budget scores one column fewer
        assert calls == [(threading.get_ident(), m) for m in sizes]
        assert est.samples == 3 * mc_mod.BLOCK_SIZE + 2

    def test_estimates_are_pure_functions_of_seed_and_samples(self):
        body = make_body(RelaxationKind.PR, PowerFn(2.0, UNIT))
        assert mc_volume(body, 20_000, seed=9) == mc_volume(body, 20_000, seed=9)
        # a different budget moves every stratum, so it is a different estimate
        assert mc_volume(body, 20_002, seed=9).mean != mc_volume(body, 20_000, seed=9).mean

    def test_block_streams_are_pure_functions_of_seed_and_index(self, monkeypatch):
        # the uniforms behind chunk b are the stream's draws b * BLOCK_SIZE
        # onwards, two rows of BLOCK_SIZE / 2, whatever the budget: a larger
        # budget moves the strata, not the draws of the chunks they share
        seen = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, t):
            seen.append(t.copy())
            return count_hits(body, t)

        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        half = mc_mod.BLOCK_SIZE // 2
        u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9))).random(
            3 * mc_mod.BLOCK_SIZE)
        offsets = {}
        for blocks in (2, 3):
            seen.clear()
            strata = blocks * half
            mc_volume(body, 2 * strata, seed=9)
            assert len(seen) == blocks
            cell = np.arange(half)  # a stratum per entry of each row
            for b, t in enumerate(seen):
                draws = u[b * mc_mod.BLOCK_SIZE:(b + 1) * mc_mod.BLOCK_SIZE].reshape(2, half)
                assert (t == (draws + (cell + b * half)) / strata).all(), (blocks, b)
            offsets[blocks] = [t * strata - (cell + b * half) for b, t in enumerate(seen)]
        for b in range(2):
            assert ((offsets[3][b] >= -1e-9) & (offsets[3][b] <= 1.0 + 1e-9)).all()
            assert offsets[3][b] == pytest.approx(offsets[2][b], rel=0.0, abs=1e-9)

    def test_block_keys_do_not_alias(self):
        # a seed past 2**32 spans two 32-bit words of the seed sequence
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        means = {mc_volume(body, 20_000, seed=s).mean for s in (0, 1, 2**32, 2**32 + 1, 2**64 - 1)}
        assert len(means) == 5

    def test_seed_words_are_seed_sequence_words(self):
        # the stream is PCG64(SeedSequence(seed)) seeded from words computed
        # in mc: should numpy's SeedSequence change, this fails before any
        # estimate moves
        rng = np.random.default_rng(20)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += [int(s) for s in rng.integers(0, 2**64 - 1, size=1000, dtype=np.uint64, endpoint=True)]
        for seed in seeds:
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert mc_mod._seed_words(seed) == expected.tolist(), seed
        state = mc_mod._seed_sequence()(2**32 + 7).generate_state(4, np.uint64)
        assert state.dtype == np.uint64
        assert (state == np.random.SeedSequence(2**32 + 7).generate_state(4, np.uint64)).all()
        with pytest.raises(ValueError):
            mc_mod._seed_sequence()(7).generate_state(8, np.uint32)

    def test_threads_share_no_stream(self):
        # each call builds its own generator: four threads, more than the
        # cores, each running its own body and seed over and over, get the
        # serial estimates bit for bit; a generator shared between calls or
        # threads would hand draws of one call to another
        iv = Interval(0.15, 1.0)
        pf = PowerFn(3.7, iv)
        bp = Breakpoints.equally_spaced(iv, 8)
        jobs = [(make_body(kind, pf, bp), 1000 + i)
                for i, kind in enumerate((RelaxationKind.NR, RelaxationKind.PR,
                                          RelaxationKind.PL_PR, RelaxationKind.PL_E_NR))]
        serial = [mc_volume(body, 2 * mc_mod.BLOCK_SIZE, seed) for body, seed in jobs]

        def repeat(job):
            body, seed = job
            return [mc_volume(body, 2 * mc_mod.BLOCK_SIZE, seed) for _ in range(25)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside every call
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(repeat, job) for job in jobs]
                runs = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for expected, got in zip(serial, runs):
            assert all(est == expected for est in got)

    def test_different_seeds_differ(self):
        # every sampled column meets this body, so the hits alone agree
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        assert mc_volume(body, 50_000, seed=1).mean != mc_volume(body, 50_000, seed=2).mean


class TestEstimates:
    def test_stderr_is_the_sample_standard_error(self):
        # recompute every column from its length in one pass: the mean of
        # the lengths, and the stderr from each stratum's pair difference
        iv = Interval(0.2, 1.5)
        samples = 2 * 12480 + 1  # three whole chunks, a partial one, an odd budget
        for kind in RelaxationKind:
            body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
            est = mc_volume(body, samples, seed=11)
            h = _lengths(body, _one_pass(11, samples))
            strata = h.shape[1]
            assert est.samples == 2 * strata == samples - 1
            assert est.hits == np.count_nonzero(h > 0.0)
            assert est.mean == pytest.approx(iv.width * h.mean(), rel=1e-13)
            spread = ((h[0] - h[1]) ** 2).sum()
            assert est.stderr == pytest.approx(iv.width * np.sqrt(spread / 4.0) / strata, rel=1e-10)

    def test_one_chunk_stderr_is_at_most_the_perspective_one(self):
        # every kind scores the exact integral over z of its column, so a
        # one-chunk pilot of nr, enr or plenr is no noisier, relative to its
        # mean, than pr's, whose column was always exact in z
        for p in (1.5, 2.0, 3.7, 6.0):
            for lower in (0.0, 0.15, 0.5):
                iv = Interval(lower, 1.0)
                bp = Breakpoints.equally_spaced(iv, 8)
                rse = {}
                for kind in RelaxationKind:
                    est = mc_volume(make_body(kind, PowerFn(p, iv), bp), mc_mod.BLOCK_SIZE, seed=1)
                    rse[kind] = est.stderr / est.mean
                for kind in (RelaxationKind.NR, RelaxationKind.E_NR, RelaxationKind.PL_E_NR):
                    assert rse[kind] <= rse[RelaxationKind.PR], (p, lower, kind)

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (RelaxationKind.PL_PR, 1.0 / 16.0),
            (RelaxationKind.NR, 1.0 / 12.0),
            (RelaxationKind.PR, 1.0 / 18.0),
        ],
    )
    def test_quadratic_references_within_four_sigma(self, kind, expected):
        body = make_body(
            RelaxationKind(kind), PowerFn(2.0, UNIT), Breakpoints.equally_spaced(UNIT, 2)
        )
        est = mc_volume(body, 200_000, seed=31)
        assert abs(est.mean - expected) <= 4.0 * est.stderr

    def test_cubic_golden_breakpoints_reference(self):
        # the frozen closed-form value for p=3 at (0, 0.618034, 1)
        bp = Breakpoints(UNIT, [0.0, 0.618034, 1.0])
        pf = PowerFn(3.0, UNIT)
        est = mc_volume(make_body(RelaxationKind.PL_PR, pf, bp), 400_000, seed=61)
        assert abs(est.mean - volume_power_closed_form(pf, bp)) <= 4.0 * est.stderr

    def test_general_exponent_estimate_is_sane(self):
        # no closed perspective form away from p=2; the estimate itself
        # must stay inside the cone and near the tighter PL+PR volume
        pf = PowerFn(3.0, HALF)
        bp = Breakpoints.equally_spaced(HALF, 4)
        pr = mc_volume(make_body(RelaxationKind.PR, pf, bp), 200_000, seed=17)
        plpr_vol = volume_power_closed_form(pf, bp)
        assert 0.0 < pr.mean < pr.cone_volume
        assert pr.mean <= plpr_vol + 4.0 * pr.stderr

    def test_general_exponent_perspective_matches_refinement_limit(self):
        # away from p=2 the exact perspective volume, ((u - l)(f(l) + f(u))/2
        # - integral of f) / 3, is approximated from above by many-piece PL
        # volumes.  With 2000 equal pieces the gap is 1.25e-7 of the volume,
        # which the stratified oracle resolves at about 16 sigma, so the
        # estimate is checked against the exact volume
        pf = PowerFn(3.0, HALF)
        lo, up = Fraction(1, 2), Fraction(1)
        exact = float(((up - lo) * (lo**3 + up**3) / 2 - (up**4 - lo**4) / 4) / 3)
        limit = volume_power_closed_form(pf, Breakpoints.equally_spaced(HALF, 2000))
        assert 1.2e-7 < (limit - exact) / exact < 1.3e-7
        est = mc_volume(make_body(RelaxationKind.PR, pf), 1_000_000, seed=77)
        assert abs(est.mean - exact) <= 4.0 * est.stderr

    @pytest.mark.parametrize("kind", ["nr", "pr", "enr"])
    def test_stderr_survives_large_scales(self, kind):
        # on [0, 1e100] a column is up to f(upper) = 1e200 long, whose
        # square overflows: the pair differences are taken relative to it
        iv = Interval(0.0, 1e100)
        pf = PowerFn(2.0, iv)
        est = mc_volume(make_body(RelaxationKind(kind), pf), 20_000, seed=3)
        assert 0.0 < est.stderr < np.inf
        assert abs(est.mean - closed_form_volume(RelaxationKind(kind), pf, None)) <= 4.0 * est.stderr

    @pytest.mark.parametrize("kind", ["nr", "pr"])
    def test_huge_finite_exponent(self, kind):
        # x**1e300 underflows to 0 on [0, 1): the volume 1/6 - 1/(3 (p + 1))
        # rounds to 1/6, and the columns still grow with w under the chord
        # from 0 to 1, so the pair differences, and the stderr, are positive
        est = mc_volume(make_body(RelaxationKind(kind), PowerFn(1e300, UNIT)), 20_000, seed=0)
        assert est.stderr > 0.0
        assert abs(est.mean - 1.0 / 6.0) <= 5.0 * est.stderr

    def test_estimates_near_the_float_limit(self):
        # the bodies fit (their closed forms are 6.13e306 to 6.19e306), while
        # a sum of column lengths times width * f(upper) / 3, or p f(upper)
        # in plpr's Bregman gaps, does not: the sums are divided by the
        # strata first and the gaps taken in ratios to upper, so each
        # estimate is within its stderr, without a warning
        iv = Interval(0.0, 33.9)
        pf, bp = PowerFn(200.0, iv), Breakpoints.equally_spaced(iv, 4)
        for kind in RelaxationKind:
            grid = bp if kind.piecewise_linear else None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = mc_volume(make_body(kind, pf, grid), 200_000, seed=1)
            assert abs(est.mean - closed_form_volume(kind, pf, grid)) <= 4.0 * est.stderr, kind

    @pytest.mark.parametrize("p, lower, upper, way", [
        (1.2, 5e-324, 1e-150, "underflows to 0"),
        (1.0001, 1e-320, 1e-300, "underflows to 0"),
        (2.0, 0.0, 1e154, "overflows floats"),
    ])
    def test_cone_outside_the_floats_names_its_direction(self, p, lower, upper, way):
        # f(upper) is positive and finite, but width * f(upper) / 6 is not
        pf = PowerFn(p, Interval(lower, upper))
        assert 0.0 < pf(upper) < np.inf
        with pytest.raises(DomainError, match=f"^the Monte-Carlo cone of x.* {way}$"):
            make_body(RelaxationKind.PR, pf)

    def test_validation(self):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        # the pilot of one chunk must be a valid budget
        assert mc_mod.MIN_SAMPLES <= mc_mod.BLOCK_SIZE
        with pytest.raises(DomainError, match=f"need at least {mc_mod.MIN_SAMPLES} samples"):
            mc_volume(body, mc_mod.MIN_SAMPLES - 1, seed=0)
        assert mc_volume(body, mc_mod.MIN_SAMPLES, seed=0).samples == mc_mod.MIN_SAMPLES
        with pytest.raises(DomainError):
            mc_volume(body, mc_mod.MIN_SAMPLES, seed=-1)
        with pytest.raises(DomainError):
            mc_volume(body, mc_mod.MIN_SAMPLES, seed=2**64)
        with pytest.raises(DomainError):
            make_body(RelaxationKind.PL_PR, PowerFn(2.0, UNIT))

    def test_samples_and_seed_must_be_integers(self):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        with pytest.raises(DomainError, match="seed must be an integer"):
            mc_volume(body, 50_000, seed=1.5)
        with pytest.raises(DomainError, match="samples must be an integer"):
            mc_volume(body, 1e5, seed=1)
        with pytest.raises(DomainError, match="seed must be an integer"):
            mc_volume(body, 50_000, seed=True)
        # integral numpy scalars are integers
        assert mc_volume(body, np.int64(50_000), seed=np.uint64(1)) == mc_volume(body, 50_000, 1)

    @pytest.mark.parametrize("workers", [1.5, True, "2"])
    def test_workers_must_be_an_integer(self, workers):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        with pytest.raises(DomainError, match="workers must be an integer"):
            mc_volume(body, 3 * mc_mod.BLOCK_SIZE, 1, workers)
        assert mc_volume(body, 3 * mc_mod.BLOCK_SIZE, 1, np.int64(2)) == mc_volume(
            body, 3 * mc_mod.BLOCK_SIZE, 1, 1
        )

    def test_workers_must_not_be_negative(self):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        with pytest.raises(DomainError, match="worker count must be >= 0"):
            mc_volume(body, 50_000, 1, -1)


class TestMembership:
    """Column lengths: the measure of each sampled column inside the body."""

    def test_nesting_on_sampled_points(self):
        bodies = _bodies()
        t = np.random.Generator(np.random.Philox(key=77)).random(20_000)
        length = {kind: _lengths(body, t) for kind, body in bodies.items()}
        pairs = [
            (RelaxationKind.PR, RelaxationKind.PL_PR),
            (RelaxationKind.PR, RelaxationKind.E_NR),
            (RelaxationKind.E_NR, RelaxationKind.NR),
            (RelaxationKind.E_NR, RelaxationKind.PL_E_NR),
            (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR),
        ]
        for small, large in pairs:
            assert (length[small] <= length[large]).all(), f"{small} not inside {large}"
        # and the chain is strict somewhere on this sample
        assert length[RelaxationKind.PR].sum() < length[RelaxationKind.PL_PR].sum()

    def test_extension_degenerates_at_zero_lower(self):
        # with lower == 0 there is nothing to extend: E+NR and NR coincide
        pf = PowerFn(2.0, UNIT)
        nr = mc_volume(make_body(RelaxationKind.NR, pf), 100_000, seed=5)
        enr = mc_volume(make_body(RelaxationKind.E_NR, pf), 100_000, seed=5)
        assert nr.hits == enr.hits and nr.mean == enr.mean

    @pytest.mark.parametrize(
        "p,lower,upper,n",
        [(3.7, 0.0, 1.0, 8), (1.5, 0.2, 3.0, 6), (8.0, 0.3, 1.2, 64), (40.0, 0.0, 2.0, 9),
         (3.0, 1000.0, 1000.001, 4), (1.2, 10.0, 10.0001, 30), (1.001, 6.63392, 6.633921, 5)],
    )
    def test_tangent_gap_is_the_least_tangent_gap(self, p, lower, upper, n):
        # plpr's column is a third of chord - T for the tangent T of w's
        # piece, which is affine in the offset t: (1 - t) D(lower) + t
        # D(upper) with D the Bregman gaps of the tangent at the interval's
        # ends.  As the estimator is the greatest tangent, that is the least
        # such column over all tangents, up to rounding: a Bregman gap is
        # within a few eps of the terms it cancels, |f(a) - f(x)| + f'(x) |a
        # - x|, both sides round a few times more, and the vertex where two
        # tangents' columns cross is off by a few eps * upper, where the
        # columns part at the slopes' jump
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, n)
        body = make_body(RelaxationKind.PL_PR, PowerFn(p, iv), bp)
        unit = body.unit
        vx = build_underestimator(PowerFn(p, iv).oracle(), bp).x
        rng = np.random.default_rng(n)
        w = np.concatenate([lower + iv.width * rng.random(5000),
                            vx, np.nextafter(vx, -np.inf), np.nextafter(vx, np.inf)])
        t = np.clip((w - lower) / iv.width, 0.0, 1.0)
        got = mc_mod._kernel.count_hits(body, t)[1] * unit
        xk = bp.xi
        ratio = body.rise is not None
        at_lo = mc_mod._kernel._bregman(p, lower, xk, ratio)
        at_up = mc_mod._kernel._bregman(p, upper, xk, ratio)
        columns = (1.0 - t[:, None]) * at_lo + t[:, None] * at_up
        k = np.searchsorted(body.cuts, t, side="right")  # the kernel's piece
        slope = p * xk ** (p - 1.0)

        def terms(a):
            return np.abs(a**p - xk**p) + slope * np.abs(a - xk)

        least = columns.argmin(axis=1)
        crossing = (slope[np.minimum(k + 1, n)] - slope[np.maximum(k - 1, 0)]) * upper
        eps = np.finfo(float).eps
        rounding = terms(lower) + terms(upper)
        tol = 8.0 * eps * (rounding[k] + rounding[least]) + 4.0 * eps * crossing
        assert (np.abs(got - columns[np.arange(t.size), least]) <= tol).all()

    def test_scalar_membership(self):
        # one column by hand: x**2 on [0.5, 1] has chord 1.5 w - 0.5, and the
        # nr column integrates z (z chord - (z w)**2) over z
        body = _bodies()[RelaxationKind.NR]
        w = 0.9
        (h,) = _lengths(body, [(w - 0.5) / 0.5])
        assert h == pytest.approx((1.5 * w - 0.5) / 3.0 - w * w / 4.0, rel=1e-14)
        assert 0.0 < h < (1.5 * w - 0.5) / 3.0

    def test_points_outside_the_planes_are_out_without_warnings(self):
        # columns of no length: at both ends of the footprint the chord meets
        # f, which leaves the perspective kinds none, and at lower 0 the
        # column at w = 0 is the apex for every kind; w = 0 makes x**p 0**p
        # and plenr's column 0 / 0 before it is clipped
        for iv in (UNIT, Interval(0.3, 1.2)):
            for body in _bodies(p=3.7, iv=iv).values():
                with warnings.catch_warnings(), np.errstate(all="raise"):
                    warnings.simplefilter("error")
                    h = _lengths(body, [0.0, 1.0, 0.5])
                assert h[2] > 0.0, body.kind
                if body.kind in PERSPECTIVE or iv.lower == 0.0:
                    assert h[0] == 0.0, body.kind
                if body.kind in PERSPECTIVE:
                    assert h[1] == 0.0, body.kind

    @pytest.mark.parametrize("kind", PERSPECTIVE, ids=lambda k: k.value)
    def test_perspective_fractions_do_not_read_z(self, kind):
        # L = z L(w) for the perspective kinds, so the column's integrand is
        # z**2 (chord(w) - L(w)) and its integral over z a third of the gap
        for iv in (UNIT, Interval(0.3, 1.2)):
            body = _bodies(p=3.7, iv=iv)[kind]
            t = np.linspace(0.0, 1.0, 41)
            w = iv.lower + iv.width * t
            if body.cuts is None:
                lower = w**3.7
            else:
                bp = Breakpoints.equally_spaced(iv, 3)
                est = build_underestimator(PowerFn(3.7, iv).oracle(), bp)
                lower = np.interp(w, est.x, est.y)
            chord = body.lower_height + (body.upper_height - body.lower_height) * t
            gap = chord - lower
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                h = _lengths(body, t)
            # chord, L and the kernel's column each round within an eps of f(upper)
            tol = 4.0 * np.finfo(float).eps * body.upper_height
            assert h == pytest.approx(np.maximum(gap, 0.0) / 3.0, rel=0.0, abs=tol)
            assert h.any()

    def test_extension_below_lower_end(self):
        # with lower > 0, the chord from the origin bounds the part of a
        # column below lower (z < lower / w): the enr column is the nr one
        # less kappa f(lower) (lower / w)**2 / 3, kappa = (p - 1) / (p + 2)
        bodies = _bodies()
        t = np.array([0.2, 0.6, 1.0])
        w = 0.5 + 0.5 * t
        enr = _lengths(bodies[RelaxationKind.E_NR], t)
        nr = _lengths(bodies[RelaxationKind.NR], t)
        assert nr == pytest.approx((1.5 * w - 0.5) / 3.0 - w * w / 4.0, rel=1e-14)
        assert enr == pytest.approx(nr - 0.25 * 0.25 * 0.25 / w**2 / 3.0, rel=1e-14)
        assert (enr < nr).all()


def _mp_column(mpmath, kind, p, lower, upper, xi, t):
    """``∫₀¹ z (z chord(w) - L(z w)) dz`` at ``w = lower + t (upper -
    lower)`` in the working precision, split at the integrand's kinks ``z =
    lower / w`` and ``z = c / w`` for the cuts ``c`` of adjacent tangents;
    the estimator is the greatest tangent at the breakpoints."""
    mp = mpmath.mpf
    p, lo, up = mp(p), mp(lower), mp(upper)
    w = lo + mp(float(t)) * (up - lo)
    f_lo, f_up = lo**p, up**p
    chord = f_lo + (f_up - f_lo) * (w - lo) / (up - lo)
    tangents = [(x**p, p * x ** (p - 1), x) for x in (mp(float(v)) for v in xi)]

    def est(x):
        return max(fx + dx * (x - x0) for fx, dx, x0 in tangents)

    def lower_bound(z):
        x = z * w
        if kind is RelaxationKind.PR:
            return z * w**p
        if kind is RelaxationKind.PL_PR:
            return z * est(w)
        if kind is RelaxationKind.NR or x >= lo:
            return x**p if kind is not RelaxationKind.PL_E_NR else est(x)
        return f_lo * x / lo

    kinks = [lo / w]
    for (fa, da, a), (fb, db, b) in zip(tangents[:-1], tangents[1:]):
        kinks.append(((fb - db * b) - (fa - da * a)) / (da - db) / w)
    points = [mp(0)] + sorted(z for z in kinks if 0 < z < 1) + [mp(1)]
    return mpmath.quad(lambda z: z * (z * chord - lower_bound(z)), points)


class TestColumns:
    """Each kind's column against a high-precision quadrature over z of the
    column's integrand, the old two-dimensional column length."""

    @pytest.mark.parametrize("kind", list(RelaxationKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "p,lower,upper,n",
        [(3.7, 0.0, 1.0, 8), (1.5, 0.2, 3.0, 6), (8.0, 0.3, 1.2, 16), (2.0, 0.5, 1.0, 3),
         (1.2, 0.7, 1.0, 5), (3.0, 1.0, 1.5, 4)],
    )
    def test_columns_match_high_precision_reference(self, kind, p, lower, upper, n):
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, n)
        body = make_body(kind, PowerFn(p, iv), bp)
        t = np.linspace(0.01, 0.99, 15)
        got = _lengths(body, t)
        with mpmath.workdps(40):
            want = np.array([float(_mp_column(mpmath, kind, p, lower, upper, bp.xi, ti))
                             for ti in t])
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_tangent_columns_where_lower_over_upper_is_not_a_float(self):
        # on [1e-320, 1e5] lower/upper underflows to 0, but the slope of the
        # tangent at lower, p (lower/upper)**(p-1), is e**-0.75 of p at p =
        # 1.001; offsets from 1e-6 reach into the first piece, which ends
        # near 6e-4
        mpmath = pytest.importorskip("mpmath")
        p, lower, upper = 1.001, 1e-320, 1e5
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, 3)
        body = make_body(RelaxationKind.PL_PR, PowerFn(p, iv), bp)
        t = np.geomspace(1e-6, 0.99, 15)
        got = _lengths(body, t)
        with mpmath.workdps(40):
            want = np.array([float(_mp_column(mpmath, RelaxationKind.PL_PR, p, lower, upper,
                                              bp.xi, ti)) for ti in t])
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", [RelaxationKind.E_NR, RelaxationKind.PL_E_NR],
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("p,lower,upper,n", [(3.0, 1000.0, 1000.001, 4), (3.0, 1.0, 1.001, 4)])
    def test_naive_columns_keep_their_accuracy_on_narrow_intervals(self, kind, p, lower, upper, n):
        # no two values of size f(lower) are subtracted: the columns stay
        # within a few eps of the reference where they are a millionth of
        # f(lower); the two-dimensional kernel was off by up to 3e-8 here
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, n)
        body = make_body(kind, PowerFn(p, iv), bp)
        t = np.linspace(0.003, 0.997, 9)
        got = _lengths(body, t)
        with mpmath.workdps(40):
            want = np.array([float(_mp_column(mpmath, kind, p, lower, upper, bp.xi, ti))
                             for ti in t])
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "p,lower,upper",
        [(3.0, 1000.0, 1000.001), (2.0, 1.0, 1.001), (1.001, 6.63392, 6.633921), (1.2, 0.7, 1.0),
         (40.0, 1.0, 1.017), (2.0, 1.0, 1.008), (8.0, 1.0, 1.002), (1.0001, 1.0, 1.2)]
        + [(p, lower, upper) for p in (1.001, 1.05, 1.5, 3.7)
           for lower, upper in ((1.0, 1.15), (1.0, 1.5), (10.0, 10.5), (0.8, 1.0))
           if p * math.log(upper / lower) <= math.log(2.0)],
    )
    def test_perspective_columns_keep_their_accuracy_near_the_ends(self, p, lower, upper):
        # where f(upper) <= 2 f(lower), pr's column is (1 - t) D(lower; w) + t
        # D(upper; w) in Bregman gaps to the tangent at w, with no cancelling
        # term: near t = 1 the column is first order in 1 - t, and a
        # difference chord - f(w) of two first-order terms cancelled to
        # 7.9e-8 at t = 0.997 on [1000, 1000.001].  Each gap is one series
        # in y = p log(a / w).  To first order in u = eps/2: log(w / lower)
        # carries 3 u (width / lower, times t, log1p) and y 4 u, which the
        # gap, quadratic in y, doubles to 8 u; the series' leading
        # coefficient, y**2 and the sum of its terms 5 u; the two weights
        # and their sum 2 u; f(w) / f(lower) = exp(p log(w / lower)), with
        # |p log(w / lower)| <= ln 2, about 4 u, and the last product u;
        # _lengths' f(lower) / 3 and its product 3 u: 23 u, within 12 eps.
        # The upper gap's log(upper / w), a difference that cancels near t
        # = 1, is off by at most 5 u log(upper / lower); as t (1 - t)
        # log(upper / lower)**2 is the column's size, that is at most 10 u
        # of the column, against the lower gap's 8 u it stands in for
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(lower, upper)
        body = make_body(RelaxationKind.PR, PowerFn(p, iv))
        assert body.rise is not None
        t = np.array([1e-9, 0.003, 0.1, 0.5, 0.9, 0.99, 0.997, 0.9999, 1.0 - 1e-9])
        got = _lengths(body, t)
        with mpmath.workdps(40):
            want = np.array([float(_mp_column(mpmath, RelaxationKind.PR, p, lower, upper,
                                              [lower, upper], ti)) for ti in t])
        assert got == pytest.approx(want, rel=12 * np.finfo(float).eps, abs=0.0)

    @pytest.mark.parametrize(
        "p,lower,upper,n",
        [(3.0, 1000.0, 1000.001, 4), (1.2, 10.0, 10.0001, 30), (1.001, 6.63392, 6.633921, 5),
         (2.0, 1.0, 1.4, 8), (1.25, 1.0, 1.7, 6)],
    )
    def test_tangent_columns_keep_their_accuracy_on_narrow_intervals(self, p, lower, upper, n):
        # where f(upper) <= 2 f(lower), plpr's coefficients are the Bregman
        # gaps D(lower; x_k) and D(upper; x_k) in the same cancellation-free
        # form as pr's columns; the ratio form expm1(p log1p(r)) - p r with r
        # = a / x_k - 1 left 1e-10 on [1000, 1000.001] and 6e-6 at p = 1.001.
        # Checked at the quarter points of each piece, away from the cuts,
        # against (chord - est(w)) / 3, the integral over z of z**2 (chord -
        # est(w)), with est the greatest tangent
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, n)
        body = make_body(RelaxationKind.PL_PR, PowerFn(p, iv), bp)
        assert body.rise is not None
        ends = np.concatenate(([0.0], body.cuts, [1.0]))
        t = (ends[:-1, None] + np.outer(np.diff(ends), [0.25, 0.5, 0.75])).ravel()
        got = _lengths(body, t)
        with mpmath.workdps(40):
            mp = mpmath.mpf
            q, lo, up = mp(p), mp(lower), mp(upper)
            xk = [mp(float(x)) for x in bp.xi]
            want = []
            for ti in t:
                w = lo + mp(float(ti)) * (up - lo)
                chord = lo**q + (up**q - lo**q) * (w - lo) / (up - lo)
                est = max(x**q + q * x ** (q - 1) * (w - x) for x in xk)
                want.append(float((chord - est) / 3))
        assert got == pytest.approx(np.array(want), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", [RelaxationKind.PL_PR, RelaxationKind.PL_E_NR],
                             ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "p,lower,upper,n",
        [(3.7, 0.0, 1.0, 8), (8.0, 0.3, 1.2, 64), (3.0, 1000.0, 1000.001, 4), (1.5, 0.2, 3.0, 200)],
    )
    def test_columns_take_the_searched_piece(self, kind, p, lower, upper, n):
        # the kernel's column at each cut offset, at both of its float
        # neighbours and at the ends is the column of the piece that
        # np.searchsorted finds among the cut offsets, bit for bit; so is
        # every column of a chunk of three strata, fewer than the cuts
        iv = Interval(lower, upper)
        body = make_body(kind, PowerFn(p, iv), Breakpoints.equally_spaced(iv, n))
        cuts = body.cuts
        assert cuts.size == n
        t = np.clip(np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
                                    [0.0, 1.0]]), 0.0, 1.0)
        pair = np.random.default_rng(n).random((3, 2))
        pair += np.arange(3)[:, None]
        pair /= 3.0
        for t in (t, pair):
            got = mc_mod._kernel.count_hits(body, t)[1]
            k = np.searchsorted(cuts, t, side="right")
            assert got.shape == t.shape
            assert np.array_equal(got, column_on_piece(body, t, k))
        # the cut offsets are those of the under-estimator's inner vertices
        est = build_underestimator(PowerFn(p, iv).oracle(), Breakpoints.equally_spaced(iv, n))
        assert np.array_equal(cuts, (est.x[1:-1] - lower) / iv.width)

    @staticmethod
    def _tangent_bodies():
        # the grids of test_columns_take_the_searched_piece and three
        # vertices within 2e-7 of each other
        for p, lower, upper, n in ((3.7, 0.0, 1.0, 8), (8.0, 0.3, 1.2, 64),
                                   (3.0, 1000.0, 1000.001, 4), (1.5, 0.2, 3.0, 200)):
            iv = Interval(lower, upper)
            yield make_body(RelaxationKind.PL_PR, PowerFn(p, iv), Breakpoints.equally_spaced(iv, n))
        bp = Breakpoints(UNIT, [0.0, 0.5, 0.5 + 1e-7, 0.5 + 2e-7, 1.0])
        yield make_body(RelaxationKind.PL_PR, PowerFn(3.0, UNIT), bp)

    def test_tangent_knots_repeat_each_cut(self):
        # plpr's knot table: piece k from knot 2k to knot 2k + 1, so the
        # offsets run from 0 to 1 without decreasing and each cut offset is
        # the end of one piece and the start of the next
        for body in self._tangent_bodies():
            x, y = body.columns
            cuts = body.cuts
            assert body.columns.shape == (2, 2 * (cuts.size + 1))
            assert x[0] == 0.0 and x[-1] == 1.0
            assert (np.diff(x) >= 0.0).all()
            assert np.array_equal(x[1:-1:2], cuts) and np.array_equal(x[2:-1:2], cuts)
            assert np.isfinite(y).all()

    def test_cut_offsets_take_the_next_piece_without_warnings(self):
        # at a cut offset np.interp takes the cut's second knot, the start of
        # the next piece, and never evaluates the zero-length segment between
        # the two knots, whose slope is inf or nan; in a chunk of more
        # columns than knots np.interp computes those slopes, and no
        # floating-point error or warning escapes
        for body in self._tangent_bodies():
            x, y = body.columns
            cuts = body.cuts
            rows = np.concatenate([cuts, [0.0, 1.0], np.random.default_rng(cuts.size).random(x.size)])
            t = np.sort(np.tile(rows, (2, 1)), axis=1)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                h = mc_mod._kernel.count_hits(body, t)[1]
            at = np.isin(t, cuts)
            assert at.sum() >= 2 * cuts.size
            nxt = np.searchsorted(cuts, t[at], side="right")  # the piece starting at t
            assert np.array_equal(h[at], np.fmax(y[2 * nxt], 0.0))
            assert np.array_equal(h[t == 0.0], np.full((t == 0.0).sum(), max(y[0], 0.0)))
            assert np.array_equal(h[t == 1.0], np.full((t == 1.0).sum(), max(y[-1], 0.0)))

    @pytest.mark.parametrize("kind", [RelaxationKind.PL_PR, RelaxationKind.PL_E_NR],
                             ids=lambda k: k.value)
    def test_piece_columns_near_the_float_limit(self, kind):
        # f(upper) and the cone fit, but p f(upper), a term of plpr's Bregman
        # gap at the lower end, does not: plpr's table takes the gaps in
        # ratios to upper, and plenr's slopes stay finite
        iv = Interval(0.0, 33.9)
        pf = PowerFn(200.0, iv)
        bp = Breakpoints.equally_spaced(iv, 4)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert np.isfinite(make_body(kind, pf, bp).columns).all()


# Mean column length of the kernel, summed over blocks 0-2 of _footprint_block,
# offsets drawn uniformly on [0, 1]: body (kind, lower, p) on [lower, 2] with 5
# equal pieces for the PL kinds, one entry per seed in GOLDEN_SEEDS.  Every
# column of these blocks meets its body, so the hits are all 3 * 2**16.
GOLDEN_UPPER = 2.0
GOLDEN_SEEDS = (7, 8, 9)
GOLDEN_BLOCKS = 3
GOLDEN_KERNEL = {
    ('enr', 0.0, 2.0): (0.9990270029624757, 0.9991575458575885, 1.000425851296412),
    ('enr', 0.0, 3.7): (5.0353637335904144, 5.037922706434805, 5.0446592732709465),
    ('enr', 0.3, 2.0): (0.8681571539377274, 0.8684005409791811, 0.8694237565079331),
    ('enr', 0.3, 3.7): (4.784160654593196, 4.7866982023156925, 4.792703772267449),
    ('nr', 0.0, 2.0): (0.9990270029624757, 0.9991575458575885, 1.000425851296412),
    ('nr', 0.0, 3.7): (5.0353637335904144, 5.037922706434805, 5.0446592732709465),
    ('nr', 0.3, 2.0): (0.8715434203059835, 0.8717852772153899, 0.8727975233519356),
    ('nr', 0.3, 3.7): (4.784989314162911, 4.787526487443936, 4.793529373055231),
    ('plenr', 0.0, 2.0): (1.01901581089761, 1.0191514112188165, 1.020407867613135),
    ('plenr', 0.0, 3.7): (5.097592489953219, 5.100284618457001, 5.107015553617936),
    ('plenr', 0.3, 2.0): (0.8804295095247905, 0.880676833958145, 0.8817033129893842),
    ('plenr', 0.3, 3.7): (4.837196969071665, 4.839824921643534, 4.845834960302506),
    ('plpr', 0.0, 2.0): (0.6800438479295794, 0.6793646951887274, 0.6805870074994499),
    ('plpr', 0.0, 3.7): (3.8085565713060614, 3.806334000256863, 3.8149307464499747),
    ('plpr', 0.3, 2.0): (0.4913316801291209, 0.49084099227385547, 0.4917241129183524),
    ('plpr', 0.3, 3.7): (3.31626514232354, 3.314009714141683, 3.321202142384326),
    ('pr', 0.0, 2.0): (0.6666952945873812, 0.6660979025380547, 0.66728756230226),
    ('pr', 0.0, 3.7): (3.730605569632106, 3.72870021387814, 3.7371011225047677),
    ('pr', 0.3, 2.0): (0.48168735033938287, 0.4812557345837446, 0.48211526376338293),
    ('pr', 0.3, 3.7): (3.249653052974314, 3.247712330898014, 3.2547231793301328),
}

# The oracle's (mean, stderr) over GOLDEN_BLOCKS chunks of its own stream, for
# the same bodies and seeds.
GOLDEN_ESTIMATES = {
    ('enr', 0.0, 2.0): (
        (0.6666666478464168, 2.011625517361343e-07),
        (0.6666670574105839, 1.9723190215085357e-07),
        (0.6666666441001823, 2.002262208971177e-07),
    ),
    ('enr', 0.0, 3.7): (
        (3.36179737720172, 9.6249239146777e-07),
        (3.3617991560025673, 9.456791882201777e-07),
        (3.3617966398650343, 9.55311216542277e-07),
    ),
    ('enr', 0.3, 2.0): (
        (0.4925041785835989, 1.3875595067768698e-07),
        (0.49250443302980923, 1.3593300929000503e-07),
        (0.492504116508016, 1.3811525115673037e-07),
    ),
    ('enr', 0.3, 3.7): (
        (2.71495106463868, 7.477992986599547e-07),
        (2.714952326024376, 7.341481482488432e-07),
        (2.7149503309832395, 7.423005558335389e-07),
    ),
    ('nr', 0.0, 2.0): (
        (0.6666666478464168, 2.011625517361343e-07),
        (0.6666670574105839, 1.9723190215085357e-07),
        (0.6666666441001823, 2.002262208971177e-07),
    ),
    ('nr', 0.0, 3.7): (
        (3.36179737720172, 9.6249239146777e-07),
        (3.3617991560025673, 9.456791882201777e-07),
        (3.3617966398650343, 9.55311216542277e-07),
    ),
    ('nr', 0.3, 2.0): (
        (0.49441668305139747, 1.3572942677569442e-07),
        (0.49441692957059985, 1.3293575963869918e-07),
        (0.4944166181362426, 1.3502819491695155e-07),
    ),
    ('nr', 0.3, 3.7): (
        (2.715419077180228, 7.471796191737796e-07),
        (2.715420336626091, 7.33537128025933e-07),
        (2.7154183428299095, 7.416695646484904e-07),
    ),
    ('plenr', 0.0, 2.0): (
        (0.6799999639476368, 2.0588618647087693e-07),
        (0.6800003780718974, 2.0166738955420686e-07),
        (0.6799999741822633, 2.0502020522568756e-07),
    ),
    ('plenr', 0.0, 3.7): (
        (3.4033991462317954, 9.69681988856058e-07),
        (3.403400961125612, 9.526096993982944e-07),
        (3.4033983383632163, 9.627068199822115e-07),
    ),
    ('plenr', 0.3, 2.0): (
        (0.4994642570054795, 1.4091120247718536e-07),
        (0.4994645147964955, 1.3792193479529338e-07),
        (0.4994641963956567, 1.4021385570221429e-07),
    ),
    ('plenr', 0.3, 3.7): (
        (2.745075288453353, 7.541278297438693e-07),
        (2.745076571914202, 7.402400381375041e-07),
        (2.7450745211718686, 7.486339840408495e-07),
    ),
    ('plpr', 0.0, 2.0): (
        (0.4533331972967331, 2.4138448998546003e-07),
        (0.4533336997175253, 2.3885438071719095e-07),
        (0.4533335665479535, 2.4188158817064033e-07),
    ),
    ('plpr', 0.0, 3.7): (
        (2.540585654784646, 1.4927231005829898e-06),
        (2.5405890147860526, 1.4720606036368605e-06),
        (2.540587941782471, 1.4917010165161841e-06),
    ),
    ('plpr', 0.3, 2.0): (
        (0.2784032497898562, 1.4824024991231922e-07),
        (0.27840355833902525, 1.4668644655794817e-07),
        (0.27840347655626185, 1.4854553033529582e-07),
    ),
    ('plpr', 0.3, 3.7): (
        (1.8800880068042327, 1.0665483406091714e-06),
        (1.8800903366547648, 1.0542935503349438e-06),
        (1.8800895217423204, 1.0664173491678578e-06),
    ),
    ('pr', 0.0, 2.0): (
        (0.44444424746170896, 2.3249160145568186e-07),
        (0.4444448243316816, 2.3056874958287418e-07),
        (0.44444462763857767, 2.3184482729725282e-07),
    ),
    ('pr', 0.0, 3.7): (
        (2.4886020063064085, 1.403611917831961e-06),
        (2.488605656078953, 1.392926594159118e-06),
        (2.4886039842196768, 1.3962422383747398e-06),
    ),
    ('pr', 0.3, 2.0): (
        (0.2729443234724221, 1.427789047439699e-07),
        (0.272944677742694, 1.4159803333757003e-07),
        (0.27294455694854153, 1.423817045639216e-07),
    ),
    ('pr', 0.3, 3.7): (
        (1.8423411164630388, 1.0111986205721178e-06),
        (1.8423437387481654, 1.0035034224661622e-06),
        (1.8423425906536852, 1.0060883604077611e-06),
    ),
}

# Packed masks of the columns that meet each body among _boundary_columns.
BOUNDARY_BODIES = ((3.7, Interval(0.3, 1.2), 4), (2.0, UNIT, 3))
GOLDEN_BOUNDARY_COLUMNS = {
    ('nr', 3.7): 'f8',
    ('nr', 2.0): '78',
    ('pr', 3.7): '28',
    ('pr', 2.0): '38',
    ('plpr', 3.7): '3bcffc',
    ('plpr', 2.0): '3b9fe0',
    ('enr', 3.7): '68',
    ('enr', 2.0): '78',
    ('plenr', 3.7): '7beffe',
    ('plenr', 2.0): '6bdef0',
}


def _golden_body(kind, lower, p):
    iv = Interval(lower, GOLDEN_UPPER)
    return make_body(RelaxationKind(kind), PowerFn(p, iv), Breakpoints.equally_spaced(iv, 5))


def _footprint_block(seed, block):
    """Block ``block`` of ``Philox(seed)`` as ``2**16`` offsets uniform on
    ``[0, 1]``: a fixed input that pins the kernel apart from the oracle's
    own stream and strata."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(block)).random(1 << 16)


def _boundary_columns(body):
    """Offsets at both ends and the middle of the footprint and next to its
    ends, and at and next to every vertex of the estimator."""
    t = [0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53]
    if body.cuts is not None:
        vx = np.concatenate(([0.0], body.cuts, [1.0]))
        t += [*vx, *np.nextafter(vx, -np.inf), *np.nextafter(vx, np.inf)]
    return np.clip(t, 0.0, 1.0)


class TestGoldenHits:
    """The kernel's column lengths are pinned, not just their statistics.

    Means are compared to 1e-12 relative: ``np.power`` may differ in the last
    place between numpy builds, and nothing else in them should move."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_KERNEL))
    def test_block_hits(self, key):
        body = _golden_body(*key)
        for seed, want in zip(GOLDEN_SEEDS, GOLDEN_KERNEL[key]):
            blocks = [_footprint_block(seed, b) for b in range(GOLDEN_BLOCKS)]
            hits = sum(mc_mod._kernel.count_hits(body, t)[0] for t in blocks)
            assert hits == GOLDEN_BLOCKS * (1 << 16)
            means = sum(_lengths(body, t).mean() for t in blocks)
            assert means == pytest.approx(want, rel=1e-12), seed

    @pytest.mark.parametrize("key", sorted(GOLDEN_ESTIMATES))
    def test_cone_block_hits(self, key):
        # the oracle's own stream, strata and sums, over three chunks
        body = _golden_body(*key)
        for seed, want in zip(GOLDEN_SEEDS, GOLDEN_ESTIMATES[key]):
            est = mc_volume(body, GOLDEN_BLOCKS * mc_mod.BLOCK_SIZE, seed)
            assert est.hits == GOLDEN_BLOCKS * mc_mod.BLOCK_SIZE
            assert (est.mean, est.stderr) == pytest.approx(want, rel=1e-12), seed

    @pytest.mark.parametrize("kind", [k.value for k in RelaxationKind])
    def test_boundary_points(self, kind):
        for p, iv, n in BOUNDARY_BODIES:
            body = make_body(RelaxationKind(kind), PowerFn(p, iv), Breakpoints.equally_spaced(iv, n))
            t = _boundary_columns(body)
            with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise",
                                                         over="raise"):
                warnings.simplefilter("error")
                hits, h = mc_mod._kernel.count_hits(body, t)
            assert (h >= 0.0).all() and np.isfinite(h).all()
            assert hits == np.count_nonzero(h)
            assert np.packbits(h > 0.0).tobytes().hex() == GOLDEN_BOUNDARY_COLUMNS[kind, p]

    def test_block_with_no_survivors(self):
        # columns of no length: the perspective kinds leave none where the
        # chord meets f, over both ends of the footprint; on lower 0 every
        # kind leaves none at w = 0, the apex
        for iv in (HALF, UNIT):
            for body in _bodies(p=3.7, iv=iv).values():
                if body.kind in PERSPECTIVE:
                    t = np.resize([0.0, 1.0], 101)
                elif iv.lower == 0.0:
                    t = np.zeros(101)
                else:
                    continue
                hits, h = mc_mod._kernel.count_hits(body, t)
                assert hits == 0 and not h.any()


def _random_bodies(count, seed):
    """Seeded bodies of every kind: l/u 0 or up to 0.9, upper in [0.1, 100],
    p in [1.1, 8], and 2 to 12 equal pieces for the piecewise-linear kinds."""
    rng = np.random.default_rng(seed)
    kinds = list(RelaxationKind)
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        upper = 10.0 ** rng.uniform(-1.0, 2.0)
        lower = 0.0 if i % 2 == 0 else upper * rng.uniform(0.0, 0.9)
        iv = Interval(lower, upper)
        pf = PowerFn(rng.uniform(1.1, 8.0), iv)
        bp = None
        if kind.piecewise_linear:
            bp = Breakpoints.equally_spaced(iv, int(rng.integers(2, 13)))
        out.append((make_body(kind, pf, bp), closed_form_volume(kind, pf, bp)))
    return out


def _kinked_bodies(count, seed):
    """Seeded plpr and plenr bodies, whose column lengths kink at every
    vertex of the estimator: upper in [0.1, 100], l/u 0 or up to 0.9, p in
    [1.1, 8] and 2 to 32 equal pieces."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR)[i % 2]
        upper = 10.0 ** rng.uniform(-1.0, 2.0)
        lower = 0.0 if i % 4 < 2 else upper * rng.uniform(0.0, 0.9)
        iv = Interval(lower, upper)
        pf = PowerFn(rng.uniform(1.1, 8.0), iv)
        bp = Breakpoints.equally_spaced(iv, int(rng.integers(2, 33)))
        out.append((make_body(kind, pf, bp), closed_form_volume(kind, pf, bp)))
    return out


class TestConeSampler:
    """The oracle draws stratified pairs of columns on the footprint of the
    cone every body lies in."""

    def test_estimates_match_closed_forms(self):
        bodies = _random_bodies(60, seed=2718)
        zs = []
        for i, (body, exact) in enumerate(bodies):
            est = mc_volume(body, 4 * mc_mod.BLOCK_SIZE, seed=1000 + i)
            zs.append((est.mean - exact) / est.stderr)
        zs = np.array(zs)
        assert np.abs(zs).max() <= 5.0, zs
        assert abs(zs.mean()) <= 4.0 / np.sqrt(zs.size), zs.mean()

    def test_stderr_is_calibrated_on_kinked_bodies(self):
        # at the one-chunk pilot, the estimates' distances from the closed
        # forms in their own stderrs behave as normal ones: none beyond 5, and
        # the share beyond 2 (4.55% for a normal) within three binomial sds
        zs = []
        for i, (body, exact) in enumerate(_kinked_bodies(300, seed=0)):
            est = mc_volume(body, mc_mod.BLOCK_SIZE, seed=i)
            zs.append((est.mean - exact) / est.stderr)
        zs = np.abs(zs)
        assert zs.max() <= 5.0, zs.max()
        share, n = 0.0455, zs.size
        assert abs((zs > 2.0).sum() - share * n) <= 3.0 * np.sqrt(n * share * (1.0 - share))

    def test_stderr_is_calibrated_on_every_kind(self):
        # the same at the one-chunk pilot over seeded bodies of every kind
        # with a closed form, where nr, enr and plenr now reach the relative
        # stderr of pr: none beyond 5 sigma, and the share beyond 2 within
        # three binomial sds of a normal's
        zs = []
        for i, (body, exact) in enumerate(_random_bodies(300, seed=1)):
            est = mc_volume(body, mc_mod.BLOCK_SIZE, seed=i)
            zs.append((est.mean - exact) / est.stderr)
        zs = np.abs(zs)
        assert zs.max() <= 5.0, zs.max()
        share, n = 0.0455, zs.size
        assert abs((zs > 2.0).sum() - share * n) <= 3.0 * np.sqrt(n * share * (1.0 - share))

    def test_narrow_plenr_matches_high_precision_volume(self):
        # on [1000, 1000.001] the float closed form cancels (ROADMAP item 2);
        # the oracle, whose column subtracts no two values of size f(lower),
        # agrees with the closed form's formula evaluated in 60 digits
        mpmath = pytest.importorskip("mpmath")
        iv = Interval(1000.0, 1000.001)
        bp = Breakpoints.equally_spaced(iv, 4)
        est = mc_volume(make_body(RelaxationKind.PL_E_NR, PowerFn(3.0, iv), bp), 200_000, seed=1)
        with mpmath.workdps(60):
            p, lo, up = mpmath.mpf(3), mpmath.mpf(iv.lower), mpmath.mpf(iv.upper)
            xi = [mpmath.mpf(float(x)) for x in bp.xi]
            d = [p * x ** (p - 1) for x in xi]
            t = [lo] + [(x1 * d1 - x0 * d0 - (x1**p - x0**p)) / (d1 - d0)
                        for x0, x1, d0, d1 in zip(xi, xi[1:], d, d[1:])] + [up]
            vol = sum(((b**2 - a**2) / 2 - (b**3 - a**3) / (6 * up)) * dk
                      for a, b, dk in zip(t, t[1:], d))
            vol -= (up + 2 * lo) / 6 * (up**p - lo**p) + (up - lo) / (6 * up) * (up**(p + 1) - lo**(p + 1))
            exact = float(vol)
        assert est.stderr < 1e-7 * exact
        assert abs(est.mean - exact) <= 4.0 * est.stderr

    @pytest.mark.parametrize("kind", [RelaxationKind.NR, RelaxationKind.PL_PR],
                             ids=lambda k: k.value)
    def test_chunks_are_two_sorted_runs(self, kind, monkeypatch):
        # every chunk reaches the kernel as two rows of offsets, one per
        # column of its strata, each nondecreasing: the piece lookup's fast path
        iv = Interval(0.2, 1.5)
        body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        seen = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, t):
            seen.append(t.copy())
            return count_hits(body, t)

        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        half = mc_mod.BLOCK_SIZE // 2
        for seed, samples in enumerate((mc_mod.MIN_SAMPLES, 2 * mc_mod.BLOCK_SIZE + 1234,
                                        3 * mc_mod.BLOCK_SIZE + 3)):
            seen.clear()
            mc_volume(body, samples, seed=seed)
            strata = samples // 2
            rows = [min(half, strata - start) for start in range(0, strata, half)]
            assert [t.shape for t in seen] == [(2, r) for r in rows]
            for t in seen:
                assert (t[:, 1:] >= t[:, :-1]).all()
            # and the runs continue from chunk to chunk
            assert (np.concatenate(seen, axis=1) == _one_pass(seed, samples)).all()

    @pytest.mark.parametrize("kind", list(RelaxationKind), ids=lambda k: k.value)
    def test_columns_do_not_depend_on_the_order_of_the_offsets(self, kind):
        # count_hits takes offsets of any order and shape: a permuted copy
        # gives the same columns, permuted the same way
        iv = Interval(0.2, 1.5)
        body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        t = _one_pass(4, mc_mod.BLOCK_SIZE)
        hits, h = mc_mod._kernel.count_hits(body, t)
        perm = np.random.default_rng(4).permutation(t.size)
        moved_hits, moved = mc_mod._kernel.count_hits(body, t.ravel()[perm])
        assert moved_hits == hits and (moved == h.ravel()[perm]).all()
        pairs_hits, pairs = mc_mod._kernel.count_hits(body, t.T.copy())  # a stratum per row
        assert pairs_hits == hits and (pairs == h.T).all()

    def test_chunk_points_lie_in_the_shared_cone(self):
        # every offset lies in [0, 1], so w = lower + t * width lies in the
        # cone's footprint, and each pair lies in its stratum
        for i in range(4):
            samples = mc_mod.BLOCK_SIZE + 2 * i
            t = _one_pass(i, samples)
            assert ((t >= 0.0) & (t <= 1.0)).all()
            strata = t.shape[1]
            offset = t * strata - np.arange(strata)
            assert ((offset > -1e-9) & (offset < 1.0 + 1e-9)).all()

    def test_cone_volume_formula(self):
        for body, _ in _random_bodies(20, seed=5):
            lo, up = body.interval.lower, body.interval.upper
            pf = PowerFn(body.p, body.interval)
            assert body.cone_volume == (up - lo) * (pf(lo) + pf(up)) / 6.0

    def test_zero_uniforms_map_to_the_apex(self, monkeypatch):
        # with every uniform zero, each column sits at its stratum's lower
        # end: stratum 0's two, the first entry of both rows, at w = lower,
        # on lower 0 the apex, whose column every kind scores 0 without a
        # warning
        class Zeros:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                return np.zeros(shape)

        seen = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, t):
            seen.append(t.copy())
            hits, h = count_hits(body, t)
            seen.append(h.copy())
            return hits, h

        monkeypatch.setattr(mc_mod.np.random, "Generator", Zeros)
        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        strata = mc_mod.MIN_SAMPLES // 2
        for iv in (UNIT, HALF):
            for body in _bodies(p=3.0, iv=iv).values():
                seen.clear()
                with warnings.catch_warnings(), np.errstate(all="raise"):
                    warnings.simplefilter("error")
                    mc_volume(body, mc_mod.MIN_SAMPLES, seed=0)
                t, h = seen
                assert t.shape == (2, strata)
                assert (t[:, 0] == 0.0).all()
                assert (t == np.arange(strata) / strata).all()
                if iv.lower == 0.0 or body.kind in PERSPECTIVE:
                    assert (h[:, 0] == 0.0).all(), body.kind

    @pytest.mark.parametrize("kind", [k.value for k in RelaxationKind])
    def test_hits_do_not_depend_on_workers_or_chunking(self, kind):
        iv = Interval(0.2, 1.5)
        body = make_body(RelaxationKind(kind), PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        samples = 2 * mc_mod.BLOCK_SIZE + 1234  # not a multiple of a chunk
        est = {w: mc_volume(body, samples, seed=3, workers=w) for w in (1, 2, 4)}
        assert est[1] == est[2] == est[4]  # hits, mean and stderr, bit for bit
        # one kernel call over the offsets drawn in one pass scores each
        # column as the chunks do, and the chunks' sums rebuild the estimate
        hits, h = mc_mod._kernel.count_hits(body, _one_pass(3, samples))
        assert hits == est[1].hits
        total = spread = 0.0
        for start in range(0, h.shape[1], mc_mod.BLOCK_SIZE // 2):
            # a contiguous copy, summed in the chunk's own order
            pair = h[:, start:start + mc_mod.BLOCK_SIZE // 2].copy()
            d = pair[0] - pair[1]
            total += float(pair.sum())
            spread += float(np.dot(d, d))
        strata = h.shape[1]
        scale = iv.width * body.unit / 3.0
        assert est[1].mean == total / (2 * strata) * scale
        assert est[1].stderr == np.sqrt(spread / 4.0) / strata * scale

    @pytest.mark.parametrize("kind", list(RelaxationKind), ids=lambda k: k.value)
    def test_perspective_kinds_draw_only_w(self, kind, monkeypatch):
        # every kind draws one uniform per column: chunk c's (column,
        # stratum) array holds the stream's next BLOCK_SIZE draws in order,
        # so draw k = c BLOCK_SIZE + j half + i of the stream, with half =
        # BLOCK_SIZE / 2 and i < half, is column j of stratum c half + i
        iv = Interval(0.2, 1.5)
        body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        seen = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, t):
            seen.append(t.copy())
            return count_hits(body, t)

        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        samples = 2 * mc_mod.BLOCK_SIZE
        mc_volume(body, samples, seed=5)
        u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5))).random(samples)
        k, half = np.arange(samples), mc_mod.BLOCK_SIZE // 2
        want = (u + (k // mc_mod.BLOCK_SIZE * half + k % half)) / (samples // 2)
        assert [t.shape for t in seen] == [(2, half)] * 2
        assert (np.concatenate([t.ravel() for t in seen]) == want).all()

    @pytest.mark.parametrize("p", [1.3, 3.7, 8.0])
    @pytest.mark.parametrize("kind", ["nr", "pr", "enr"])
    def test_smooth_closed_forms_at_every_exponent(self, kind, p):
        # the closed forms of nr, pr and enr away from p = 2, against the oracle
        kind = RelaxationKind(kind)
        pf = PowerFn(p, Interval(0.15, 1.0))
        est = mc_volume(make_body(kind, pf), 200_000, seed=1)
        assert abs(est.mean - closed_form_volume(kind, pf, None)) <= 4.0 * est.stderr

    @pytest.mark.parametrize("kind", PERSPECTIVE, ids=lambda k: k.value)
    def test_huge_ratio_bodies_match_closed_forms(self, kind):
        # (upper / lower)**p overflows, so the perspective gaps fall back
        # from their ratio forms to the direct ones, without a warning
        iv = Interval(1e-10, 1.0)
        pf = PowerFn(40.0, iv)
        bp = Breakpoints.equally_spaced(iv, 5)
        if kind is RelaxationKind.PR:  # (w (f(l) + f(u)) / 2 - integral of f) / 3, f(l) = 0
            exact = (iv.width / 2.0 - (1.0 - iv.lower**41) / 41.0) / 3.0
        else:
            exact = closed_form_volume(kind, pf, bp)
        est = mc_volume(make_body(kind, pf, bp), 200_000, seed=1)
        assert abs(est.mean - exact) <= 4.0 * est.stderr

    @pytest.mark.parametrize(
        "kind,p,iv,n",
        [
            (RelaxationKind.PR, 2.0, Interval(1000.0, 1000.001), None),
            (RelaxationKind.PL_PR, 3.0, Interval(1.0, 1.001), 4),
        ],
    )
    def test_narrow_bodies_match_closed_forms(self, kind, p, iv, n):
        # hit-or-miss sampling counted no hit in these bodies at 200k samples
        pf = PowerFn(p, iv)
        bp = Breakpoints.equally_spaced(iv, n) if n else None
        est = mc_volume(make_body(kind, pf, bp), 200_000, seed=1)
        assert est.stderr > 0.0
        assert abs(est.mean - closed_form_volume(kind, pf, bp)) <= 4.0 * est.stderr
