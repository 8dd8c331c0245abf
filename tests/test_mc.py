import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from perspex import (
    Breakpoints,
    DomainError,
    Interval,
    PowerFn,
    RelaxationKind,
    make_body,
    mc_volume,
    volume_power_closed_form,
)
from perspex.power import closed_form_volume
from perspex import mc as mc_mod

UNIT = Interval(0.0, 1.0)
HALF = Interval(0.5, 1.0)
W_ONLY = (RelaxationKind.PR, RelaxationKind.PL_PR)  # kinds whose fractions do not read z
TINY_Z = 1e-301  # a column next to the z = 0 face, far below any sampled z


def _bodies(p=2.0, iv=HALF, n=3):
    pf = PowerFn(p, iv)
    bp = Breakpoints.equally_spaced(iv, n)
    return {kind: make_body(kind, pf, bp) for kind in RelaxationKind}


def _fractions(body, ws, zs):
    """The kernel's column fractions of ``body`` on the columns ``(ws, zs)``."""
    return mc_mod._kernel.column_fraction(body, ws, zs)


def _one_pass(body, seed, samples):
    """The columns ``mc_volume`` scores for ``samples``, drawn in one pass:
    ``(w, z)`` of shape ``(strata, 2)``, a stratum's two points per row, and
    ``z`` ``None`` for the kinds that do not read it.  Stratum ``i`` is
    ``w``-interval ``i`` for those kinds, and otherwise cell ``(i // nz, i %
    nz)`` of the ``nw x nz`` grid; each stratum takes its uniforms from
    consecutive draws of ``PCG64(SeedSequence(seed))``."""
    strata = samples // 2
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cell = np.arange(strata)[:, None]
    if body.kind in W_ONLY:
        nw, nz = strata, 1
        w, z = gen.random((strata, 2)) + cell, None
    else:
        nw, nz = mc_mod._grid(strata)
        u = gen.random((strata, 2, 2))
        w = u[:, :, 0] + cell // nz
        z = (u[:, :, 1] + cell % nz) / nz
    w = np.minimum(w * (body.interval.width / nw) + body.interval.lower, body.interval.upper)
    return w, z


def _lengths(body, w, z):
    """Column lengths per unit footprint width, from the column fractions:
    ``chord * g / 3`` for the kinds that do not read ``z``, else ``z**2 *
    chord * g``."""
    chord = body.secant_x * w + body.secant_z
    g = _fractions(body, w, z)
    return chord * g / 3.0 if z is None else z * z * chord * g


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
        # are asked for, in one kernel call that gets w as its second argument
        calls = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, w, z):
            calls.append((threading.get_ident(), w.size))
            return count_hits(body, w, z)

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
        # the uniforms behind chunk b are the stream's draws for strata b *
        # BLOCK_SIZE / 2 onwards, whatever the budget: a larger budget moves
        # the strata, not the draws of the chunks they share
        seen = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, w, z):
            seen.append(w.copy())
            return count_hits(body, w, z)

        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        body = make_body(RelaxationKind.PR, PowerFn(2.0, UNIT))
        offsets = {}
        for blocks in (2, 3):
            seen.clear()
            strata = blocks * mc_mod.BLOCK_SIZE // 2
            mc_volume(body, 2 * strata, seed=9)
            cell = np.tile(np.arange(mc_mod.BLOCK_SIZE // 2), 2)  # (point, stratum)
            offsets[blocks] = [
                w * strata - (cell + b * mc_mod.BLOCK_SIZE // 2) for b, w in enumerate(seen)
            ]
        for b in range(2):
            assert ((offsets[3][b] >= -1e-9) & (offsets[3][b] <= 1.0 + 1e-9)).all()
            assert offsets[3][b] == pytest.approx(offsets[2][b], rel=0.0, abs=1e-9)

    def test_block_keys_do_not_alias(self):
        # a seed past 2**32 spans two 32-bit words of the seed sequence
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        means = {mc_volume(body, 20_000, seed=s).mean for s in (0, 1, 2**32, 2**32 + 1, 2**64 - 1)}
        assert len(means) == 5

    def test_different_seeds_differ(self):
        # every sampled column meets this body, so the hits alone agree
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        assert mc_volume(body, 50_000, seed=1).mean != mc_volume(body, 50_000, seed=2).mean


class TestEstimates:
    def test_stderr_is_the_sample_standard_error(self):
        # recompute every column from its fraction in one pass: the mean of
        # the lengths, and the stderr from each stratum's pair difference
        iv = Interval(0.2, 1.5)
        samples = 2 * 12480 + 1  # a 120 x 104 grid: three whole chunks, a partial one, an odd budget
        for kind in RelaxationKind:
            body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
            est = mc_volume(body, samples, seed=11)
            w, z = _one_pass(body, 11, samples)
            h = _lengths(body, w.ravel(), None if z is None else z.ravel()).reshape(-1, 2)
            strata = h.shape[0]
            assert est.samples == 2 * strata == samples - 1
            assert est.hits == np.count_nonzero(h > 0.0)
            assert est.mean == pytest.approx(iv.width * h.mean(), rel=1e-13)
            spread = ((h[:, 0] - h[:, 1]) ** 2).sum()
            assert est.stderr == pytest.approx(iv.width * np.sqrt(spread / 4.0) / strata, rel=1e-10)

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
    """Column fractions: the share of each sampled column inside the body."""

    def test_nesting_on_sampled_points(self):
        bodies = _bodies()
        gen = np.random.Generator(np.random.Philox(key=77))
        ws, zs = gen.random((2, 20_000))
        ws = HALF.lower + HALF.width * ws
        share = {kind: _fractions(body, ws, zs) for kind, body in bodies.items()}
        pairs = [
            (RelaxationKind.PR, RelaxationKind.PL_PR),
            (RelaxationKind.PR, RelaxationKind.E_NR),
            (RelaxationKind.E_NR, RelaxationKind.NR),
            (RelaxationKind.E_NR, RelaxationKind.PL_E_NR),
            (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR),
        ]
        for small, large in pairs:
            assert (share[small] <= share[large]).all(), f"{small} not inside {large}"
        # and the chain is strict somewhere on this sample
        assert share[RelaxationKind.PR].sum() < share[RelaxationKind.PL_PR].sum()

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
        # plpr's gap to the estimator is the gap to the tangent of w's piece;
        # as the estimator is the greatest tangent, that is the least gap
        # over all tangents, up to the rounding of the ratio form and of the
        # vertex where two tangents' gaps cross
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, n)
        body = make_body(RelaxationKind.PL_PR, PowerFn(p, iv), bp)
        vx = body.estimator.x
        rng = np.random.default_rng(n)
        w = np.concatenate([lower + iv.width * rng.random(5000),
                            vx, np.nextafter(vx, -np.inf), np.nextafter(vx, np.inf)])
        w = np.clip(w, lower, upper)
        got = mc_mod._kernel._tangent_gap(body, w)
        xk = bp.xi
        gaps = [mc_mod._kernel._bregman(p, w, xk, np.full(w.size, k))
                for k in range(xk.size)]
        k = body.estimator._piece(w)
        x = xk[k]
        slope = p * xk ** (p - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes w**p
            r = w / x - 1.0
            terms = np.where(x > 0.0, x**p * (np.abs(np.expm1(p * np.log1p(r))) + p * np.abs(r)),
                             w**p)
        crossing = (slope[np.minimum(k + 1, n)] - slope[np.maximum(k - 1, 0)]) * w
        tol = 4.0 * np.finfo(float).eps * (terms + crossing)
        assert (np.abs(got - np.min(gaps, axis=0)) <= tol).all()

    def test_scalar_membership(self):
        # one column by hand: x**2 on [0.5, 1] has chord 1.5 w - 0.5
        body = _bodies()[RelaxationKind.NR]
        w, z = 0.9, 0.95
        top = z * (1.5 * w - 0.5)
        (g,) = _fractions(body, np.array([w]), np.array([z]))
        assert g == pytest.approx((top - (z * w) ** 2) / top, rel=1e-14)
        assert 0.0 < g < 1.0

    def test_points_outside_the_planes_are_out_without_warnings(self):
        # where the shared planes leave a column no height, g = 0: z = 0 for
        # the kinds that read z, and w = 0 at lower 0 for every kind; w = 0
        # makes x**p 0**p and the column 0 / 0 if divided.  The perspective
        # kinds do not read z, so next to and on the z = 0 face they score
        # the column of the same w at z = 1
        for iv in (UNIT, Interval(0.3, 1.2)):
            lo = iv.lower
            ws = np.array([lo, 0.5, lo, 0.5, 1.0])
            zs = np.array([0.0, 0.0, TINY_Z, TINY_Z, 0.0])
            for body in _bodies(p=3.7, iv=iv).values():
                with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
                    warnings.simplefilter("error")
                    g = _fractions(body, ws, zs)
                if body.kind in W_ONLY:
                    assert (g == _fractions(body, ws, np.ones_like(zs))).all(), body.kind
                    assert not g[ws == 0.0].any(), body.kind
                else:
                    assert not g[(zs == 0.0) | (ws == 0.0)].any(), body.kind

    @pytest.mark.parametrize("kind", W_ONLY, ids=lambda k: k.value)
    def test_perspective_fractions_do_not_read_z(self, kind):
        for iv in (UNIT, Interval(0.3, 1.2)):
            body = _bodies(p=3.7, iv=iv)[kind]
            ws = iv.lower + iv.width * np.linspace(0.0, 1.0, 41)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                want = _fractions(body, ws, None)
                for z in (0.0, 1e-310, 0.3, 1.0):
                    assert (_fractions(body, ws, np.full_like(ws, z)) == want).all(), z
            assert want.any()

    def test_extension_below_lower_end(self):
        # with lower > 0, the chord from the origin bounds columns left of it
        bodies = _bodies()
        x, z = 0.25, 0.4  # below lower, reachable since z can be small
        w = x / z
        top = z * (1.5 * w - 0.5)
        (g_enr,) = _fractions(bodies[RelaxationKind.E_NR], np.array([w]), np.array([z]))
        (g_nr,) = _fractions(bodies[RelaxationKind.NR], np.array([w]), np.array([z]))
        chord = bodies[RelaxationKind.E_NR].extension_slope * x
        assert g_enr == pytest.approx((top - chord) / top, rel=1e-14)
        assert g_nr == pytest.approx((top - x * x) / top, rel=1e-14)
        assert g_enr < g_nr


# Mean column fraction of the kernel, summed over blocks 0-2 of _footprint_block,
# columns drawn uniformly on the footprint rectangle: body (kind, lower, p) on
# [lower, 2] with 5 equal pieces for the PL kinds, one entry per seed in
# GOLDEN_SEEDS.  Every column of these blocks meets its body, so the hits are
# all 3 * 2**16.
GOLDEN_UPPER = 2.0
GOLDEN_SEEDS = (7, 8, 9)
GOLDEN_BLOCKS = 3
GOLDEN_KERNEL = {
    ('enr', 0.0, 2.0): (2.2505083219021715, 2.2518903655612994, 2.250059356689026),
    ('enr', 0.0, 3.7): (2.781346529238159, 2.780990788336411, 2.7809563878376746),
    ('enr', 0.3, 2.0): (1.84925898973691, 1.8505873442573555, 1.8499599082007028),
    ('enr', 0.3, 3.7): (2.705349031929468, 2.7051548168181507, 2.704866518352692),
    ('nr', 0.0, 2.0): (2.2505083219021715, 2.2518903655612994, 2.250059356689026),
    ('nr', 0.0, 3.7): (2.781346529238159, 2.780990788336411, 2.7809563878376746),
    ('nr', 0.3, 2.0): (1.9806495674534028, 1.982705553713041, 1.9810684299083094),
    ('nr', 0.3, 3.7): (2.7191742589779246, 2.719093776318517, 2.7187872268132742),
    ('plenr', 0.0, 2.0): (2.3221132366015493, 2.3236401057894405, 2.3217299175070387),
    ('plenr', 0.0, 3.7): (2.7956377628940867, 2.7952792429858118, 2.7952357907201333),
    ('plenr', 0.3, 2.0): (1.866969109090113, 1.8682699725632992, 1.867672027380649),
    ('plenr', 0.3, 3.7): (2.718758644749056, 2.718547029183174, 2.7182986124537614),
    ('plpr', 0.0, 2.0): (1.5421365818140673, 1.5401858809201425, 1.5389707322047346),
    ('plpr', 0.0, 3.7): (2.219628502714229, 2.217267618418429, 2.2176144057405693),
    ('plpr', 0.3, 2.0): (0.9874279192528439, 0.9859297506522233, 0.9856809444615435),
    ('plpr', 0.3, 3.7): (1.9914137811082604, 1.9891251785719657, 1.9890254524121875),
    ('pr', 0.0, 2.0): (1.5029834039341803, 1.5012476431378574, 1.5001194612908488),
    ('pr', 0.0, 3.7): (2.19197653798939, 2.189748060457523, 2.190025706390011),
    ('pr', 0.3, 2.0): (0.9632229585948855, 0.9618618885764834, 0.9616532444669523),
    ('pr', 0.3, 3.7): (1.9622099689173236, 1.9600792158377454, 1.9599475810938285),
}

# The oracle's (mean, stderr) over GOLDEN_BLOCKS chunks of its own stream, for
# the same bodies and seeds.
GOLDEN_ESTIMATES = {
    ('enr', 0.0, 2.0): (
        (0.6667576942402625, 4.549322221055714e-05),
        (0.6667158881854712, 4.477633220235716e-05),
        (0.6666001892233574, 4.5293937391387855e-05),
    ),
    ('enr', 0.0, 3.7): (
        (3.362251352761634, 0.0002561670782202757),
        (3.362139804720128, 0.00025293536373814906),
        (3.3615310895342816, 0.0002547913003976679),
    ),
    ('enr', 0.3, 2.0): (
        (0.49255981339388205, 3.2175964692024556e-05),
        (0.4925457227681534, 3.1716519541270735e-05),
        (0.4924523174774374, 3.1713223805945435e-05),
    ),
    ('enr', 0.3, 3.7): (
        (2.7152906178131686, 0.00020137465366277672),
        (2.7152557980628647, 0.00019903402495832507),
        (2.71469645258238, 0.0001989399841082813),
    ),
    ('nr', 0.0, 2.0): (
        (0.6667576942402625, 4.549322221055714e-05),
        (0.6667158881854712, 4.477633220235716e-05),
        (0.6666001892233574, 4.5293937391387855e-05),
    ),
    ('nr', 0.0, 3.7): (
        (3.362251352761634, 0.0002561670782202757),
        (3.362139804720128, 0.00025293536373814906),
        (3.3615310895342816, 0.0002547913003976679),
    ),
    ('nr', 0.3, 2.0): (
        (0.4944725227198183, 3.193360952089857e-05),
        (0.4944596696626768, 3.149587533403308e-05),
        (0.4943642903105046, 3.1495967615628575e-05),
    ),
    ('nr', 0.3, 3.7): (
        (2.715758769747636, 0.00020133222667254502),
        (2.7157242519265576, 0.0001989962673338793),
        (2.7151642660040483, 0.00019890315429558635),
    ),
    ('plenr', 0.0, 2.0): (
        (0.6801013282303273, 4.672782486630348e-05),
        (0.6800509012755506, 4.616445391249839e-05),
        (0.6799367633430203, 4.664997159549862e-05),
    ),
    ('plenr', 0.0, 3.7): (
        (3.403894089274688, 0.00026349645196616995),
        (3.403816888369939, 0.0002620068250401459),
        (3.403137063995596, 0.00026480925394493015),
    ),
    ('plenr', 0.3, 2.0): (
        (0.4995262746941324, 3.306535542612853e-05),
        (0.4995064863291518, 3.259482172879051e-05),
        (0.49942148812046216, 3.263284843744728e-05),
    ),
    ('plenr', 0.3, 3.7): (
        (2.745461708784059, 0.00020624549784840622),
        (2.7454235124597273, 0.00020503323388366065),
        (2.7448810851364502, 0.00020419726165576537),
    ),
    ('plpr', 0.0, 2.0): (
        (0.4533332036010818, 2.3929839970470986e-07),
        (0.453333535570506, 2.3652710670331038e-07),
        (0.4533333638254515, 2.405709814288332e-07),
    ),
    ('plpr', 0.0, 3.7): (
        (2.5405862960275867, 1.456472453209946e-06),
        (2.5405878928175896, 1.4727445367104547e-06),
        (2.5405868882666565, 1.4854652601979764e-06),
    ),
    ('plpr', 0.3, 2.0): (
        (0.2784032536615143, 1.469591297186648e-07),
        (0.2784034575322369, 1.452572094041816e-07),
        (0.2784033520593053, 1.4774065396998336e-07),
    ),
    ('plpr', 0.3, 3.7): (
        (1.8800881872005595, 1.043419216796216e-06),
        (1.8800895506765365, 1.050213860862184e-06),
        (1.8800887658919008, 1.0614396061098574e-06),
    ),
    ('pr', 0.0, 2.0): (
        (0.4444443001987845, 2.30885036336067e-07),
        (0.4444446665028574, 2.275472148346906e-07),
        (0.4444445974477234, 2.3193555260666446e-07),
    ),
    ('pr', 0.0, 3.7): (
        (2.488602581109149, 1.3687825803432369e-06),
        (2.4886042026232116, 1.3795656371950258e-06),
        (2.4886036707687245, 1.3991185825594495e-06),
    ),
    ('pr', 0.3, 2.0): (
        (0.2729443558595784, 1.4179227293989652e-07),
        (0.2729445808160672, 1.397424333103692e-07),
        (0.272944538407583, 1.4243742124456646e-07),
    ),
    ('pr', 0.3, 3.7): (
        (1.8423414744304683, 9.900886813747532e-07),
        (1.842342767710958, 9.931838395489945e-07),
        (1.842342371446767, 1.0082132442621392e-06),
    ),
}

# Packed masks of the columns that meet each body among _boundary_columns.
BOUNDARY_BODIES = ((3.7, Interval(0.3, 1.2), 4), (2.0, UNIT, 3))
GOLDEN_BOUNDARY_COLUMNS = {
    ('nr', 3.7): 'fff1e0',
    ('nr', 2.0): '2db0',
    ('pr', 3.7): '2493e0',
    ('pr', 2.0): '2492',
    ('plpr', 3.7): '2493ef3c',
    ('plpr', 2.0): '2492e700',
    ('enr', 3.7): 'fff1e0',
    ('enr', 2.0): '2db0',
    ('plenr', 3.7): 'fff1fffe',
    ('plenr', 2.0): '2db0e780',
}


def _golden_body(kind, lower, p):
    iv = Interval(lower, GOLDEN_UPPER)
    return make_body(RelaxationKind(kind), PowerFn(p, iv), Breakpoints.equally_spaced(iv, 5))


def _footprint_block(body, seed, block):
    """Block ``block`` of ``Philox(seed)`` as ``2**16`` columns uniform on the
    footprint rectangle ``[lower, upper] x [0, 1]``: a fixed input that pins
    the kernel apart from the oracle's own stream and strata."""
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(block))
    ws, zs = gen.random((2, 1 << 16))
    ws *= body.interval.width
    ws += body.interval.lower
    return ws, zs


def _boundary_columns(body):
    """Columns at both ends and the middle of the footprint, on and next to
    the z = 0 face, on every PL vertex, and at and left of the lower end for
    the extended kinds."""
    lo, hi = body.interval.lower, body.interval.upper
    cols = [(w, z) for z in (1.0, 0.5, 0.25, TINY_Z, 0.0) for w in (lo, hi, 0.5 * (lo + hi))]
    if lo > 0.0:
        for z in (0.5, 0.8):
            cols += [(lo / z, z), (0.9 * lo / z, z)]  # x = lo and x = 0.9 lo
    if body.estimator is not None:
        for z in (1.0, 0.5):
            cols += [(kx, z) for kx in body.estimator.x]
    return tuple(np.array(c) for c in zip(*cols))


class TestGoldenHits:
    """The kernel's column fractions are pinned, not just their statistics.

    Means are compared to 1e-12 relative: ``np.power`` may differ in the last
    place between numpy builds, and nothing else in them should move."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_KERNEL))
    def test_block_hits(self, key):
        body = _golden_body(*key)
        for seed, want in zip(GOLDEN_SEEDS, GOLDEN_KERNEL[key]):
            blocks = [_footprint_block(body, seed, b) for b in range(GOLDEN_BLOCKS)]
            hits = sum(mc_mod._kernel.count_hits(body, ws, zs)[0] for ws, zs in blocks)
            assert hits == GOLDEN_BLOCKS * (1 << 16)
            means = sum(_fractions(body, ws, zs).mean() for ws, zs in blocks)
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
            ws, zs = _boundary_columns(body)
            g = _fractions(body, ws, zs)
            assert ((g >= 0.0) & (g <= 1.0)).all()
            assert np.packbits(g > 0.0).tobytes().hex() == GOLDEN_BOUNDARY_COLUMNS[kind, p]
            hits, h = mc_mod._kernel.count_hits(body, ws, zs)
            assert hits == np.count_nonzero(g > 0.0)  # h itself underflows next to z = 0
            zs_read = None if body.kind in W_ONLY else zs
            assert h == pytest.approx(_lengths(body, ws, zs_read), rel=1e-14, abs=0.0)

    def test_block_with_no_survivors(self):
        # columns of no height: the z = 0 face over the whole footprint; the
        # perspective kinds do not read z, and leave no height where the
        # chord meets f, over both ends of the footprint at any z
        for body in _bodies(p=3.7).values():
            lo, hi = body.interval.lower, body.interval.upper
            if body.kind in W_ONLY:
                ws = np.resize([lo, hi], 101)
                zs = np.linspace(0.0, 1.0, 101)
            else:
                ws = np.linspace(lo, hi, 101)
                zs = np.zeros_like(ws)
            hits, h = mc_mod._kernel.count_hits(body, ws, zs)
            assert hits == 0 and not h.any()


def _random_bodies(count, seed):
    """Seeded bodies of every kind: l/u 0 or up to 0.9, upper in [0.1, 100];
    p = 2 for the kinds with quadratic closed forms only, p in [1.1, 8] and
    2 to 12 equal pieces for the piecewise-linear kinds."""
    rng = np.random.default_rng(seed)
    kinds = list(RelaxationKind)
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        upper = 10.0 ** rng.uniform(-1.0, 2.0)
        lower = 0.0 if i % 2 == 0 else upper * rng.uniform(0.0, 0.9)
        iv = Interval(lower, upper)
        if kind.piecewise_linear:
            pf = PowerFn(rng.uniform(1.1, 8.0), iv)
            bp = Breakpoints.equally_spaced(iv, int(rng.integers(2, 13)))
        else:
            pf, bp = PowerFn(2.0, iv), None
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

    def test_chunk_points_lie_in_the_shared_cone(self):
        # columns (w, z) lie in the cone's footprint: x = z * w is between the
        # planes lower * z and upper * z; and each pair lies in its stratum
        bodies = [body for body, _ in _random_bodies(20, seed=31)]
        bodies.append(_golden_body("plpr", 0.3, 3.7))
        bodies.append(make_body(RelaxationKind.PR, PowerFn(3.0, Interval(1000.0, 1000.001))))
        for i, body in enumerate(bodies):
            ws, zs = _one_pass(body, i, mc_mod.BLOCK_SIZE)
            lo, hi = body.interval.lower, body.interval.upper
            assert ((ws >= lo) & (ws <= hi)).all()
            strata = ws.shape[0]
            nw, nz = (strata, 1) if zs is None else mc_mod._grid(strata)
            cell = np.arange(strata)[:, None]
            tw = (ws - lo) / (hi - lo) * nw - cell // nz  # offset in the w-stratum
            assert ((tw > -1e-6) & (tw < 1.0 + 1e-6)).all()
            if body.kind in W_ONLY:
                assert zs is None
            else:
                assert ((zs >= 0.0) & (zs <= 1.0)).all()
                tz = zs * nz - cell % nz
                assert ((tz > -1e-9) & (tz < 1.0 + 1e-9)).all()

    def test_cone_volume_formula(self):
        for body, _ in _random_bodies(20, seed=5):
            lo, up = body.interval.lower, body.interval.upper
            pf = PowerFn(body.p, body.interval)
            assert body.cone_volume == (up - lo) * (pf(lo) + pf(up)) / 6.0

    def test_zero_uniforms_map_to_the_apex(self, monkeypatch):
        # with every uniform zero, each point sits at its stratum's lower
        # corner: stratum 0's two points at (lower, 0), x = z * w = 0, the apex
        class Zeros:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                return np.zeros(shape)

        seen = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, w, z):
            seen.append((w.copy(), None if z is None else z.copy()))
            return count_hits(body, w, z)

        monkeypatch.setattr(mc_mod.np.random, "Generator", Zeros)
        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        strata = mc_mod.MIN_SAMPLES // 2
        for iv in (UNIT, HALF):
            for body in _bodies(p=3.0, iv=iv).values():
                seen.clear()
                with warnings.catch_warnings(), np.errstate(all="raise"):
                    warnings.simplefilter("error")
                    mc_volume(body, mc_mod.MIN_SAMPLES, seed=0)
                ((w, z),) = seen
                assert w[0] == w[strata] == iv.lower
                nw, nz = (strata, 1) if body.kind in W_ONLY else mc_mod._grid(strata)
                cell = np.tile(np.arange(strata), 2)  # (point, stratum)
                assert w == pytest.approx(iv.lower + cell // nz * (iv.width / nw), rel=1e-15)
                if body.kind in W_ONLY:
                    assert z is None
                else:
                    assert z[0] == z[strata] == 0.0
                    assert (z == cell % nz / nz).all()

    @pytest.mark.parametrize("kind", [k.value for k in RelaxationKind])
    def test_hits_do_not_depend_on_workers_or_chunking(self, kind):
        iv = Interval(0.2, 1.5)
        body = make_body(RelaxationKind(kind), PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        samples = 2 * mc_mod.BLOCK_SIZE + 1234  # not a multiple of a chunk
        est = {w: mc_volume(body, samples, seed=3, workers=w) for w in (1, 2, 4)}
        assert est[1] == est[2] == est[4]  # hits, mean and stderr, bit for bit
        # one kernel call over the columns drawn in one pass scores each
        # column as the chunks do, and the chunks' sums rebuild the estimate:
        # a chunk lays its columns out as (point, stratum)
        w, z = _one_pass(body, 3, samples)
        hits, h = mc_mod._kernel.count_hits(body, w.ravel(), None if z is None else z.ravel())
        assert hits == est[1].hits
        total = spread = 0.0
        for start in range(0, h.size, mc_mod.BLOCK_SIZE):
            pair = np.ascontiguousarray(h[start:start + mc_mod.BLOCK_SIZE].reshape(-1, 2).T)
            pair /= body.upper_height  # lengths relative to f(upper)
            d = pair[0] - pair[1]
            total += float(pair.sum())
            spread += float(np.einsum("i,i", d, d))
        strata = h.size // 2
        scale = iv.width * body.upper_height
        assert est[1].mean == scale * total / (2 * strata)
        assert est[1].stderr == scale * np.sqrt(spread / 4.0) / strata

    @pytest.mark.parametrize("kind", W_ONLY, ids=lambda k: k.value)
    def test_perspective_kinds_draw_only_w(self, kind, monkeypatch):
        # the w of stratum i's two points are draws 2i and 2i + 1 of the
        # stream: had the kind drawn z as well, they would be 4i and 4i + 2.
        # Each chunk passes its first points, then its second points
        iv = Interval(0.2, 1.5)
        body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        seen = []
        count_hits = mc_mod._kernel.count_hits

        def recording(body, w, z):
            seen.append((w.copy(), z))
            return count_hits(body, w, z)

        monkeypatch.setattr(mc_mod._kernel, "count_hits", recording)
        samples = 2 * mc_mod.BLOCK_SIZE
        mc_volume(body, samples, seed=5)
        assert all(z is None for _, z in seen)
        u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5))).random(samples)
        strata = samples // 2
        want = np.minimum((u + np.arange(samples) // 2) * (iv.width / strata) + iv.lower, iv.upper)
        chunks = want.reshape(-1, mc_mod.BLOCK_SIZE // 2, 2).transpose(0, 2, 1)
        assert (np.concatenate([w for w, _ in seen]) == chunks.ravel()).all()

    @pytest.mark.parametrize("kind", W_ONLY, ids=lambda k: k.value)
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
