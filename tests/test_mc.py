import functools
import threading
import warnings

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


def _chunks(body, seed, samples):
    """The columns ``mc_volume`` draws for ``samples``, chunk by chunk."""
    for start in range(0, samples, mc_mod.BLOCK_SIZE):
        gen = mc_mod._block_stream(seed, start // mc_mod.BLOCK_SIZE)
        count = min(mc_mod.BLOCK_SIZE, samples - start)
        for offset in range(0, count, mc_mod.CHUNK_SIZE):
            yield mc_mod._draw_chunk(body, gen, min(mc_mod.CHUNK_SIZE, count - offset))


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
        # workers is accepted and ignored: every block is scored in order on
        # the caller's thread, however many workers are asked for
        calls = []
        block_hits = mc_mod._block_hits

        def recording(body, seed, block, count):
            calls.append((threading.get_ident(), block))
            return block_hits(body, seed, block, count)

        monkeypatch.setattr(mc_mod, "_block_hits", recording)
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        mc_volume(body, 3 * mc_mod.BLOCK_SIZE + 1, seed=5, workers=2)
        assert calls == [(threading.get_ident(), b) for b in range(4)]

    def test_block_streams_are_pure_functions_of_seed_and_index(self):
        body = make_body(RelaxationKind.PR, PowerFn(2.0, UNIT))
        direct = mc_mod._block_hits(body, seed=9, block=3, count=1000)
        again = mc_mod._block_hits(body, seed=9, block=3, count=1000)
        assert direct == again

    def test_block_keys_do_not_alias(self):
        # a seed past 2**32 spans two 32-bit words; block 0 of seed 2**32 must
        # not replay block 1 of seed 0
        a = mc_mod._block_stream(2**32, 0).random(4)
        b = mc_mod._block_stream(0, 1).random(4)
        assert not (a == b).any()

    def test_different_seeds_differ(self):
        # every sampled column meets this body, so the hits alone agree
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        assert mc_volume(body, 50_000, seed=1).mean != mc_volume(body, 50_000, seed=2).mean


class TestEstimates:
    def test_stderr_is_the_sample_standard_error(self):
        # recompute every column fraction chunk by chunk, as the oracle draws them
        iv = Interval(0.2, 1.5)
        samples = mc_mod.BLOCK_SIZE + 3 * mc_mod.CHUNK_SIZE + 77
        for kind in RelaxationKind:
            body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
            est = mc_volume(body, samples, seed=11)
            g = np.concatenate([_fractions(body, ws, zs) for ws, zs in _chunks(body, 11, samples)])
            assert g.size == samples
            assert est.hits == np.count_nonzero(g > 0.0)
            assert est.mean == pytest.approx(est.box_volume * g.mean(), rel=1e-13)
            assert est.stderr == pytest.approx(
                est.box_volume * g.std(ddof=1) / np.sqrt(samples), rel=1e-10
            )

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
        # must stay inside the box and near the tighter PL+PR volume
        pf = PowerFn(3.0, HALF)
        bp = Breakpoints.equally_spaced(HALF, 4)
        pr = mc_volume(make_body(RelaxationKind.PR, pf, bp), 200_000, seed=17)
        plpr_vol = volume_power_closed_form(pf, bp)
        assert 0.0 < pr.mean < pr.box_volume
        assert pr.mean <= plpr_vol + 4.0 * pr.stderr

    def test_general_exponent_perspective_matches_refinement_limit(self):
        # away from p=2 the exact perspective volume is approximated from
        # above by many-piece PL volumes; with 2000 equal pieces the gap is
        # far below the Monte-Carlo resolution
        pf = PowerFn(3.0, HALF)
        limit = volume_power_closed_form(pf, Breakpoints.equally_spaced(HALF, 2000))
        est = mc_volume(make_body(RelaxationKind.PR, pf), 1_000_000, seed=77)
        assert abs(est.mean - limit) <= 4.0 * est.stderr

    def test_validation(self):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        with pytest.raises(DomainError):
            mc_volume(body, 9_999, seed=0)
        with pytest.raises(DomainError):
            mc_volume(body, 10_000, seed=-1)
        with pytest.raises(DomainError):
            mc_volume(body, 10_000, seed=2**64)
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
        ws, zs = mc_mod._to_cone(bodies[RelaxationKind.NR], gen.random((2, 20_000)))
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


# Mean column fraction of mc._kernel.count_hits, summed over blocks 0-2, on
# columns drawn uniformly on the footprint's bounding rectangle (not through
# the cone map): body (kind, lower, p) on [lower, 2] with 5 equal pieces for
# the PL kinds, one entry per seed in GOLDEN_SEEDS.  Every column of these
# blocks meets its body, so the hits are all 3 * BLOCK_SIZE.
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

# The same sums over mc._block_hits, which draws through the cone map.
GOLDEN_CONE_HITS = {
    ('enr', 0.0, 2.0): (1.5014757590332093, 1.501152741179674, 1.4976398957035162),
    ('enr', 0.0, 3.7): (2.3299298328244236, 2.329623246427648, 2.3256517363424933),
    ('enr', 0.3, 2.0): (1.2761083967226434, 1.2757735571294246, 1.2730940367815813),
    ('enr', 0.3, 3.7): (2.211825581042034, 2.2113604464172956, 2.2075154296793054),
    ('nr', 0.0, 2.0): (1.5014757590332093, 1.501152741179674, 1.4976398957035162),
    ('nr', 0.0, 3.7): (2.3299298328244236, 2.329623246427648, 2.3256517363424933),
    ('nr', 0.3, 2.0): (1.2809137372281398, 1.2807562189018191, 1.2780763518178289),
    ('nr', 0.3, 3.7): (2.212190205010047, 2.2117442355232746, 2.207903438471738),
    ('plenr', 0.0, 2.0): (1.5315334955136397, 1.5311444699324355, 1.5275872431488733),
    ('plenr', 0.0, 3.7): (2.358738075067035, 2.3585023324144707, 2.354556835254353),
    ('plenr', 0.3, 2.0): (1.2941097687219703, 1.2938280202048709, 1.2911379058537045),
    ('plenr', 0.3, 3.7): (2.236309846007697, 2.235931117597762, 2.2320823875371127),
    ('plpr', 0.0, 2.0): (1.0189359216858263, 1.0190056371596077, 1.0182301074730782),
    ('plpr', 0.0, 3.7): (1.7583264057626993, 1.758837390865369, 1.7561698093432598),
    ('plpr', 0.3, 2.0): (0.7202145747960397, 0.7201429089195694, 0.7192443129631838),
    ('plpr', 0.3, 3.7): (1.5293659905728152, 1.5297225284323617, 1.5275617434004412),
    ('pr', 0.0, 2.0): (0.998939493508822, 0.9990833662492793, 0.9982357427131201),
    ('pr', 0.0, 3.7): (1.7223411517777634, 1.7228046472886587, 1.720210903236692),
    ('pr', 0.3, 2.0): (0.7061106345920662, 0.7060619961722877, 0.7051498097519391),
    ('pr', 0.3, 3.7): (1.4986502737533822, 1.4989840562138323, 1.4968833675432025),
}

# Packed masks of the columns that meet each body among _boundary_columns.
BOUNDARY_BODIES = ((3.7, Interval(0.3, 1.2), 4), (2.0, UNIT, 3))
GOLDEN_BOUNDARY_COLUMNS = {
    ('nr', 3.7): 'fff1e0',
    ('nr', 2.0): '2db0',
    ('pr', 3.7): 'ffffe0',
    ('pr', 2.0): '2492',
    ('plpr', 3.7): 'fffffffe',
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
    """Block ``block`` of ``Philox(seed)`` as columns uniform on the footprint's
    bounding rectangle ``[lower, upper] x [0, 1]``: a fixed input that pins the
    kernel apart from the oracle's own stream and ``_to_cone``."""
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(block))
    ws, zs = gen.random((2, mc_mod.BLOCK_SIZE))
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
            parts = [
                mc_mod._kernel.count_hits(body, *_footprint_block(body, seed, b))
                for b in range(GOLDEN_BLOCKS)
            ]
            assert sum(hits for hits, _, _ in parts) == GOLDEN_BLOCKS * mc_mod.BLOCK_SIZE
            assert sum(mean for _, mean, _ in parts) == pytest.approx(want, rel=1e-12), seed

    @pytest.mark.parametrize("key", sorted(GOLDEN_CONE_HITS))
    def test_cone_block_hits(self, key):
        body = _golden_body(*key)
        for seed, want in zip(GOLDEN_SEEDS, GOLDEN_CONE_HITS[key]):
            parts = [
                mc_mod._block_hits(body, seed, b, mc_mod.BLOCK_SIZE) for b in range(GOLDEN_BLOCKS)
            ]
            assert sum(part[0] for part in parts) == GOLDEN_BLOCKS * mc_mod.BLOCK_SIZE
            assert sum(part[2] for part in parts) == pytest.approx(want, rel=1e-12), seed

    @pytest.mark.parametrize("kind", [k.value for k in RelaxationKind])
    def test_boundary_points(self, kind):
        for p, iv, n in BOUNDARY_BODIES:
            body = make_body(RelaxationKind(kind), PowerFn(p, iv), Breakpoints.equally_spaced(iv, n))
            ws, zs = _boundary_columns(body)
            g = _fractions(body, ws, zs)
            assert ((g >= 0.0) & (g <= 1.0)).all()
            assert np.packbits(g > 0.0).tobytes().hex() == GOLDEN_BOUNDARY_COLUMNS[kind, p]
            hits, mean, m2 = mc_mod._kernel.count_hits(body, ws, zs)
            assert hits == np.count_nonzero(g > 0.0)
            assert mean == pytest.approx(g.mean(), rel=1e-15)
            assert m2 == pytest.approx(((g - g.mean()) ** 2).sum(), rel=1e-12)

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
            assert mc_mod._kernel.count_hits(body, ws, zs) == (0, 0.0, 0.0)


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


class TestConeSampler:
    """The oracle draws uniformly in the cone every body lies in."""

    def test_estimates_match_closed_forms(self):
        bodies = _random_bodies(60, seed=2718)
        zs = []
        for i, (body, exact) in enumerate(bodies):
            est = mc_volume(body, 4 * mc_mod.BLOCK_SIZE, seed=1000 + i)
            zs.append((est.mean - exact) / est.stderr)
        zs = np.array(zs)
        assert np.abs(zs).max() <= 5.0, zs
        assert abs(zs.mean()) <= 4.0 / np.sqrt(zs.size), zs.mean()

    def test_chunk_points_lie_in_the_shared_cone(self):
        # columns (w, z) lie in the cone's footprint: x = z * w is between the
        # planes lower * z and upper * z
        bodies = [body for body, _ in _random_bodies(20, seed=31)]
        bodies.append(_golden_body("plpr", 0.3, 3.7))
        bodies.append(make_body(RelaxationKind.PR, PowerFn(3.0, Interval(1000.0, 1000.001))))
        for i, body in enumerate(bodies):
            ws, zs = mc_mod._draw_chunk(body, mc_mod._block_stream(i, 0), mc_mod.CHUNK_SIZE)
            lo, hi = body.interval.lower, body.interval.upper
            assert ((ws >= lo) & (ws <= hi)).all()
            if body.kind in W_ONLY:
                assert zs is None
            else:
                assert ((zs >= 0.0) & (zs <= 1.0)).all()

    def test_box_volume_is_the_cone_volume(self):
        for body, _ in _random_bodies(20, seed=5):
            lo, up = body.interval.lower, body.interval.upper
            pf = PowerFn(body.p, body.interval)
            assert body.box_volume == (up - lo) * (pf(lo) + pf(up)) / 6.0

    def test_zero_uniforms_map_to_the_apex(self):
        for iv in (UNIT, HALF):
            body = make_body(RelaxationKind.PR, PowerFn(3.0, iv))
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                (w,), (z,) = mc_mod._to_cone(body, np.zeros((2, 1)))
            assert (w, z) == (iv.lower, 0.0)  # x = z * w = 0: the apex

    @pytest.mark.parametrize("kind", [k.value for k in RelaxationKind])
    def test_hits_do_not_depend_on_workers_or_chunking(self, kind):
        iv = Interval(0.2, 1.5)
        body = make_body(RelaxationKind(kind), PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        samples = 2 * mc_mod.BLOCK_SIZE + mc_mod.CHUNK_SIZE + 1234  # not a multiple of a chunk
        est = {w: mc_volume(body, samples, seed=3, workers=w) for w in (1, 2, 4)}
        assert est[1] == est[2] == est[4]  # hits, mean and stderr, bit for bit
        # the same estimate from the blocks and the partial block rebuilt chunk by chunk
        gen = mc_mod._block_stream(3, 2)
        chunks = []
        for m in (mc_mod.CHUNK_SIZE, 1234):
            ws, zs = mc_mod._draw_chunk(body, gen, m)
            hits, mean, m2 = mc_mod._kernel.count_hits(body, ws, zs)
            chunks.append((hits, m, mean, m2))
        # a shorter budget draws the same whole chunk
        assert mc_mod._block_hits(body, 3, 2, mc_mod.CHUNK_SIZE) == chunks[0]
        blocks = [mc_mod._block_hits(body, 3, b, mc_mod.BLOCK_SIZE) for b in range(2)]
        blocks.append(mc_mod._merge(*chunks))
        hits, n, mean, m2 = functools.reduce(mc_mod._merge, blocks)
        assert n == samples and hits == est[1].hits
        assert est[1].mean == body.box_volume * mean
        assert est[1].stderr == body.box_volume * np.sqrt(m2 / (n - 1) / n)

    @pytest.mark.parametrize("kind", W_ONLY, ids=lambda k: k.value)
    def test_perspective_kinds_draw_only_w(self, kind):
        # two chunks of a block: had the first drawn a z row as well, the
        # second chunk's w would start 2 * CHUNK_SIZE draws in, not CHUNK_SIZE
        iv = Interval(0.2, 1.5)
        body = make_body(kind, PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        gen = mc_mod._block_stream(5, 1)
        chunks = []
        for _ in range(2):
            (ws,) = mc_mod._to_cone(body, gen.random((1, mc_mod.CHUNK_SIZE)))
            hits, mean, m2 = mc_mod._kernel.count_hits(body, ws, None)
            chunks.append((hits, mc_mod.CHUNK_SIZE, mean, m2))
        assert mc_mod._block_hits(body, 5, 1, 2 * mc_mod.CHUNK_SIZE) == mc_mod._merge(*chunks)

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
