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
from perspex._mc_fallback import Z_FLOOR

UNIT = Interval(0.0, 1.0)
HALF = Interval(0.5, 1.0)


def _bodies(p=2.0, iv=HALF, n=3):
    pf = PowerFn(p, iv)
    bp = Breakpoints.equally_spaced(iv, n)
    return {kind: make_body(kind, pf, bp) for kind in RelaxationKind}


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
        assert serial.hits == threaded.hits

    def test_block_streams_are_pure_functions_of_seed_and_index(self):
        body = make_body(RelaxationKind.PR, PowerFn(2.0, UNIT))
        direct = mc_mod._block_hits(body, seed=9, block=3, count=1000)
        again = mc_mod._block_hits(body, seed=9, block=3, count=1000)
        assert direct == again

    def test_different_seeds_differ(self):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        assert mc_volume(body, 50_000, seed=1).hits != mc_volume(body, 50_000, seed=2).hits


class TestEstimates:
    def test_stderr_is_binomial(self):
        body = make_body(RelaxationKind.NR, PowerFn(2.0, UNIT))
        est = mc_volume(body, 40_000, seed=11)
        frac = est.hits / est.samples
        assert est.mean == pytest.approx(est.box_volume * frac, rel=1e-15)
        assert est.stderr == pytest.approx(
            est.box_volume * np.sqrt(frac * (1.0 - frac) / est.samples), rel=1e-15
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


class TestMembership:
    def test_nesting_on_sampled_points(self):
        bodies = _bodies()
        gen = np.random.Generator(np.random.Philox(key=77))
        r = gen.random((3, 20_000))
        xs, ys, zs = r[0] * 1.0, r[1] * 1.0, r[2]
        inside = {kind: body.membership(xs, ys, zs) for kind, body in bodies.items()}
        pairs = [
            (RelaxationKind.PR, RelaxationKind.PL_PR),
            (RelaxationKind.PR, RelaxationKind.E_NR),
            (RelaxationKind.E_NR, RelaxationKind.NR),
            (RelaxationKind.E_NR, RelaxationKind.PL_E_NR),
            (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR),
        ]
        for small, large in pairs:
            assert not (inside[small] & ~inside[large]).any(), f"{small} not inside {large}"
        # and the chain is strict somewhere on this sample
        assert inside[RelaxationKind.PR].sum() < inside[RelaxationKind.PL_PR].sum()

    def test_extension_degenerates_at_zero_lower(self):
        # with lower == 0 there is nothing to extend: E+NR and NR coincide
        pf = PowerFn(2.0, UNIT)
        nr = mc_volume(make_body(RelaxationKind.NR, pf), 100_000, seed=5)
        enr = mc_volume(make_body(RelaxationKind.E_NR, pf), 100_000, seed=5)
        assert nr.hits == enr.hits

    def test_scalar_membership(self):
        body = _bodies()[RelaxationKind.NR]
        assert body.membership(0.9, 0.85, 0.95).item()
        assert not body.membership(0.9, 0.5, 0.95).item()

    def test_points_outside_the_planes_are_out_without_warnings(self):
        # negative x makes x**p NaN for non-integer p, huge x makes it inf
        for body in _bodies(p=3.7).values():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mask = body.membership([-0.5, 1e300, 0.7], [0.1, 1e300, 0.1], [0.5, 0.5, -0.5])
            assert not mask.any()

    def test_extension_below_lower_end(self):
        # with lower > 0, points under the chord from the origin are out
        body = _bodies()[RelaxationKind.E_NR]
        x = 0.25  # below lower, reachable since z can be small
        z = 0.4
        chord = body.extension_slope * x
        assert body.membership(x, chord + 1e-6, z).item()
        assert not body.membership(x, chord - 1e-6, z).item()


# Kernel hits per 64k block of the bounding-box stream (Philox draws scaled to
# [0, upper] x [0, f(upper)] x [0, 1]), blocks 0-2, recorded with the kernel
# that tested every sample of a block: body (kind, lower, p) on [lower, 2] with
# 5 equal pieces for the PL kinds, keyed by seed.
GOLDEN_UPPER = 2.0
GOLDEN_SEEDS = (7, 8, 9)
GOLDEN_BLOCKS = 3
GOLDEN_HITS = {
    ('nr', 0.0, 2.0): {7: (5435, 5534, 5527), 8: (5518, 5430, 5426), 9: (5528, 5422, 5504)},
    ('nr', 0.0, 3.7): {7: (8453, 8484, 8638), 8: (8589, 8432, 8430), 9: (8591, 8392, 8540)},
    ('nr', 0.3, 2.0): {7: (4003, 4114, 4123), 8: (4153, 4028, 3988), 9: (4106, 4052, 4070)},
    ('nr', 0.3, 3.7): {7: (6800, 6827, 6975), 8: (6990, 6798, 6762), 9: (6962, 6825, 6899)},
    ('pr', 0.0, 2.0): {7: (3608, 3639, 3686), 8: (3674, 3648, 3653), 9: (3686, 3556, 3698)},
    ('pr', 0.0, 3.7): {7: (6228, 6349, 6383), 8: (6349, 6294, 6230), 9: (6379, 6197, 6323)},
    ('pr', 0.3, 2.0): {7: (2179, 2224, 2286), 8: (2312, 2251, 2218), 9: (2271, 2190, 2267)},
    ('pr', 0.3, 3.7): {7: (4575, 4693, 4720), 8: (4750, 4660, 4562), 9: (4751, 4631, 4682)},
    ('plpr', 0.0, 2.0): {7: (3676, 3716, 3775), 8: (3749, 3730, 3722), 9: (3773, 3618, 3764)},
    ('plpr', 0.0, 3.7): {7: (6366, 6476, 6515), 8: (6481, 6405, 6376), 9: (6506, 6312, 6459)},
    ('plpr', 0.3, 2.0): {7: (2221, 2263, 2339), 8: (2359, 2297, 2263), 9: (2324, 2230, 2313)},
    ('plpr', 0.3, 3.7): {7: (4671, 4785, 4815), 8: (4841, 4748, 4665), 9: (4845, 4720, 4773)},
    ('enr', 0.0, 2.0): {7: (5435, 5534, 5527), 8: (5518, 5430, 5426), 9: (5528, 5422, 5504)},
    ('enr', 0.0, 3.7): {7: (8453, 8484, 8638), 8: (8589, 8432, 8430), 9: (8591, 8392, 8540)},
    ('enr', 0.3, 2.0): {7: (3988, 4094, 4102), 8: (4136, 4012, 3974), 9: (4086, 4037, 4062)},
    ('enr', 0.3, 3.7): {7: (6799, 6826, 6974), 8: (6989, 6796, 6759), 9: (6960, 6824, 6896)},
    ('plenr', 0.0, 2.0): {7: (5553, 5652, 5645), 8: (5632, 5547, 5534), 9: (5640, 5523, 5604)},
    ('plenr', 0.0, 3.7): {7: (8550, 8586, 8744), 8: (8703, 8537, 8546), 9: (8688, 8472, 8635)},
    ('plenr', 0.3, 2.0): {7: (4046, 4152, 4163), 8: (4184, 4065, 4043), 9: (4134, 4094, 4124)},
    ('plenr', 0.3, 3.7): {7: (6875, 6906, 7038), 8: (7077, 6879, 6833), 9: (7029, 6892, 6969)},
}

# Hits of mc._block_hits, the same bodies, seeds and blocks, recorded when
# the oracle began to draw uniformly in the cone every body lies in, chunk by
# chunk; the kernel pinned by GOLDEN_HITS was unchanged by that step.
GOLDEN_CONE_HITS = {
    ('enr', 0.0, 2.0): {7: (32972, 32430, 32705), 8: (32731, 33094, 32762), 9: (32890, 32797, 32857)},
    ('enr', 0.0, 3.7): {7: (50918, 50677, 50733), 8: (50962, 51161, 50781), 9: (51215, 51006, 50914)},
    ('enr', 0.3, 2.0): {7: (27991, 27572, 27899), 8: (27819, 28193, 27939), 9: (27905, 27933, 27976)},
    ('enr', 0.3, 3.7): {7: (48316, 48110, 48182), 8: (48416, 48609, 48189), 9: (48587, 48416, 48470)},
    ('nr', 0.0, 2.0): {7: (32972, 32430, 32705), 8: (32731, 33094, 32762), 9: (32890, 32797, 32857)},
    ('nr', 0.0, 3.7): {7: (50918, 50677, 50733), 8: (50962, 51161, 50781), 9: (51215, 51006, 50914)},
    ('nr', 0.3, 2.0): {7: (28091, 27680, 28018), 8: (27919, 28307, 28061), 9: (28018, 28044, 28079)},
    ('nr', 0.3, 3.7): {7: (48329, 48119, 48191), 8: (48427, 48617, 48196), 9: (48593, 48424, 48474)},
    ('plenr', 0.0, 2.0): {7: (33628, 33077, 33355), 8: (33353, 33765, 33414), 9: (33546, 33472, 33505)},
    ('plenr', 0.0, 3.7): {7: (51534, 51332, 51357), 8: (51601, 51791, 51377), 9: (51831, 51637, 51504)},
    ('plenr', 0.3, 2.0): {7: (28363, 27943, 28256), 8: (28227, 28578, 28309), 9: (28330, 28321, 28358)},
    ('plenr', 0.3, 3.7): {7: (48818, 48603, 48695), 8: (48902, 49112, 48740), 9: (49122, 48958, 48925)},
    ('plpr', 0.0, 2.0): {7: (22393, 22065, 22293), 8: (22256, 22471, 22348), 9: (22363, 22293, 22404)},
    ('plpr', 0.0, 3.7): {7: (38346, 38217, 38416), 8: (38566, 38787, 38299), 9: (38704, 38425, 38450)},
    ('plpr', 0.3, 2.0): {7: (15777, 15498, 15898), 8: (15760, 16021, 15779), 9: (15758, 15760, 15831)},
    ('plpr', 0.3, 3.7): {7: (33442, 33213, 33367), 8: (33462, 33908, 33355), 9: (33711, 33390, 33486)},
    ('pr', 0.0, 2.0): {7: (21944, 21602, 21839), 8: (21850, 22054, 21895), 9: (21905, 21852, 21956)},
    ('pr', 0.0, 3.7): {7: (37542, 37490, 37585), 8: (37776, 38020, 37542), 9: (37933, 37602, 37662)},
    ('pr', 0.3, 2.0): {7: (15503, 15202, 15568), 8: (15436, 15716, 15484), 9: (15468, 15440, 15525)},
    ('pr', 0.3, 3.7): {7: (32776, 32535, 32718), 8: (32776, 33228, 32704), 9: (33037, 32738, 32809)},
}

# Packed BodySpec.membership masks on _boundary_points, same recording.
BOUNDARY_BODIES = ((3.7, Interval(0.3, 1.2), 4), (2.0, UNIT, 3))
GOLDEN_BOUNDARY = {
    ('nr', 3.7): '936db6dfffff80',
    ('nr', 2.0): 'f37dbedffff8',
    ('pr', 3.7): '9349a4c0000000',
    ('pr', 2.0): 'f379bcc00000',
    ('plpr', 3.7): '9349a4c0000055555500',
    ('plpr', 2.0): 'f379bcc00007d5f500',
    ('enr', 3.7): '934da6c36ffd00',
    ('enr', 2.0): 'f37dbedffff8',
    ('plenr', 3.7): '934da6c36ffd5555ff80',
    ('plenr', 2.0): 'f37dbeffffffd5ff80',
}


def _golden_body(kind, lower, p):
    iv = Interval(lower, GOLDEN_UPPER)
    return make_body(RelaxationKind(kind), PowerFn(p, iv), Breakpoints.equally_spaced(iv, 5))


def _boundary_points(body):
    """Points on the shared planes, on the z = 0 face and below Z_FLOOR, left
    of the lower end for the extended kinds and on every PL vertex."""
    lo, hi = body.interval.lower, body.interval.upper
    top = lambda x, z: body.secant_z * z + body.secant_x * x  # noqa: E731
    pts = []
    for z in (1.0, 0.5, 0.25, Z_FLOOR / 10.0, 0.0):
        for x in (lo * z, hi * z, 0.5 * (lo + hi) * z):
            pts += [(x, top(x, z), z), (x, 0.5 * top(x, z), z), (x, 0.0, z)]
    if lo > 0.0:
        for z in (0.5, 0.8):
            x = 0.9 * lo
            chord = body.extension_slope * x
            pts += [(x, chord, z), (x, np.nextafter(chord, 0.0), z)]
    if body.estimator is not None:
        for z in (1.0, 0.5):
            for kx, ky in zip(body.estimator.x, body.estimator.y):
                pts += [(kx * z, ky * z, z), (kx * z, np.nextafter(ky * z, 0.0), z)]
    return tuple(np.array(c) for c in zip(*pts))


class TestGoldenHits:
    """The kernel's hit decisions are pinned, not just its statistics."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_HITS))
    def test_block_hits(self, key):
        # the kernel on the bounding-box stream the oracle sampled before it
        # drew in the cone: block b is Philox(seed).jumped(b) scaled to
        # [0, upper] x [0, f(upper)] x [0, 1]
        body = _golden_body(*key)
        code = mc_mod._KIND_CODE[body.kind]
        for seed in GOLDEN_SEEDS:
            hits = []
            for b in range(GOLDEN_BLOCKS):
                gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
                xs, ys, zs = gen.random((3, mc_mod.BLOCK_SIZE))
                xs *= body.interval.upper
                ys *= body.box_height
                hits.append(mc_mod._kernel.count_hits(code, xs, ys, zs, *body._kernel_args()))
            assert tuple(hits) == GOLDEN_HITS[key][seed], seed

    @pytest.mark.parametrize("key", sorted(GOLDEN_CONE_HITS))
    def test_cone_block_hits(self, key):
        body = _golden_body(*key)
        for seed in GOLDEN_SEEDS:
            hits = tuple(
                mc_mod._block_hits(body, seed, b, mc_mod.BLOCK_SIZE)
                for b in range(GOLDEN_BLOCKS)
            )
            assert hits == GOLDEN_CONE_HITS[key][seed], seed

    @pytest.mark.parametrize("kind", [k.value for k in RelaxationKind])
    def test_boundary_points(self, kind):
        for p, iv, n in BOUNDARY_BODIES:
            body = make_body(RelaxationKind(kind), PowerFn(p, iv), Breakpoints.equally_spaced(iv, n))
            xs, ys, zs = _boundary_points(body)
            mask = body.membership(xs, ys, zs)
            assert np.packbits(mask).tobytes().hex() == GOLDEN_BOUNDARY[kind, p]
            code = mc_mod._KIND_CODE[body.kind]
            hits = mc_mod._kernel.count_hits(code, xs, ys, zs, *body._kernel_args())
            assert hits == np.count_nonzero(mask)

    def test_block_with_no_survivors(self):
        xs = np.linspace(0.0, 1.0, 101)
        zs = np.linspace(0.0, 1.0, 101)[::-1]
        for body in _bodies(p=3.7).values():
            ys = np.full_like(xs, 2.0 * body.box_height)  # the top plane stays under box_height
            code = mc_mod._KIND_CODE[body.kind]
            assert mc_mod._kernel.count_hits(code, xs, ys, zs, *body._kernel_args()) == 0
            assert not body.membership(xs, ys, zs).any()
        with pytest.raises(ValueError, match="unknown body kind code"):
            mc_mod._kernel.count_hits(5, xs, ys, zs, *body._kernel_args())


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
        if kind in (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR):
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
        bodies = [body for body, _ in _random_bodies(20, seed=31)]
        bodies.append(_golden_body("plpr", 0.3, 3.7))
        bodies.append(make_body(RelaxationKind.PR, PowerFn(3.0, Interval(1000.0, 1000.001))))
        for i, body in enumerate(bodies):
            gen = np.random.Generator(np.random.Philox(key=i))
            xs, ys, zs = mc_mod._to_cone(body, gen.random((3, mc_mod.CHUNK_SIZE)))
            lo, hi = body.interval.lower, body.interval.upper
            assert ((zs >= 0.0) & (zs <= 1.0)).all()
            assert (xs >= lo * zs).all() and (xs <= hi * zs).all()
            assert ((ys >= 0.0) & (ys <= body.secant_z * zs + body.secant_x * xs)).all()

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
                point = mc_mod._to_cone(body, np.zeros((3, 1)))
            assert (point == 0.0).all()

    @pytest.mark.parametrize("kind", [k.value for k in RelaxationKind])
    def test_hits_do_not_depend_on_workers_or_chunking(self, kind):
        iv = Interval(0.2, 1.5)
        body = make_body(RelaxationKind(kind), PowerFn(3.7, iv), Breakpoints.equally_spaced(iv, 6))
        samples = 2 * mc_mod.BLOCK_SIZE + mc_mod.CHUNK_SIZE + 1234  # not a multiple of a chunk
        hits = {w: mc_volume(body, samples, seed=3, workers=w).hits for w in (1, 2, 4)}
        assert hits[1] == hits[2] == hits[4]
        gen = np.random.Generator(np.random.Philox(key=3).jumped(2))
        tail = 0
        for m in (mc_mod.CHUNK_SIZE, 1234):
            xs, ys, zs = mc_mod._to_cone(body, gen.random((3, m)))
            tail += np.count_nonzero(body.membership(xs, ys, zs))
        full = sum(mc_mod._block_hits(body, 3, b, mc_mod.BLOCK_SIZE) for b in range(2))
        assert hits[1] == full + tail


class TestWorkers:
    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("PERSPEX_THREADS", "3")
        assert mc_mod._resolve_workers(None) == 3
        monkeypatch.setenv("PERSPEX_THREADS", "0")
        assert mc_mod._resolve_workers(None) >= 1
        monkeypatch.setenv("PERSPEX_THREADS", "zebra")
        with pytest.raises(DomainError):
            mc_mod._resolve_workers(None)

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("PERSPEX_THREADS", "7")
        assert mc_mod._resolve_workers(2) == 2

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("PERSPEX_THREADS", raising=False)
        assert mc_mod._resolve_workers(None) == 1
