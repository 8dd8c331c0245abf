"""The documented-domain census: newton-large's grid of inputs, built here.

Seeds 1-3 of a jittered grid of n (160, 450, 1250) x p (6 log bins over
[1.01, 8] plus p = 2) x lower (0, a ratio of upper, or a narrow interval far
from zero), with upper over four decades of [1e-2, 1e2]: 63 inputs a seed,
drawn as the benchmark draws them.  Every input must return an ordered
interior whose residual is at most 1e-9 of the width, and plpr's closed
form must match its own knot table there and at equal spacing.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import high_precision_cuts

from perspex import (
    Breakpoints,
    Interval,
    PowerFn,
    RelaxationKind,
    gradient_system,
    make_body,
    newton_optimize,
    volume_power_closed_form,
)

SEEDS = (1, 2, 3)
STATIONARITY_BOUND = 1e-9  # max |residual| / width
EPS = float(np.finfo(float).eps)

# (seed, index in the seed's grid): the inputs whose runs stopped at 1.08e-9
# to 1.76e-9 of the width while the floor was 16.5 p eps upper, on narrow
# intervals near 30 (p = 6.74, 3.41, 6.75 and 7.00)
NEAR_THE_FLOAT_GRID = ((1, 17), (1, 53), (2, 17), (3, 17))


def _in_bin(rng, lo, hi, bins, k, log=True, jitter=0.3):
    """A draw in the middle ``jitter`` share of the k-th of ``bins`` equal
    (log-spaced when ``log``) bins of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    x = a + (b - a) / bins * (k + 0.5 + jitter * (rng.uniform() - 0.5))
    return math.exp(x) if log else x


def knot_sum_bound(p):
    """Relative bound on plpr's closed form against ``width * unit / 3``
    times the trapezoid sum of its body's knot table, the exact volume of
    the body's piecewise-linear columns, to first order in u = eps/2.

    Each side sums nonnegative terms, so it is within its terms' relative
    error plus 22 u, numpy's pairwise summation of up to 1250 of them.  A
    closed-form term weighs two Bregman gaps (4 eps; 3.3 eps measured
    against 60 digits), one of them scaled by ``exp(-p L)`` (``p L u``, at
    most 10 eps on this grid), by lengths from the cut fractions (6 eps, as
    TestCutFractions bounds them), with about 8 roundings: 24 eps.  A knot
    value is a gap's direct difference ``a**p - x**p - p x**(p-1) (a - x)``
    in units of ``f(upper)``, whose terms, each below ``p + 1``, cancel to
    O(p - 1) of them: about 8 eps / (p - 1), and 2 eps more for the line
    and the trapezoid.  The cut offsets that the two sides read differently
    move the volume only at second order.  In all, 24 + 2 + 2 * 11 = 48 eps
    and 8 eps / (p - 1); the census's worst is 6.6 eps, at p = 1.19."""
    return (48.0 + 8.0 / (p - 1.0)) * EPS


def knot_sum_error(pf, bp):
    """Relative difference of plpr's closed form at ``bp`` from the
    trapezoid sum of its body's knot table, two knots a piece."""
    body = make_body(RelaxationKind.PL_PR, pf, bp)
    x, y = body.columns
    trapezoid = float(((x[1::2] - x[::2]) * (y[::2] + y[1::2])).sum()) / 2.0
    want = pf.interval.width * body.unit / 3.0 * trapezoid
    return abs(volume_power_closed_form(pf, bp) - want) / want


def census_grid(seed):
    """``(p, lower, upper, n)`` per cell, in the benchmark's order and draws.
    Upper takes one of four decades by a Latin-square rotation over the
    other three indices; p = 2 and its cells' upper are not jittered."""
    rng = np.random.default_rng([seed, 0])
    grid = []
    for jn, ip, ml in itertools.product(range(3), range(7), range(3)):
        ku = (jn + ip + 3 * ml) % 4
        jitter = 0.0 if ip == 6 else 0.3
        upper = _in_bin(rng, 1e-2, 1e2, 4, ku, jitter=jitter)
        n = (160, 450, 1250)[jn]
        p = 2.0 if ip == 6 else _in_bin(rng, 1.01, 8.0, 6, ip)
        if ml == 0:
            lower = 0.0
        elif ml == 1:
            lower = upper * _in_bin(rng, 0.0, 1.0, 4, ku, log=False, jitter=jitter)
        else:
            lower = upper * (1.0 - 10.0 ** -_in_bin(rng, 2.0, 6.0, 4, ku, log=False,
                                                     jitter=jitter))
        grid.append((p, lower, upper, n))
    return grid


@pytest.mark.parametrize("seed", SEEDS)
def test_every_input_is_ordered_and_stationary(seed):
    failures = []
    for p, lower, upper, n in census_grid(seed):
        pf = PowerFn(p, Interval(lower, upper))
        bp, _ = newton_optimize(pf, n)
        xi = bp.xi
        assert xi[0] == lower and xi[-1] == upper and (np.diff(xi) > 0.0).all()
        stat = float(np.abs(gradient_system(pf, bp).residual).max()) / (upper - lower)
        if not stat <= STATIONARITY_BOUND:
            failures.append((p, lower, upper, n, stat))
        for at in (bp, Breakpoints.equally_spaced(pf.interval, n)):
            error = knot_sum_error(pf, at)
            if not error <= knot_sum_bound(p):
                failures.append((p, lower, upper, n, error))
    assert failures == []


@pytest.mark.parametrize("seed, index", NEAR_THE_FLOAT_GRID)
def test_residual_at_sixty_digits(seed, index):
    # the evaluator is checked too: 2p (x_k - (t_{k-1} + t_k) / 2) from
    # 60-digit cuts at the returned float breakpoints
    mpmath = pytest.importorskip("mpmath")
    p, lower, upper, n = census_grid(seed)[index]
    pf = PowerFn(p, Interval(lower, upper))
    bp, _ = newton_optimize(pf, n)
    with mpmath.workdps(60):
        cuts = [t for t, _, _ in high_precision_cuts(mpmath, p, bp.xi)]
        x = [mpmath.mpf(v) for v in bp.xi.tolist()]
        worst = max(abs(p * (2 * x[k] - cuts[k - 1] - cuts[k])) for k in range(1, n))
        assert worst <= STATIONARITY_BOUND * (mpmath.mpf(upper) - mpmath.mpf(lower))
