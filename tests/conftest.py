import numpy as np

from perspex import Breakpoints, Interval, PowerFn, RelaxationKind


def random_power_instance(
    rng,
    p_max=8.0,
    n_min=1,
    n_max=7,
    lower_max=2.0,
    width_max=3.0,
    positive_lower=False,
):
    """One random (PowerFn, Breakpoints) pair with well-separated points."""
    p = 1.0 + (p_max - 1.0) * rng.random()
    lower = lower_max * rng.random()
    if positive_lower:
        lower += 0.05
    width = 0.05 + (width_max - 0.05) * rng.random()
    iv = Interval(lower, lower + width)
    n = int(rng.integers(n_min, n_max + 1))
    while True:
        cuts = np.sort(rng.random(n - 1))
        gaps = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        if (gaps > 1e-3).all():
            break
    xi = np.concatenate(([iv.lower], iv.lower + width * cuts, [iv.upper]))
    return PowerFn(p, iv), Breakpoints(iv, xi)


def column_on_piece(body, t, k):
    """A piecewise-linear body's kernel column ``3 h / unit`` at the offsets
    ``t``, each taken on the piece ``k`` given for it, from the body's piece
    coefficients and in the kernel's order of operations, clipped at 0: on
    the kernel's own piece it is the kernel's column bit for bit."""
    if body.kind is RelaxationKind.PL_PR:
        at_lo, slope = body.columns
        h = slope[k] * t + at_lo[k]
    else:
        a, n3, n2, n1, n0 = body.columns
        iv = body.interval
        g = body.rise if body.rise is not None else 1.0 - body.lower_height / body.unit
        d = t - a[k]
        v = t + iv.lower / iv.width
        with np.errstate(invalid="ignore"):  # 0/0 at the apex
            h = t * g - (((n3[k] * d + n2[k]) * d + n1[k]) * d + n0[k]) / (v * v)
    return np.fmax(h, 0.0)
