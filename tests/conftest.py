import numpy as np

from perspex import Breakpoints, Interval, PowerFn, RelaxationKind, gradient_system


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
    the kernel's own piece it is the kernel's column bit for bit.  plpr's
    piece ``k`` runs from knot ``2k`` at ``(s, f0)`` to knot ``2k + 1`` at
    ``(e, f1)`` of its knot table, interpolated as ``np.interp`` does."""
    if body.kind is RelaxationKind.PL_PR:
        x, y = body.columns
        s, e, f0, f1 = x[2 * k], x[2 * k + 1], y[2 * k], y[2 * k + 1]
        with np.errstate(divide="ignore", invalid="ignore"):  # pieces of no length
            h = np.where(t == s, f0, np.where(t == e, f1, (f1 - f0) / (e - s) * (t - s) + f0))
    else:
        a, n3, n2, n1, n0 = body.columns
        iv = body.interval
        g = body.rise if body.rise is not None else 1.0 - body.lower_height / body.unit
        d = t - a[k]
        v = t + iv.lower / iv.width
        with np.errstate(invalid="ignore"):  # 0/0 at the apex
            h = t * g - (((n3[k] * d + n2[k]) * d + n1[k]) * d + n0[k]) / (v * v)
    return np.fmax(h, 0.0)


# A ratio-form cut t of the pair (a, b) is within 4 eps * b of exact (the
# bound test_underestimator checks), so b - t and t - a carry that error
# relative to themselves.  A Newton band multiplies one of them by factors
# worth about 8 roundings more (g, a quotient, products), and 8 eps is at
# most 4 eps * b / min(t - a, b - t), since min(t - a, b - t) <= b / 2.
BAND_ULPS = 4.0 + 4.0

# (p, lower, upper, n): narrow intervals far from zero, where differences of
# powers cancel
NARROW_GRIDS = (
    (3.0, 1000.0, 1000.001, 4),
    (3.0, 1000.0, 1000.001, 40),
    (1.2, 10.0, 10.0001, 30),
    (6.59, 0.295381, 0.295455, 50),
    (1.001, 6.63392, 6.633921, 5),
)


def high_precision_cuts(mpmath, p, xi):
    """Per pair ``(a, b)`` of ``xi``: the cut ``t`` of the tangents of
    ``x**p``, ``dt/da`` and ``dt/db`` at the working precision, from the
    forms that hold for any convex ``f``: ``t = (f(b) - f(a) + a f'(a) - b
    f'(b)) / (f'(a) - f'(b))``, ``dt/da = f''(a) (t - a) / (f'(b) - f'(a))``
    and ``dt/db = f''(b) (b - t) / (f'(b) - f'(a))``.  ``dt/da`` is ``None``
    at ``a = 0``."""
    p = mpmath.mpf(p)
    q = p - 1
    x = [mpmath.mpf(v) for v in np.asarray(xi).tolist()]
    cuts = []
    for a, b in zip(x[:-1], x[1:]):
        rise = p * (b**q - a**q)
        t = (b**p - a**p + p * (a**q * a - b**q * b)) / -rise
        dta = p * q * a ** (q - 1) * (t - a) / rise if a else None
        cuts.append((t, dta, p * q * b ** (q - 1) * (b - t) / rise))
    return cuts


def cut_slack(xi, cuts):
    """``eps * b / min(t - a, b - t)`` per pair, from :func:`high_precision_cuts`:
    the relative error of ``b - t`` or ``t - a`` per ulp of ``b`` in ``t``."""
    near = [min(t - a, b - t) for a, b, (t, _, _) in zip(xi[:-1].tolist(), xi[1:].tolist(), cuts)]
    return np.finfo(float).eps * xi[1:] / np.array([float(d) for d in near])


def band_excess(mpmath, pf, bp):
    """Worst ratio, over the Newton Jacobian's entries at ``bp``, of an
    entry's relative error against 60 digits to its bound ``BAND_ULPS * eps
    * b / min(t - a, b - t)``, the larger over the pairs it reads; the
    bands pass at 1 or below.

    Entry k of the residual ``2p x_k - p t_{k-1} - p t_k`` reads pairs
    ``k - 1`` and ``k``.
    """
    sys = gradient_system(pf, bp)
    with mpmath.workdps(60):
        cuts = high_precision_cuts(mpmath, pf.p, bp.xi)
        p = mpmath.mpf(pf.p)
        sub = [-p * cuts[k][1] for k in range(1, bp.n - 1)]
        diag = [p * (2 - cuts[k - 1][2] - cuts[k][1]) for k in range(1, bp.n)]
        sup = [-p * cuts[k][2] for k in range(1, bp.n - 1)]
        slack = BAND_ULPS * cut_slack(bp.xi, cuts)
    worst = 0.0
    for got, want, bound in (
        (sys.jac_sub, sub, slack[1:-1]),
        (sys.jac_diag, diag, np.maximum(slack[:-1], slack[1:])),
        (sys.jac_sup, sup, slack[1:-1]),
    ):
        want = np.array([float(v) for v in want])
        worst = max(worst, float((np.abs(got - want) / (np.abs(want) * bound)).max(initial=0.0)))
    return worst
