"""Vectorized numpy column kernel for the Monte-Carlo oracle.

The oracle samples columns, not points: a sample is ``(w, z)`` in the
footprint of the cone every body lies in (``lo <= w <= hi``, ``0 <= z <=
1``), and its column is ``0 <= y <= S`` at ``x = z*w``, with ``S = sec_z*z +
sec_x*x`` the shared secant plane.  The body keeps the part of the column
above its own lower bound ``L(x, z)`` (powers, the piecewise-linear
lookup), so the column's share in the body is exactly ``g = clip((S - L) /
S, 0, 1)``, and ``g = 0`` where ``S <= 0``.  For the perspective kinds ``L =
z * f(w)``, so ``z`` cancels and is not read: the sampler passes ``None``.
The kernel does not test the footprint: the sampler draws inside it.  It
reads the body (an ``mc.BodySpec``) as it is: its kind, exponent, secant
plane, tangent under-estimator and extension slope.
"""

from __future__ import annotations

import numpy as np

from .power import RelaxationKind

# kinds whose column fraction does not read z: one uniform per sample
W_ONLY_KINDS = (RelaxationKind.PR, RelaxationKind.PL_PR)


def _power(v: np.ndarray, q: float) -> np.ndarray:
    if q == 2.0:
        return v * v
    return np.power(v, q)


def _take(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # a[k] for indices known to be in range; mode="clip" skips the bounds
    # check that makes plain fancy indexing about 1.5x slower
    return np.take(a, k, mode="clip")


def _piece(kx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``np.searchsorted(kx[1:-1], w, side="right")``, the piece holding each
    ``w``, without a branchy binary search per sample.

    ``w`` is bucketed on a uniform grid of ``4 * kx.size`` buckets over
    ``[kx[0], kx[-1]]``; each bucket starts from the piece one bucket below it
    (so an off-by-one bucket from rounding cannot overshoot) and steps up
    while ``w`` lies past the next breakpoint.  Buckets are clipped to the
    grid, so the end pieces still extend outwards.
    """
    inner = kx[1:-1]
    nb = 4 * kx.size
    scale = nb / (kx[-1] - kx[0])
    start = np.searchsorted(inner, kx[0] + np.arange(-1, nb) / scale)
    bucket = w - kx[0]
    bucket *= scale
    np.clip(bucket, 0, nb, out=bucket)
    k = _take(start, bucket.astype(np.intp))
    upper = np.append(inner, np.inf)
    while True:
        step = w >= _take(upper, k)
        if not step.any():
            return k
        k += step


def _pl_eval(kx: np.ndarray, ky: np.ndarray, w: np.ndarray) -> np.ndarray:
    # piece k holds kx[k] <= w < kx[k+1]; the end pieces extend outwards
    k = _piece(kx, w)
    slope = (ky[1:] - ky[:-1]) / (kx[1:] - kx[:-1])
    out = w - _take(kx, k)
    out *= _take(slope, k)
    out += _take(ky, k)
    return out


def column_fraction(body, w, z):
    """The share ``g`` of each sampled column ``(w, z)`` that lies in
    ``body``; ``z`` may be ``None`` for the kinds in ``W_ONLY_KINDS``."""
    kind, p, est = body.kind, body.p, body.estimator
    top = body.secant_x * w
    top += body.secant_z  # chord(w) = S / z
    if kind in W_ONLY_KINDS:
        # L = z * f(w): z cancels from (S - L) / S
        lower = _power(w, p) if kind is RelaxationKind.PR else _pl_eval(est.x, est.y, w)
    else:
        x = z * w
        top *= z
        if kind is RelaxationKind.NR:
            lower = _power(x, p)
        else:
            inner = _power(x, p) if kind is RelaxationKind.E_NR else _pl_eval(est.x, est.y, x)
            lower = np.where(x < body.interval.lower, body.extension_slope * x, inner)
    np.subtract(top, lower, out=lower)
    g = np.divide(lower, top, out=np.zeros_like(top), where=top > 0.0)
    return np.clip(g, 0.0, 1.0, out=g)


def count_hits(body, w, z):
    """``(hits, mean, M2)`` of one chunk's column fractions: the columns that
    meet the body, the mean fraction and the sum of squared deviations from
    it."""
    g = column_fraction(body, w, z)
    hits = int(np.count_nonzero(g > 0.0))
    mean = float(g.sum()) / g.size
    g -= mean
    return hits, mean, float(np.einsum("i,i", g, g))
