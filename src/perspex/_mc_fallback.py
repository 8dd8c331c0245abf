"""Vectorized numpy column kernel for the Monte-Carlo oracle.

The oracle samples columns, not points: a sample is ``(w, z)`` in the
footprint of the cone every body lies in (``lo <= w <= hi``, ``0 <= z <=
1``), and its column is ``0 <= y <= S`` at ``x = z*w``, with ``S = sec_z*z +
sec_x*x`` the shared secant plane.  The body keeps the part of the column
above its own lower bound ``L(x, z)``, so the column's share in the body
is exactly ``g = clip((S - L) / S, 0, 1)``, and ``g = 0`` where ``S <= 0``.
``L`` is a power, or for the piecewise-linear kinds the body's tangent
under-estimator: plenr evaluates it by the estimator's own bucketed lookup
(``PLUnderEstimator.__call__``), plpr by the tangent of that piece (below).
For the perspective kinds ``L = z * f(w)``, so ``z`` cancels and is not
read: the sampler passes ``None``.  The kernel
does not test the footprint: the sampler draws inside it.  It reads the
body (an ``mc.BodySpec``) as it is: its kind, exponent, secant plane,
tangent under-estimator and tangency points, and extension slope.

For the perspective kinds on ``lower > 0`` the gap ``chord(w) - f(w)`` is
written in ratios to ``lower``, ``lower**p * ((s/width) * expm1(p*L) -
expm1(p * log1p(s/lower)))`` with ``s = w - lower`` and ``L =
log1p(width/lower)``: it never subtracts two values of size ``lower**p``,
which on a narrow interval far from zero would leave only rounding.  plpr
adds the gap ``x_k**p * (expm1(p * log1p(r)) - p*r)``, ``r = w/x_k - 1``,
to the tangent at ``x_k`` of ``w``'s piece ``k``, whose ends are the
ratio-form cuts (``power._tangent_cuts``).
"""

from __future__ import annotations

import numpy as np

from .power import RelaxationKind

# kinds whose column fraction does not read z: one uniform per sample
W_ONLY_KINDS = (RelaxationKind.PR, RelaxationKind.PL_PR)


def _perspective_gap(body, w):
    """``(chord(w), chord(w) - f(w))`` for the perspective kinds; directly
    where ``f(lower)`` is 0 or ``f(upper) / f(lower)`` overflows, since no
    narrow interval has either."""
    lo, width, p = body.interval.lower, body.interval.width, body.p
    with np.errstate(over="ignore"):
        rise = np.expm1(p * np.log1p(width / lo)) if body.lower_height > 0.0 else np.inf
    if rise == np.inf:  # f(upper) / f(lower) - 1
        top = body.secant_x * w
        top += body.secant_z
        return top, top - w**p
    s = w - lo
    s /= width
    s *= rise  # (chord(w) - f(lower)) / f(lower)
    gap = w - lo
    gap /= lo
    np.log1p(gap, out=gap)
    gap *= p
    np.expm1(gap, out=gap)  # f(w) / f(lower) - 1
    np.subtract(s, gap, out=gap)
    gap *= body.lower_height
    s += 1.0
    s *= body.lower_height
    return s, gap


def _tangent_gap(body, w):
    """``f(w)`` minus the tangent under-estimator, with no value of the
    estimator formed: it cancels on a narrow interval far from zero."""
    return _bregman(body.p, w, body.tangent_x, body.estimator._piece(w))


def _bregman(p, w, xk, k):
    """``f(w) - f(x) - f'(x) (w - x)`` for ``f = x**p`` at the tangency
    points ``x = xk[k]``: ``f(x) * (expm1(p * log1p(r)) - p*r)`` with ``r
    = w/x - 1``, and the direct form where ``f(x)`` is 0 or ``(w / x)**p``
    overflows, far from any narrow interval.  One buffer holds ``x``, ``r``
    and ``f(x)`` in turn."""
    r = np.take(xk, k)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # replaced below
        np.divide(w, r, out=r)
        r -= 1.0
        gap = np.log1p(r)
        gap *= p
        np.expm1(gap, out=gap)
        r *= p
        gap -= r
        fx = np.take(xk**p, k, out=r)
        gap *= fx
    far = ~np.isfinite(gap) | (fx == 0.0)
    if far.any():
        wf, xf = w[far], xk[k[far]]
        gap[far] = wf**p - xf**p - p * xf ** (p - 1.0) * (wf - xf)
    return gap


def _columns(body, w, z):
    """``(top, gap)``: each column's height ``S`` and its height ``S - L``
    above the body's lower bound, unclipped; for the perspective kinds both
    per unit ``z``, ``chord(w)`` and ``chord(w) - f(w)``."""
    kind, p, est = body.kind, body.p, body.estimator
    if kind in W_ONLY_KINDS:
        # L = z * f(w): z cancels from (S - L) / S; the tangent gap first,
        # whose temporaries are the most
        tangent = _tangent_gap(body, w) if kind is RelaxationKind.PL_PR else None
        top, gap = _perspective_gap(body, w)
        if tangent is not None:
            gap += tangent
        return top, gap
    top = body.secant_x * w
    top += body.secant_z  # chord(w) = S / z
    x = z * w
    top *= z
    if kind is RelaxationKind.NR:
        lower = x**p
    else:
        inner = x**p if kind is RelaxationKind.E_NR else est(x)
        lower = np.where(x < body.interval.lower, body.extension_slope * x, inner)
    return top, np.subtract(top, lower, out=lower)


def column_fraction(body, w, z):
    """The share ``g`` of each sampled column ``(w, z)`` that lies in
    ``body``; ``z`` may be ``None`` for the kinds in ``W_ONLY_KINDS``."""
    top, gap = _columns(body, w, z)
    g = np.divide(gap, top, out=np.zeros_like(top), where=top > 0.0)
    return np.clip(g, 0.0, 1.0, out=g)


def count_hits(body, w, z):
    """``(hits, h)`` of one chunk of columns: the number that meet the body,
    and each column's length in it per unit of footprint width.

    ``h`` is the column's share ``g`` weighted by the cone's measure of the
    column, ``chord(w) * g / 3`` for the kinds in ``W_ONLY_KINDS`` (their
    ``g`` does not depend on ``z``, whose weight ``z**2`` integrates to a
    third) and ``z**2 * chord(w) * g`` for the others, so that the body's
    volume is ``width`` times the mean of ``h`` over the footprint
    rectangle ``[lower, upper] x [0, 1]``.  ``chord * g`` is computed as the
    column height above the lower bound, clipped to ``[0, chord]``.
    """
    top, gap = _columns(body, w, z)
    np.minimum(gap, top, out=gap)
    np.maximum(gap, 0.0, out=gap)
    hits = int(np.count_nonzero(gap))
    if body.kind in W_ONLY_KINDS:
        gap /= 3.0
    else:
        gap *= z  # top carries one factor of z already
    return hits, gap
