"""Vectorized numpy column kernel for the Monte-Carlo oracle.

The oracle samples columns, not points: a sample is a point ``w`` of
``[lower, upper]``, given as its offset ``t = (w - lower) / width`` in
``[0, 1]``.  Its column is the part of the cone over ``w``: for each ``z``
in ``[0, 1]`` the segment ``0 <= y <= z * chord(w)`` at ``x = z*w``, of
measure ``z dz dw``.  The body keeps the part above its own lower bound
``L``, so its column length is

    ``h(w) = ∫₀¹ z (z chord(w) - L(z w)) dz``,

which the kernel integrates over ``z`` exactly.  The integrand is
nonnegative for every kind, as ``L(zw) <= f(zw) <= z f(w) <= z chord(w)``,
so only rounding is clipped.  ``L(x, z)`` is ``z f(w)`` for the perspective kinds
and ``L(x)`` for the naive ones: ``f``, ``f`` extended below ``lower`` by
the chord from the origin (enr), or that extension of the tangent
under-estimator (plenr).  With ``κ = (p - 1)/(p + 2)`` each column is the
pr column plus a nonnegative term:

* pr: ``(chord - f(w)) / 3``;
* plpr: pr plus ``f(w) - est(w)``, the Bregman gap to the tangent at the
  tangency point ``x_k`` of ``w``'s piece, over 3;
* nr: pr plus ``κ f(w) / 3``;
* enr: pr plus ``κ (f(w) - f(lower) (lower/w)**2) / 3``, which is nr at
  ``lower = 0``;
* plenr: enr plus ``w**-2 ∫_lower^w x (f - est) dx``.

plpr's column over a piece is affine in ``w``, with two Bregman gaps per
piece as its coefficients (:func:`_tangent_columns`).  plenr's is ``(chord
- f(lower)) / 3`` less ``w**-2`` times a cubic in ``w``'s distance from
its piece's left vertex, whose nonnegative coefficients carry a prefix sum
over the pieces (:func:`_moments`).  Pieces are found by the estimator's
own bucketed lookup (``PLUnderEstimator._piece``).  The kernel returns each column as ``3 h /
column_unit(body)``; the oracle applies ``column_unit / 3`` and the width
once to its sums.  The unit is ``f(lower)`` where ``f(upper) <= 2
f(lower)``: there the kernel works in ratios to ``lower`` (``log1p`` and
``expm1`` of ``w/lower - 1``), and never subtracts two values of size
``f(lower)``, which on a narrow interval far from zero would leave only
rounding.  Elsewhere the unit is ``f(upper)``, the kernel works in ratios
to ``upper``, and no value outgrows it.  The kernel reads the body (an
``mc.BodySpec``) as it is: its kind, exponent, interval and heights,
tangent under-estimator and tangency points.
"""

from __future__ import annotations

import math

import numpy as np

from .power import RelaxationKind

_LN2 = math.log(2.0)


def _rise(body):
    """``f(upper) / f(lower) - 1`` where it is at most 1, in ratio form, and
    ``None`` where it is not (``f(lower) = 0`` included)."""
    lo = body.interval.lower
    if not body.lower_height > 0.0:
        return None
    exponent = body.p * math.log1p(body.interval.width / lo)
    return math.expm1(exponent) if exponent <= _LN2 else None


def column_unit(body) -> float:
    """The unit of the columns :func:`count_hits` returns: ``f(lower)`` where
    ``f(upper) <= 2 f(lower)``, else ``f(upper)``."""
    return body.upper_height if _rise(body) is None else body.lower_height


def _smooth(body, t, rise, kappa, extended):
    """``(chord - (1 - kappa) f(w)) / unit`` at the offsets ``t``, less
    ``kappa f(lower) (lower/w)**2 / unit`` if ``extended``: ``3 h`` of pr at
    ``kappa = 0``, and of nr and enr at ``kappa = κ``."""
    lo, up, width, p = body.interval.lower, body.interval.upper, body.interval.width, body.p
    if rise is not None:
        # unit f(lower): chord = 1 + t rise, f(w) = 1 + E with E = expm1(p r),
        # (lower/w)**2 = 1 + expm1(-2 r), r = log1p(t width / lower); the
        # constant terms sum to kappa, or to 0 if extended
        r = t * (width / lo)
        np.log1p(r, out=r)
        e = r * p
        np.expm1(e, out=e)
        h = t * rise
        if kappa:
            e *= 1.0 - kappa
            if not extended:
                h += kappa
        h -= e
        if extended:
            r *= -2.0
            np.expm1(r, out=r)
            r *= kappa
            h -= r
        return h
    # unit f(upper): chord = c + t (1 - c) with c = f(lower) / f(upper), f(w) = v**p
    c = body.lower_height / body.upper_height
    v = t * (width / up)  # w / upper
    h = t * (1.0 - c)
    if lo > 0.0:
        v += lo / up
        h += c
    fw = v**p
    if kappa:
        fw *= 1.0 - kappa
    h -= fw
    if extended and lo > 0.0:
        np.multiply(v, v, out=v)
        np.divide(kappa * c * (lo / up) ** 2, v, out=v)
        h -= v
    return h


def _bregman(p, a, x, ratio):
    """``f(a) - f(x) - f'(x) (a - x)`` for ``f = x**p``, elementwise.

    With ``ratio`` it is ``f(x) (expm1(p log1p(r)) - p r)`` with ``r = a/x -
    1``, which keeps its relative accuracy however close ``a`` is to ``x``;
    the kernel takes it where ``f(upper) <= 2 f(lower)``, so that ``p |r|
    <= 1`` and the exponential does not grow the rounding of ``log1p(r)``.
    Elsewhere the direct form, whose terms then differ by a factor of at
    least about 2 wherever the gap is not a rounding of 0."""
    if not ratio:
        return a**p - x**p - p * x ** (p - 1.0) * (a - x)
    r = a / x - 1.0
    gap = np.log1p(r)
    gap *= p
    np.expm1(gap, out=gap)
    r *= p
    gap -= r
    gap *= x**p
    return gap


def _tangent_columns(body, rise, unit):
    """``(A, B)`` per piece ``k``: ``3 h / unit = A[k] + B[k] t`` for plpr
    over piece ``k``.  ``chord - T`` is affine in ``t`` for the tangent
    ``T`` at ``x_k``, ``f(lower) - T(lower)`` at ``t = 0`` and ``f(upper) -
    T(upper)`` at ``t = 1``: both Bregman gaps, so neither cancels."""
    ends = np.array([[body.interval.lower], [body.interval.upper]])
    at_lo, at_up = _bregman(body.p, ends, body.tangent_x, rise is not None) / unit
    return at_lo, at_up - at_lo


def _moments(body, unit):
    """Per piece ``k``: the offset ``a`` of its left vertex and the Horner
    coefficients ``n3, n2, n1, n0`` of plenr's ``3 h / unit = t g - N / (w /
    width)**2`` with ``N = n0 + d (n1 + d (n2 + d n3))``, ``d = t - a``.

    In lengths relative to the width, ``N`` is ``(c/2) (w**2 - lower**2) +
    ∫_lower^w x e dx`` with ``c = f(lower) / unit`` and ``e = 3 (est -
    f(lower)) / unit``, a sum of slopes times piece widths.  On the piece
    of ``x_k``, ``e = e_k + m_k (x - a_k)`` with the tangent's slope
    ``m_k``, so ``n1 = x_k (e_k + c)``, ``n2 = (e_k + m_k x_k + c) / 2`` and
    ``n3 = m_k / 3`` at the vertex ``x_k``, and ``n0`` carries ``N`` from
    piece to piece.  Every coefficient is nonnegative."""
    lo, width, p = body.interval.lower, body.interval.width, body.p
    c = body.lower_height / unit
    a = (body.estimator.x - lo) / width
    da = np.diff(a)
    a = a[:-1]
    x = a + lo / width
    slope = body.tangent_x ** (p - 1.0) * (width / unit) * (3.0 * p)  # no overflow: <= 3 p
    e = np.concatenate(([0.0], np.cumsum(slope[:-1] * da[:-1])))
    e += c
    n1 = x * e
    n2 = 0.5 * (e + slope * x)
    n3 = slope / 3.0
    gain = da * (n1 + da * (n2 + da * n3))  # N over each whole piece
    n0 = np.concatenate(([0.0], np.cumsum(gain[:-1])))
    return a, n3, n2, n1, n0


def _plenr(body, t, g, unit):
    """``3 h / unit`` of plenr, ``t g - N / (w / width)**2`` (see
    :func:`_moments`), with ``g = (f(upper) - f(lower)) / unit``."""
    lo, width = body.interval.lower, body.interval.width
    a, n3, n2, n1, n0 = _moments(body, unit)
    v = t + lo / width  # w / width
    k = body.estimator._piece(v * width)
    d = np.take(a, k)
    np.subtract(t, d, out=d)
    n = np.take(n3, k)
    n *= d
    n += np.take(n2, k)
    n *= d
    n += np.take(n1, k)
    n *= d
    n += np.take(n0, k)
    np.multiply(v, v, out=v)
    with np.errstate(invalid="ignore"):  # 0/0 at w = lower = 0, a column of length 0
        n /= v
    h = t * g
    h -= n
    return h


def count_hits(body, t):
    """``(hits, h)`` of one chunk of columns at the offsets ``t = (w -
    lower) / width``: the number of columns that meet the body, and each
    column's length ``h(w)`` in it as ``3 h / column_unit(body)``, clipped
    at 0 against rounding, in the shape of ``t``.

    The body's volume is ``width`` times the mean of ``h(w)`` over ``w``
    uniform on ``[lower, upper]``.
    """
    kind = body.kind
    rise, unit = _rise(body), column_unit(body)
    if kind is RelaxationKind.PL_E_NR:
        # (f(upper) - f(lower)) / unit; 1 - f(lower)/f(upper) >= 1/2 does not cancel
        h = _plenr(body, t, 1.0 - body.lower_height / unit if rise is None else rise, unit)
    elif kind is RelaxationKind.PL_PR:
        at_lo, slope = _tangent_columns(body, rise, unit)
        w = t * body.interval.width
        w += body.interval.lower
        k = body.estimator._piece(w)
        h = np.take(slope, k)
        h *= t
        h += np.take(at_lo, k)
    else:
        kappa = 0.0 if kind is RelaxationKind.PR else (body.p - 1.0) / (body.p + 2.0)
        h = _smooth(body, t, rise, kappa, kind is RelaxationKind.E_NR)
    # fmax, unlike maximum, also sends plenr's 0/0 at the apex to 0
    np.fmax(h, 0.0, out=h)
    return int(np.count_nonzero(h)), h
