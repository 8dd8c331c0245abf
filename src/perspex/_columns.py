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
piece as its coefficients, and is stored as a knot table, two knots per
piece on the piece's line (:func:`tangent_columns`); the kernel scores a
chunk with one ``np.interp`` over it, which finds each column's piece and
evaluates its line in one pass.  plenr's is ``(chord - f(lower)) / 3``
less ``w**-2`` times a cubic in ``w``'s distance from its piece's left
vertex, whose nonnegative coefficients carry a prefix sum over the pieces
(:func:`moments`); the kernel finds each column's piece by one
``np.searchsorted`` of its offset among the cuts' offsets.  Neither reads
an ordinate of the under-estimator: ``mc.make_body`` builds both tables
once per body from the tangency points and the cuts of adjacent tangents.
plpr's column at ``t = 1 - 1e-9``, where it is first order in ``1 - t``,
is within a relative 1.4e-8 of a 40-digit evaluation on the bodies of the
tests' narrow-interval grid and within 2.1e-9 on three moderate ones:
``np.interp`` takes it from the last piece's start, and its relative
error is at most about ``eps`` times that piece's width in offsets over
``1 - t``.

The kernel returns each column as ``3 h / unit``; the oracle applies
``unit / 3`` and the width once, to its sums' means.  The unit is ``f(lower)``
where ``f(upper) <= 2 f(lower)`` (:func:`column_scale`): there the kernel
works in ratios to ``lower`` (``log1p`` and ``expm1`` of ``w/lower - 1``),
and never subtracts two values of size ``f(lower)``, which on a narrow
interval far from zero would leave only rounding.  Elsewhere the unit is
``f(upper)``, the kernel works in ratios to ``upper``, and no value
outgrows it.  The kernel reads the body (an ``mc.BodySpec``) as it is: its
kind, exponent, interval, heights and scale, plpr's knot table, and
plenr's cut offsets and piece coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .power import _LN2, RelaxationKind, _relative_gap


def column_scale(p, interval, lower_height, upper_height):
    """``(rise, unit)`` of a body: ``rise = f(upper) / f(lower) - 1`` in
    ratio form where it is at most 1, else ``None`` (``f(lower) = 0``
    included), and the unit of the columns :func:`count_hits` returns,
    ``f(lower)`` where ``rise`` is not ``None``, else ``f(upper)``."""
    if lower_height > 0.0:
        exponent = p * math.log1p(interval.width / interval.lower)
        if exponent <= _LN2:
            return math.expm1(exponent), lower_height
    return None, upper_height


def _bregman(p, a, x, ratio):
    """``f(a) - f(x) - f'(x) (a - x)`` for ``f = x**p``, elementwise.

    With ``ratio`` it is ``f(x) φ(p u)`` at ``u = log1p((a - x) / x)``
    (``power._relative_gap``), which keeps its relative accuracy however
    close ``a`` is to ``x``; the kernel takes it where ``f(upper) <= 2
    f(lower)``, where ``a - x`` is exact and ``|p u| <= ln 2``.  Elsewhere
    the direct form, whose terms then differ by a factor of at least about
    2 wherever the gap is not a rounding of 0."""
    if not ratio:
        return a**p - x**p - p * x ** (p - 1.0) * (a - x)
    u = np.log1p((a - x) / x)
    gap = _relative_gap(p, u, p * float(np.abs(u).max()))
    gap *= x**p
    return gap


def _perspective_ratio(body, t):
    """pr's ``3 h / f(lower)`` where ``f(upper) <= 2 f(lower)``: ``(chord -
    f(w)) / f(lower)`` as ``(1 - t) D(lower; w) + t D(upper; w)`` over
    ``f(lower)``, a sum of nonnegative Bregman gaps to the tangent at ``w``,
    each ``f(w) φ(p log(a / w))`` (``power._relative_gap``), so nothing
    cancels however close ``t`` is to 0 or 1.  ``log(w / lower)`` is
    ``log1p(t width / lower)`` and ``log(upper / w)`` is ``log(upper /
    lower)`` less it; where that difference cancels, near ``t = 1``, the
    upper gap is second order in it, and its absolute error of a few ``eps
    log(upper / lower)`` does not show in the column."""
    lo, width, p = body.interval.lower, body.interval.width, body.p
    span = math.log1p(width / lo)  # log(upper / lower)
    log_w = t * (width / lo)
    np.log1p(log_w, out=log_w)  # log(w / lower)
    h = _relative_gap(p, span - log_w, p * span)
    h *= t
    g = _relative_gap(p, -log_w, p * span)
    g *= 1.0 - t
    h += g
    log_w *= p
    np.exp(log_w, out=log_w)  # f(w) / f(lower)
    h *= log_w
    return h


def _smooth(body, t, rise, kappa, extended):
    """``(chord - (1 - kappa) f(w)) / unit`` at the offsets ``t``, less
    ``kappa f(lower) (lower/w)**2 / unit`` if ``extended``: ``3 h`` of pr at
    ``kappa = 0``, and of nr and enr at ``kappa = κ``."""
    lo, up, width, p = body.interval.lower, body.interval.upper, body.interval.width, body.p
    if rise is not None:
        if not kappa:
            return _perspective_ratio(body, t)
        # unit f(lower): chord = 1 + t rise, f(w) = 1 + E with E = expm1(p r),
        # (lower/w)**2 = 1 + expm1(-2 r), r = log1p(t width / lower); the
        # constant terms sum to kappa, or to 0 if extended
        r = t * (width / lo)
        np.log1p(r, out=r)
        e = r * p
        np.expm1(e, out=e)
        e *= 1.0 - kappa
        h = t * rise
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


def tangent_columns(p, interval, xi, cuts, rise, unit):
    """plpr's knot table for ``np.interp``: row 0 the offsets, row 1 the
    values of ``3 h / unit``, two knots per piece.  Over piece ``k``, ``3 h /
    unit = A[k] + B[k] t``: ``chord - T`` is affine in ``t`` for the tangent
    ``T`` at ``x_k``, ``A[k] = f(lower) - T(lower)`` at ``t = 0`` and ``A[k]
    + B[k] = f(upper) - T(upper)`` at ``t = 1``, both Bregman gaps, so
    neither cancels.  Knots ``2k`` and ``2k + 1`` are that line at the
    piece's ends, the cut offsets ``cuts[k - 1]`` and ``cuts[k]`` (0 and 1
    at the interval's ends), so each cut offset appears twice and each
    piece keeps its own line up to the rounded cut.  With the unit
    ``f(upper)`` the gaps are taken in ratios to ``upper``, so no term
    exceeds ``p``."""
    ends = np.array([[interval.lower], [interval.upper]])
    if rise is None:
        gaps = _bregman(p, ends / interval.upper, xi / interval.upper, False)
    else:
        gaps = _bregman(p, ends, xi, True) / unit
    gaps[1] -= gaps[0]
    knots = np.empty((2, xi.size, 2))  # offset or value, piece, start or end
    x = knots[0]
    x[0, 0] = 0.0
    x[1:, 0] = cuts
    x[:-1, 1] = cuts
    x[-1, 1] = 1.0
    y = np.multiply(x, gaps[1, :, None], out=knots[1])
    y += gaps[0, :, None]
    return knots.reshape(2, -1)


def moments(p, interval, lower_height, xi, cuts, unit):
    """Rows ``(a, n3, n2, n1, n0)``, one entry per piece ``k``: the offset
    ``a`` of its left vertex and the Horner coefficients of plenr's ``3 h /
    unit = t g - N / (w / width)**2`` with ``N = n0 + d (n1 + d (n2 + d
    n3))``, ``d = t - a``.

    In lengths relative to the width, ``N`` is ``(c/2) (w**2 - lower**2) +
    ∫_lower^w x e dx`` with ``c = f(lower) / unit`` and ``e = 3 (est -
    f(lower)) / unit``, a sum of slopes times piece widths.  On the piece
    of ``x_k``, ``e = e_k + m_k (x - a_k)`` with the tangent's slope
    ``m_k``, so ``n1 = x_k (e_k + c)``, ``n2 = (e_k + m_k x_k + c) / 2`` and
    ``n3 = m_k / 3`` at the vertex ``x_k``, and ``n0`` carries ``N`` from
    piece to piece.  Every coefficient is nonnegative."""
    lo, width = interval.lower, interval.width
    c = lower_height / unit
    out = np.empty((5, xi.size))
    a, n3, n2, n1, n0 = out
    a[0] = 0.0
    a[1:] = cuts
    da = np.append(cuts, 1.0)
    da -= a  # each piece's width
    x = a + lo / width
    slope = xi ** (p - 1.0) * (width / unit) * (3.0 * p)  # no overflow: <= 3 p
    e = n3  # n3's row holds e until n3 is due
    e[0] = 0.0
    np.cumsum(slope[:-1] * da[:-1], out=e[1:])
    e += c
    np.multiply(x, e, out=n1)
    x *= slope
    x += e
    np.multiply(x, 0.5, out=n2)
    np.divide(slope, 3.0, out=n3)
    gain = da * n3
    gain += n2
    gain *= da
    gain += n1
    gain *= da  # N over each whole piece
    n0[0] = 0.0
    np.cumsum(gain[:-1], out=n0[1:])
    return out


def _plenr(body, t, k, g):
    """``3 h / unit`` of plenr, ``t g - N / (w / width)**2`` (see
    :func:`moments`), with ``g = (f(upper) - f(lower)) / unit`` and ``k``
    each column's piece."""
    a, n3, n2, n1, n0 = body.columns
    v = t + body.interval.lower / body.interval.width  # w / width
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
    column's length ``h(w)`` in it as ``3 h / body.unit``, clipped at 0
    against rounding, in the shape of ``t``.  ``t`` may have any shape and
    order.  plpr's columns are one ``np.interp`` over the body's knot
    table, and plenr finds each column's piece by ``np.searchsorted``
    among the cut offsets; at a cut offset both take the next piece.  Both
    searches run fastest on rows of increasing offsets, the layout
    ``mc.mc_volume`` draws.

    The body's volume is ``width`` times the mean of ``h(w)`` over ``w``
    uniform on ``[lower, upper]``.
    """
    kind, rise = body.kind, body.rise
    if kind is RelaxationKind.PL_PR:
        # np.interp takes the last knot at or below t: at a cut offset, the
        # start of the next piece, and never a zero-length segment between
        # a cut's two knots
        h = np.interp(t, *body.columns)
    elif kind is RelaxationKind.PL_E_NR:
        # piece k holds the offsets from cuts[k - 1] up to cuts[k]
        k = np.searchsorted(body.cuts, t, side="right")
        # (f(upper) - f(lower)) / unit; 1 - f(lower)/f(upper) >= 1/2 does not cancel
        h = _plenr(body, t, k, 1.0 - body.lower_height / body.unit if rise is None else rise)
    else:
        kappa = 0.0 if kind is RelaxationKind.PR else (body.p - 1.0) / (body.p + 2.0)
        h = _smooth(body, t, rise, kappa, kind is RelaxationKind.E_NR)
    # fmax, unlike maximum, also sends plenr's 0/0 at the apex to 0
    np.fmax(h, 0.0, out=h)
    return int(np.count_nonzero(h)), h
