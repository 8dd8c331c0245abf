"""Piecewise-linear under-estimation of convex univariate functions.

Given a positive convex ``f`` on ``[lower, upper]`` and breakpoints
``xi_0 = lower < xi_1 < ... < xi_n = upper``, the tangent lines of ``f`` at
the breakpoints envelope a convex piecewise-linear under-estimator ``g``.
The vertices of the graph of ``g`` are the interval endpoints together with
the meeting points of adjacent tangents, by :meth:`ConvexFunction._cuts`.

The perspective relaxation built from ``g`` is a pyramid with apex at the
origin and base equal to the region between ``g`` and the secant of ``f``
in the plane of on-states.  Its volume is a third of the base area, which a
fan triangulation rooted at the left endpoint delivers in linear time.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateTangents, DomainError

_CHEBYSHEV_NODES = 64


def _validated_make(cls, iterable):
    """namedtuple's ``_make`` through the validating ``__new__``, so that
    ``_make`` and ``_replace`` check what the constructor checks."""
    return cls(*iterable)


def _equal_spacing(interval: Interval, n: int) -> np.ndarray:
    """``np.linspace(lower, upper, n + 1)`` by its own arithmetic, ``i *
    (width / n) + lower`` with ``upper`` last, so bit for bit the same
    wherever the step ``width / n`` does not underflow to 0 (and there
    neither is strictly increasing).  A fresh writable array."""
    xi = np.arange(n + 1.0)
    xi *= interval.width / n
    xi += interval.lower
    xi[-1] = interval.upper
    return xi


class Interval(NamedTuple("Interval", [("lower", float), ("upper", float)])):
    """Operating range ``[lower, upper]`` with ``0 <= lower < upper``."""

    __slots__ = ()

    def __new__(cls, lower: float, upper: float):
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise DomainError("interval endpoints must be finite")
        if not 0.0 <= lower < upper:
            raise DomainError(f"need 0 <= lower < upper, got [{lower}, {upper}]")
        return super().__new__(cls, lower, upper)

    _make = classmethod(_validated_make)

    @property
    def width(self) -> float:
        return self.upper - self.lower


class Breakpoints(NamedTuple("Breakpoints", [("interval", Interval), ("xi", np.ndarray)])):
    """Linearization abscissae pinned to the interval endpoints.

    ``xi`` has length ``n + 1``, starts at ``interval.lower``, ends at
    ``interval.upper`` and is strictly increasing.  ``n >= 1`` linear pieces.
    ``xi`` is a read-only copy.  Equal only to itself.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, interval: Interval, xi):
        xi = np.array(xi, dtype=float)
        xi.setflags(write=False)
        if xi.ndim != 1 or xi.size < 2:
            raise DomainError("need at least two breakpoints")
        if xi[0] != interval.lower or xi[-1] != interval.upper:
            raise DomainError("first/last breakpoint must equal the interval endpoints")
        if not (xi[1:] > xi[:-1]).all():
            raise DomainError("breakpoints must be strictly increasing")
        return super().__new__(cls, interval, xi)

    _make = classmethod(_validated_make)

    @property
    def n(self) -> int:
        """Number of linear pieces (one less than the breakpoint count)."""
        return self.xi.size - 1

    @property
    def interior(self) -> np.ndarray:
        return self.xi[1:-1]

    @classmethod
    def equally_spaced(cls, interval: Interval, n: int) -> "Breakpoints":
        if n < 1:
            raise DomainError("need n >= 1 pieces")
        return cls(interval, _equal_spacing(interval, n))

    @classmethod
    def from_interior(cls, interval: Interval, interior) -> "Breakpoints":
        interior = np.asarray(interior, dtype=float).ravel()
        return cls(
            interval,
            np.concatenate(([interval.lower], interior, [interval.upper])),
        )


class ConvexFunction(
    NamedTuple(
        "ConvexFunction",
        [
            ("fn", Callable[[float], float]),
            ("deriv", Callable[[float], float]),
            ("interval", Interval),
        ],
    )
):
    """Black-box convex function with derivative access on an interval.

    Positivity is spot-checked at 64 interior Chebyshev nodes at
    construction time; convexity itself is the caller's contract and is
    only probed by :meth:`_cuts`.  ``PowerFn.oracle()`` subclasses it.
    Equal only to itself.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, fn: Callable[[float], float], deriv: Callable[[float], float],
                interval: Interval):
        mid = 0.5 * (interval.lower + interval.upper)
        half = 0.5 * interval.width
        theta = (2.0 * np.arange(1, _CHEBYSHEV_NODES + 1) - 1.0) * (
            np.pi / (2.0 * _CHEBYSHEV_NODES)
        )
        for x in mid + half * np.cos(theta):
            if not float(fn(float(x))) > 0.0:
                raise DomainError(f"function must be positive on the interval, f({x}) <= 0")
        return super().__new__(cls, fn, deriv, interval)

    _make = classmethod(_validated_make)

    def _values(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(f(xi), f'(xi))``, one call of ``fn`` and ``deriv`` per point."""
        fx = np.array([float(self.fn(float(t))) for t in xi])
        dfx = np.array([float(self.deriv(float(t))) for t in xi])
        return fx, dfx

    def _cuts(self, xi: np.ndarray, fx: np.ndarray, dfx: np.ndarray) -> np.ndarray:
        """Where the tangents at adjacent ``xi`` meet, from ``fx = f(xi)`` and
        ``dfx = f'(xi)``: the intercepts' difference over the slopes'.  Raises
        DomainError on falling slopes.  Equal ones give a cut that is not
        finite, which the caller's bracket check (:func:`_check_brackets`)
        reports as DegenerateTangents: a pair is degenerate exactly when
        ``D(a; b) + D(b; a) = (f'(b) - f'(a)) (b - a)``, the sum of its two
        Bregman gaps, is not positive."""
        if (np.diff(dfx) < 0.0).any():
            raise DomainError("derivative must be strictly increasing at the breakpoints")
        intercept = fx - dfx * xi
        with np.errstate(divide="ignore", invalid="ignore"):
            return (intercept[1:] - intercept[:-1]) / (dfx[:-1] - dfx[1:])


class PLUnderEstimator(NamedTuple("PLUnderEstimator", [("x", np.ndarray), ("y", np.ndarray)])):
    """Graph vertices of the piecewise-linear under-estimator.

    ``x`` has length ``n + 2``: the interval endpoints plus the ``n``
    tangent-intersection abscissae, strictly increasing.  ``y`` holds the
    matching ordinates; between consecutive vertices the function is the
    connecting chord, so ``np.interp(w, x, y)`` evaluates it on ``[x[0],
    x[-1]]``.  Both are read-only copies.  Equal only to itself.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, x, y):
        x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        x.setflags(write=False)
        y.setflags(write=False)
        if x.ndim != 1 or x.size < 3 or x.shape != y.shape:
            raise DomainError("need matching vertex vectors of length >= 3")
        if not (np.diff(x) > 0.0).all():
            raise DomainError("vertex abscissae must be strictly increasing")
        return super().__new__(cls, x, y)

    _make = classmethod(_validated_make)


def _check_brackets(xi: np.ndarray, cuts: np.ndarray) -> None:
    """Raise :class:`DegenerateTangents` unless each cut lies strictly
    between its two tangency points, ``xi[k] < cuts[k] < xi[k+1]``."""
    if not ((xi[:-1] < cuts) & (cuts < xi[1:])).all():
        raise DegenerateTangents("tangent intersections escaped their breakpoint brackets")


def build_underestimator(f: ConvexFunction, bp: Breakpoints) -> PLUnderEstimator:
    """Intersect adjacent tangents of ``f`` at the breakpoints by ``f``'s rule
    (:meth:`ConvexFunction._cuts`).  Raises :class:`DegenerateTangents` unless
    each vertex lies strictly between its two tangency points, and
    :class:`DomainError` without breakpoints or when the intervals
    disagree."""
    if bp is None:
        raise DomainError("the tangent under-estimator needs breakpoints")
    if f.interval != bp.interval:
        raise DomainError("function and breakpoints cover different intervals")
    xi = bp.xi
    fx, dfx = f._values(xi)
    cuts = f._cuts(xi, fx, dfx)
    _check_brackets(xi, cuts)
    x = np.concatenate(([xi[0]], cuts, [xi[-1]]))
    y = np.concatenate(([fx[0]], fx[1:] + dfx[1:] * (cuts - xi[1:]), [fx[-1]]))
    return PLUnderEstimator(x, y)


def fan_triangle_areas(est: PLUnderEstimator) -> np.ndarray:
    """Areas of the fan triangles rooted at the left endpoint vertex.

    The 3x3 vertex determinants are expanded with the root vertex
    translated to the origin, which avoids cancellation when the interval
    sits far from zero.  Absolute values guard near-collinear vertices.
    """
    x, y = est.x, est.y
    det = (x[1:-1] - x[0]) * (y[2:] - y[0]) - (x[2:] - x[0]) * (y[1:-1] - y[0])
    return 0.5 * np.abs(det)


def volume_pl_perspective(est: PLUnderEstimator) -> float:
    """Volume of the perspective relaxation of the under-estimator.

    The body is a pyramid of unit height over the polygon spanned by the
    estimator's vertices, so the volume is a third of the fan-triangulated
    base area.  Linear in the number of pieces.
    """
    return float(fan_triangle_areas(est).sum() / 3.0)
