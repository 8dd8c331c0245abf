"""Piecewise-linear under-estimation of convex univariate functions.

Given a positive convex ``f`` on ``[lower, upper]`` and breakpoints
``xi_0 = lower < xi_1 < ... < xi_n = upper``, the tangent lines of ``f`` at
the breakpoints envelope a convex piecewise-linear under-estimator ``g``.
The vertices of the graph of ``g`` are the interval endpoints together with
the intersection points of adjacent tangents.

The perspective relaxation built from ``g`` is a pyramid with apex at the
origin and base equal to the region between ``g`` and the secant of ``f``
in the plane of on-states.  Its volume is a third of the base area, which a
fan triangulation rooted at the left endpoint delivers in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateTangents, DomainError

# Relative separation below which two tangent slopes count as parallel.
# Strict convexity separates them analytically; floating point needs a guard.
_SLOPE_GAP_RTOL = 1e-12

_CHEBYSHEV_NODES = 64


@dataclass(frozen=True)
class Interval:
    """Operating range ``[lower, upper]`` with ``0 <= lower < upper``."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise DomainError("interval endpoints must be finite")
        if not 0.0 <= self.lower < self.upper:
            raise DomainError(
                f"need 0 <= lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class Breakpoints:
    """Linearization abscissae pinned to the interval endpoints.

    ``xi`` has length ``n + 1``, starts at ``interval.lower``, ends at
    ``interval.upper`` and is strictly increasing.  ``n >= 1`` linear pieces.
    """

    interval: Interval
    xi: np.ndarray

    def __post_init__(self) -> None:
        xi = np.array(self.xi, dtype=float)
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        if xi.ndim != 1 or xi.size < 2:
            raise DomainError("need at least two breakpoints")
        if xi[0] != self.interval.lower or xi[-1] != self.interval.upper:
            raise DomainError("first/last breakpoint must equal the interval endpoints")
        if not (np.diff(xi) > 0.0).all():
            raise DomainError("breakpoints must be strictly increasing")

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
        return cls(interval, np.linspace(interval.lower, interval.upper, n + 1))

    @classmethod
    def from_interior(cls, interval: Interval, interior) -> "Breakpoints":
        interior = np.asarray(interior, dtype=float).ravel()
        return cls(
            interval,
            np.concatenate(([interval.lower], interior, [interval.upper])),
        )

    def with_point(self, x: float) -> "Breakpoints":
        """A refined copy with one extra breakpoint inserted at ``x``."""
        return Breakpoints(self.interval, np.sort(np.append(self.xi, float(x))))


@dataclass(frozen=True, eq=False)
class ConvexFunction:
    """Black-box convex function with derivative access on an interval.

    Positivity is spot-checked at 64 interior Chebyshev nodes at
    construction time; convexity itself is the caller's contract and is
    only probed through increasing derivatives at the breakpoints in use.
    """

    fn: Callable[[float], float]
    deriv: Callable[[float], float]
    interval: Interval

    def __post_init__(self) -> None:
        mid = 0.5 * (self.interval.lower + self.interval.upper)
        half = 0.5 * self.interval.width
        theta = (2.0 * np.arange(1, _CHEBYSHEV_NODES + 1) - 1.0) * (
            np.pi / (2.0 * _CHEBYSHEV_NODES)
        )
        for x in mid + half * np.cos(theta):
            if not float(self.fn(float(x))) > 0.0:
                raise DomainError(f"function must be positive on the interval, f({x}) <= 0")


@dataclass(frozen=True, eq=False)
class PLUnderEstimator:
    """Graph vertices of the piecewise-linear under-estimator.

    ``x`` has length ``n + 2``: the interval endpoints plus the ``n``
    tangent-intersection abscissae, strictly increasing.  ``y`` holds the
    matching ordinates; between consecutive vertices the function is the
    connecting chord.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or x.size < 3 or x.shape != y.shape:
            raise DomainError("need matching vertex vectors of length >= 3")
        if not (np.diff(x) > 0.0).all():
            raise DomainError("vertex abscissae must be strictly increasing")

    @property
    def n(self) -> int:
        """Number of tangency points that produced this estimator."""
        return self.x.size - 2

    @property
    def interval(self) -> Interval:
        return Interval(float(self.x[0]), float(self.x[-1]))

    @property
    def secant_slope(self) -> float:
        """Slope of the chord joining the endpoint vertices."""
        return float((self.y[-1] - self.y[0]) / (self.x[-1] - self.x[0]))

    def __call__(self, w):
        """Evaluate the piecewise-linear function at ``w`` (scalar or array)."""
        w = np.asarray(w, dtype=float)
        k = np.clip(np.searchsorted(self.x, w, side="right") - 1, 0, self.x.size - 2)
        slope = (self.y[k + 1] - self.y[k]) / (self.x[k + 1] - self.x[k])
        out = self.y[k] + slope * (w - self.x[k])
        return float(out) if out.ndim == 0 else out


def build_underestimator(f: ConvexFunction, bp: Breakpoints) -> PLUnderEstimator:
    """Intersect adjacent tangents of ``f`` taken at the breakpoints.

    Each interior vertex sits where tangent ``i-1`` meets tangent ``i``;
    its abscissa always lies strictly between the two tangency points.
    Raises :class:`DegenerateTangents` when adjacent derivative values
    (nearly) coincide and :class:`DomainError` when the derivative fails to
    increase across the breakpoints or the intervals disagree.
    """
    if f.interval != bp.interval:
        raise DomainError("function and breakpoints cover different intervals")
    xi = bp.xi
    fx = np.array([float(f.fn(float(t))) for t in xi])
    dfx = np.array([float(f.deriv(float(t))) for t in xi])
    gaps = np.diff(dfx)
    # relative to the slope itself, so the guard is invariant under x -> c x;
    # ``<=`` keeps two slopes that both underflow to 0 degenerate
    tol = _SLOPE_GAP_RTOL * np.abs(dfx[1:])
    if (np.abs(gaps) <= tol).any():
        raise DegenerateTangents("adjacent tangent slopes coincide within tolerance")
    if (gaps <= 0.0).any():
        raise DomainError("derivative must be strictly increasing at the breakpoints")

    intercept = fx - dfx * xi
    cuts = (intercept[1:] - intercept[:-1]) / (dfx[:-1] - dfx[1:])
    x = np.concatenate(([xi[0]], cuts, [xi[-1]]))
    y = np.concatenate(([fx[0]], fx[1:] + dfx[1:] * (cuts - xi[1:]), [fx[-1]]))
    if not ((xi[:-1] < cuts) & (cuts < xi[1:])).all():
        raise DegenerateTangents("tangent intersections escaped their breakpoint brackets")
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
