"""Closed-form volume analytics for power functions ``x**p`` with ``p > 1``.

Everything here evaluates in O(n) for n linearization pieces: the exact
volume of the perspective relaxation of the tangent under-estimator, its
gradient and tridiagonal Hessian in the interior breakpoints, the
stationarity residual driving Newton's method, the quadratic special cases,
and the lighter naive-relaxation variants obtained by extending the
function linearly down to the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTangents, DomainError, HypothesisViolated
from .underestimator import (
    Breakpoints,
    ConvexFunction,
    Interval,
    build_underestimator,
)

# Exponents this close to 2 are routed through the exact quadratic formulas.
_QUADRATIC_EPS = 1e-12

_MIN_P = 1.0 + 1e-9


def _pow(x, q):
    """``x**q`` with ``0**q := 0`` for q > 0 and ``x**0 := 1``.

    The zero short-circuit is the continuous extension used by every
    formula in this module when the interval starts at zero.  Callers must
    not pass ``x == 0`` with ``q < 0``; those limits are handled explicitly
    where they occur.
    """
    if q == 0.0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if isinstance(x, np.ndarray):
        out = np.zeros_like(x)
        nz = x != 0.0
        out[nz] = x[nz] ** q
        return out
    return 0.0 if x == 0.0 else x**q


class RelaxationKind(Enum):
    """The five relaxations of the on/off disjunction compared here."""

    NR = "nr"  # naive relaxation of f
    PR = "pr"  # perspective relaxation of f
    PL_PR = "plpr"  # perspective relaxation of the PL under-estimator
    E_NR = "enr"  # extend f linearly to the origin, then naive
    PL_E_NR = "plenr"  # PL under-estimate, extend to the origin, then naive

    @classmethod
    def from_tag(cls, tag: str) -> "RelaxationKind":
        try:
            return cls(tag)
        except ValueError:
            raise DomainError(
                f"unknown relaxation {tag!r}, expected one of "
                f"{[k.value for k in cls]}"
            ) from None


@dataclass(frozen=True)
class PowerFn:
    """``f(x) = x**p`` on an interval, ``p > 1`` with a safety margin."""

    p: float
    interval: Interval

    def __post_init__(self) -> None:
        if not self.p >= _MIN_P:
            raise DomainError(f"exponent must be at least {_MIN_P}, got {self.p}")

    def __call__(self, x):
        return _pow(x, self.p)

    def deriv(self, x):
        return self.p * _pow(x, self.p - 1.0)

    def oracle(self) -> ConvexFunction:
        """Black-box view of this function for the under-estimator builder."""
        return ConvexFunction(
            fn=lambda t: _pow(t, self.p),
            deriv=lambda t: self.p * _pow(t, self.p - 1.0),
            interval=self.interval,
        )


def volume_quadratic(bp: Breakpoints) -> float:
    """Exact volume of the PL perspective relaxation for ``f(x) = x**2``."""
    xi = bp.xi
    lo, up = xi[0], xi[-1]
    s = float((xi[1:] * xi[:-1] * (xi[:-1] - xi[1:])).sum())
    return (s + up**3 - 2.0 * up * up * lo + 2.0 * up * lo * lo - lo**3) / 12.0


def volume_power_closed_form(pf: PowerFn, bp: Breakpoints) -> float:
    """Exact volume of the PL perspective relaxation for ``x**p``.

    Agrees with the fan-triangulation volume of the corresponding
    under-estimator; this form never constructs the tangent vertices.
    """
    if pf.interval != bp.interval:
        raise DomainError("breakpoints cover a different interval than the function")
    p = pf.p
    if abs(p - 2.0) < _QUADRATIC_EPS:
        return volume_quadratic(bp)
    xi = bp.xi
    lo, up = xi[0], xi[-1]
    a, b = xi[:-1], xi[1:]
    table = _power_table(xi[None, :], np.array([p]))
    if _flat_slopes(table)[0]:
        raise DegenerateTangents(_FLAT_SLOPES)
    am, bm = table[1, 0, :-1], table[1, 0, 1:]
    s = float((am * bm * (b - a) ** 2 / (bm - am)).sum())
    return (
        -((p - 1.0) ** 2) / (6.0 * p) * s
        + (p - 1.0) / (6.0 * p) * (_pow(up, p + 1.0) - _pow(lo, p + 1.0))
        - (_pow(up, p) * lo - up * _pow(lo, p)) / 6.0
    )


def _power_table(xi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``xi**p``, ``xi**(p-1)`` and ``xi**(p-2)``, one exponent per row of ``xi``.

    Returns shape ``(3,) + xi.shape``.  Each entry comes from a power of one
    contiguous row by a scalar exponent, the operation :func:`_pow` performs.
    numpy takes exact shortcuts (``x*x``, ``sqrt``) for some scalar
    exponents that a broadcast exponent array skips, so a row's table must
    not depend on the rows batched with it.  Breakpoints increase from
    ``lower >= 0``, so only column 0 can be zero; it follows ``_pow``'s
    ``0**q := 0`` convention.
    """
    table = np.empty((3,) + xi.shape)
    exps = p - np.array([[0.0], [1.0], [2.0]])  # p, p - 1, p - 2 per row
    with np.errstate(divide="ignore"):  # 0**q for q < 0, replaced below
        for j, row_exps in enumerate(exps.tolist()):
            for k, q in enumerate(row_exps):
                np.power(xi[k], q, out=table[j, k])
    table[:, :, 0][(xi[:, 0] == 0.0) & (exps != 0.0)] = 0.0
    return table


_FLAT_SLOPES = "adjacent tangent slopes coincide: x**(p-1) rounds equal at neighbouring breakpoints"


def _flat_slopes(table: np.ndarray) -> np.ndarray:
    """Per row of a :func:`_power_table`: does ``x**(p-1)`` fail to increase
    between some pair of neighbouring breakpoints?

    The two tangents of such a pair have equal slopes in float64, so every
    tangent-pair formula here would divide by zero on that row.
    """
    xp1 = table[1]
    return (xp1[:, 1:] <= xp1[:, :-1]).any(axis=1)


class _Stationarity(NamedTuple):
    residual: np.ndarray
    t_up: np.ndarray
    t_dn: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    s_lo: np.ndarray
    jac_diag: np.ndarray


def _stationarity(xi: np.ndarray, p: np.ndarray, table: np.ndarray) -> _Stationarity:
    """Stationarity residual and the terms of its derivatives, row by row.

    ``xi`` holds one set of at least three breakpoints per row, ``p`` one
    exponent per row and ``table`` their :func:`_power_table`, whose rows
    :func:`_flat_slopes` must have passed.  Entry k of each band belongs to
    interior point k; the Newton Jacobian's sub- and super-diagonal are
    ``d_lo[:, 1:]`` and ``d_hi[:, :-1]``.  Every entry is elementwise in its
    row, so a batched row equals the row alone.
    """
    pc = p[:, None]
    q = pc - 1.0
    lo, mid, hi = xi[:, :-2], xi[:, 1:-1], xi[:, 2:]
    xp, xp1, xp2 = table
    lo_p, mid_p, hi_p = xp[:, :-2], xp[:, 1:-1], xp[:, 2:]
    lo_p1, mid_p1, hi_p1 = xp1[:, :-2], xp1[:, 1:-1], xp1[:, 2:]
    lo_p2, hi_p2 = xp2[:, :-2], xp2[:, 2:]

    # positive factors tied to the tangent pairs (mid, hi) and (lo, mid)
    t_up = (mid_p + q * hi_p - pc * mid * hi_p1) / (hi_p1 - mid_p1)
    t_dn = (mid_p + q * lo_p - pc * mid * lo_p1) / (mid_p1 - lo_p1)
    residual = t_dn - t_up

    # derivatives of the residual at mid w.r.t. each neighbor; s_lo is lo
    # times the one at lo, which stays finite at lo == 0
    num_hi = q * mid_p + hi_p - pc * mid_p1 * hi
    d_hi = -q * hi_p2 * num_hi / (mid_p1 - hi_p1) ** 2
    num_lo = q * mid_p + lo_p - pc * mid_p1 * lo
    den_lo = (mid_p1 - lo_p1) ** 2
    d_lo = -q * lo_p2 * num_lo / den_lo
    s_lo = -q * lo_p1 * num_lo / den_lo
    jac_diag = (residual - s_lo - hi * d_hi) / mid
    return _Stationarity(residual, t_up, t_dn, d_lo, d_hi, s_lo, jac_diag)


@dataclass(frozen=True, eq=False)
class GradientSystem:
    """First- and second-order data of the volume at fixed breakpoints.

    ``residual`` is the rescaled stationarity system whose unique zero is
    the optimal placement; it vanishes exactly where ``grad`` does.  The
    Hessian of the volume in the interior breakpoints is the symmetric
    tridiagonal matrix with diagonal ``hess_diag`` and off-diagonal
    ``-hess_offdiag``; the Newton Jacobian of ``residual`` is the separate
    (non-symmetric) tridiagonal held in ``jac_sub/jac_diag/jac_sup``.
    """

    p: float
    xi: np.ndarray
    residual: np.ndarray  # stationarity system, one entry per interior point
    grad: np.ndarray  # partial volume derivatives, same layout
    hess_diag: np.ndarray
    hess_offdiag: np.ndarray  # positive couplings; Hessian entries are negated
    coupling: np.ndarray  # couplings of all n adjacent pairs, boundary included
    jac_sub: np.ndarray
    jac_diag: np.ndarray
    jac_sup: np.ndarray

    @property
    def b0(self) -> float:
        """Boundary coupling of the leftmost pair (may be ``inf`` at lower == 0)."""
        return float(self.coupling[0])

    def hessian(self) -> np.ndarray:
        m = self.hess_diag.size
        h = np.zeros((m, m))
        h[np.arange(m), np.arange(m)] = self.hess_diag
        if m > 1:
            k = np.arange(m - 1)
            h[k, k + 1] = h[k + 1, k] = -self.hess_offdiag
        return h

    def jacobian(self) -> np.ndarray:
        m = self.jac_diag.size
        j = np.zeros((m, m))
        j[np.arange(m), np.arange(m)] = self.jac_diag
        if m > 1:
            k = np.arange(m - 1)
            j[k, k + 1] = self.jac_sup
            j[k + 1, k] = self.jac_sub
        return j


def gradient_system(pf: PowerFn, bp: Breakpoints) -> GradientSystem:
    """Assemble residual, gradient, Hessian and Newton Jacobian at ``bp``.

    Needs at least one interior breakpoint.  All entries are evaluated with
    the ``0**q := 0`` convention so intervals starting at zero work for
    every ``p > 1``.
    """
    if pf.interval != bp.interval:
        raise DomainError("breakpoints cover a different interval than the function")
    if bp.n < 2:
        raise DomainError("need at least one interior breakpoint")
    p = float(pf.p)
    xi = bp.xi
    mid, hi = xi[1:-1], xi[2:]

    batch, ps = xi[None, :], np.array([p])
    table = _power_table(batch, ps)
    if _flat_slopes(table)[0]:
        raise DegenerateTangents(_FLAT_SLOPES)
    st = _stationarity(batch, ps, table)
    residual, t_up, t_dn = st.residual[0], st.t_up[0], st.t_dn[0]
    grad = -(p - 1.0) * table[2, 0, 1:-1] / (6.0 * p) * (t_up**2 - t_dn**2)

    # The Hessian coupling of a tangent pair, n1 * n2 / den up to a factor,
    # is w times a product of stationarity terms at an interior point k:
    # t_dn * -d_lo for the pair left of k, t_up * -d_hi at the last k for the
    # last pair.  (x_{k-1}/x_k) times the left coupling is w * t_dn * -s_lo
    # / x_k, which stays finite at lower == 0.
    w = (p - 1.0) / (3.0 * p) * table[2, 0, 1:-1]
    coupling = np.append(w * t_dn * -st.d_lo[0], w[-1] * t_up[-1] * -st.d_hi[0, -1])
    if xi[0] == 0.0 and p < 2.0:
        coupling[0] = math.inf  # the lo -> 0 limit diverges; only its scaled product is used
    prev_scaled = w * t_dn * -st.s_lo[0] / mid
    hess_diag = (p / mid) * grad + prev_scaled + (hi / mid) * coupling[1:]
    hess_offdiag = coupling[1:-1].copy()
    jac_sub, jac_diag, jac_sup = st.d_lo[0, 1:], st.jac_diag[0], st.d_hi[0, :-1]

    return GradientSystem(
        p=p,
        xi=xi,
        residual=residual,
        grad=grad,
        hess_diag=hess_diag,
        hess_offdiag=hess_offdiag,
        coupling=coupling,
        jac_sub=jac_sub,
        jac_diag=jac_diag,
        jac_sup=jac_sup,
    )


def bordered_hessian_eigs(pf: PowerFn, bp: Breakpoints) -> np.ndarray:
    """Ascending eigenvalues of the gradient-bordered Hessian.

    The quasiconvexity certificate asks this matrix to have exactly one
    negative eigenvalue wherever the gradient is nonzero.  Undefined at
    stationary points (zero border) and for fewer than two interior
    breakpoints; both raise :class:`DomainError`.
    """
    if bp.n < 3:
        raise DomainError("bordered test needs at least two interior breakpoints")
    sys = gradient_system(pf, bp)
    scale = max(1.0, bp.interval.upper) ** pf.p
    if np.abs(sys.grad).max() <= 1e-11 * scale:
        raise DomainError("gradient vanishes here; the bordered test does not apply")
    m = sys.grad.size
    b = np.zeros((m + 1, m + 1))
    b[:m, :m] = sys.hessian()
    b[:m, m] = b[m, :m] = sys.grad
    return np.linalg.eigvalsh(b)


def volume_naive_quadratic(iv: Interval) -> float:
    """Volume of the naive relaxation of ``x**2`` on the interval."""
    w = iv.width
    return w**3 / 18.0 + (iv.upper**3 - iv.lower**3) / 36.0


def volume_perspective_quadratic(iv: Interval) -> float:
    """Volume of the exact perspective relaxation of ``x**2``."""
    return iv.width**3 / 18.0


def volume_extended_naive_quadratic(iv: Interval) -> float:
    """Naive-relaxation volume of ``x**2`` linearly extended to the origin."""
    lo, up = iv.lower, iv.upper
    return (up - lo) ** 2 * (up * up + lo * lo) / (12.0 * up)


def volume_pl_extended_naive(f: ConvexFunction, bp: Breakpoints) -> float:
    """Naive-relaxation volume of the PL under-estimator extended to zero.

    Requires ``f`` increasing with its slope at the left endpoint at least
    the chord slope from the origin, so the extension stays convex;
    violations raise :class:`HypothesisViolated`.  At ``lower == 0`` no
    extension is needed and the formula applies as is.  O(n).
    """
    est = build_underestimator(f, bp)
    xi = bp.xi
    lo, up = float(xi[0]), float(xi[-1])
    f_lo, f_up = float(f.fn(lo)), float(f.fn(up))
    d = np.array([float(f.deriv(float(t))) for t in xi])
    if d[0] < -1e-12:
        raise HypothesisViolated("function must be increasing on the interval")
    if lo > 0.0 and d[0] < f_lo / lo - 1e-12:
        raise HypothesisViolated(
            "slope at the left endpoint must be at least the chord slope from the origin"
        )
    t = est.x
    s = float(
        (((t[1:] ** 2 - t[:-1] ** 2) / 2.0 - (t[1:] ** 3 - t[:-1] ** 3) / (6.0 * up)) * d).sum()
    )
    return (
        s
        - (up + 2.0 * lo) / 6.0 * (f_up - f_lo)
        - (up - lo) / (6.0 * up) * (up * f_up - lo * f_lo)
    )


def closed_form_volume(
    kind: RelaxationKind, pf: PowerFn, bp: Breakpoints | None
) -> float | None:
    """Exact volume of relaxation ``kind`` of ``pf``, or ``None`` without one.

    The piecewise-linear kinds need breakpoints and have closed forms at
    every exponent; ``nr``, ``pr`` and ``enr`` take none and have closed
    forms at ``p = 2`` only.
    """
    if kind is RelaxationKind.PL_PR:
        return volume_power_closed_form(pf, bp)
    if kind is RelaxationKind.PL_E_NR:
        return volume_pl_extended_naive(pf.oracle(), bp)
    if abs(pf.p - 2.0) >= _QUADRATIC_EPS:
        return None
    if kind is RelaxationKind.NR:
        return volume_naive_quadratic(pf.interval)
    if kind is RelaxationKind.PR:
        return volume_perspective_quadratic(pf.interval)
    return volume_extended_naive_quadratic(pf.interval)


def refinement_thresholds(iv: Interval, gap: float) -> tuple[int, int, float]:
    """Piece counts making the PL variants come within ``gap`` of their limits.

    Returns ``(n1, n2, ratio)``: the least piece counts for which the
    equally-spaced quadratic PL+E+NR (resp. PL+PR) volume exceeds its
    n-to-infinity limit by less than ``gap``, and the exact real ratio of
    the two bounds, ``sqrt(1.5 * (1 - lower/upper))``, which never exceeds
    ``sqrt(1.5)``.
    """
    if not gap > 0.0:
        raise DomainError("gap must be positive")
    w, up = iv.width, iv.upper
    bound_naive = w * w / math.sqrt(24.0 * up * gap)
    bound_persp = math.sqrt(w**3 / gap) / 6.0
    # least integers strictly above the bounds, exact-integer bounds bump up
    n1 = int(math.floor(bound_naive)) + 1
    n2 = int(math.floor(bound_persp)) + 1
    ratio = math.sqrt(1.5 * (1.0 - iv.lower / up))
    return n1, n2, ratio


@dataclass(frozen=True)
class PowerCurvatureTerms:
    """Auxiliary scalar terms whose signs certify the curvature analysis.

    Every term vanishes at ``x == 1``.  ``tangent_excess`` and
    ``envelope_excess`` are positive for ``x != 1``; ``curvature_gap`` and
    ``slope_mean_gap`` flip sign at ``p == 2``; ``log_weighted_gap`` stays
    positive.  Consumed by property tests only.
    """

    tangent_excess: float
    envelope_excess: float
    curvature_gap: float
    slope_mean_gap: float
    log_weighted_gap: float


def power_curvature_terms(p: float, x: float) -> PowerCurvatureTerms:
    if not p > 1.0:
        raise DomainError("need p > 1")
    if not x > 0.0:
        raise DomainError("need x > 0")
    xp = x**p
    xp1 = x ** (p - 1.0)
    return PowerCurvatureTerms(
        tangent_excess=xp + (p - 1.0) - p * x,
        envelope_excess=(p - 1.0) * xp + 1.0 - p * xp1,
        curvature_gap=(p - 2.0) * (xp - 1.0) - p * (xp1 - x),
        slope_mean_gap=(xp1 - 1.0) ** 2 - (p - 1.0) ** 2 * x ** (p - 2.0) * (x - 1.0) ** 2,
        log_weighted_gap=p * (p - 1.0) * (1.0 - x) * xp1 * math.log(x)
        + (xp1 - 1.0) * (xp - 1.0),
    )
