"""Optimal placement of linearization points.

The unique minimizer is the zero of a tridiagonal stationarity system,
found by a Newton iteration that is provably monotone from the
equally-spaced start: coordinates only move down for ``1 < p < 2`` and only
up for ``p > 2``.  A run stops once its residual is within its rounding
floor.  For quadratics that start is the closed-form optimum, within the
floor, so Newton stops there.
This module also provides the analytic bracket for a single interior point,
the normalized bracket width as a function of the exponent, and exponent
sweeps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    MaxIterExceeded,
    MonotonicityViolated,
    SingularJacobian,
)
from .power import (
    PowerFn,
    _stationarity,
    _tangent_cuts,
    gradient_system,  # re-exported; nothing in this module calls it
    volume_quadratic,
)
from .underestimator import Breakpoints, Interval, _equal_spacing

_MAX_ITER = 200
_NEED_INTERIOR = "optimization needs at least one interior point (n >= 2)"


def optimize_quadratic(iv: Interval, n: int) -> tuple[Breakpoints, float]:
    """Unique volume-minimizing breakpoints for ``x**2``: equal spacing.

    Returns the breakpoints and the minimum volume, ``volume_quadratic`` at
    them (``width**3/18 + width**3/(36 n**2)`` in exact arithmetic).
    ``n = 1`` is allowed and has no interior point.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    bp = Breakpoints.equally_spaced(iv, n)
    return bp, volume_quadratic(bp)


def _cyclic_reduction(sub, diag, sup, *rhs) -> tuple[np.ndarray, np.ndarray]:
    """Odd-even cyclic reduction on each row of ``(rows, m)`` bands, no pivoting.

    Returns the solutions for every right-hand side, stacked, and per row
    the first position whose divisor is at most ``1e-14`` times its row
    scale in magnitude, or -1.  Position ``i`` is entry ``i + 1`` of bands
    padded with identity rows to ``2^k - 1`` positions between zero entries
    and laid out positions first, so that every level's strided slices
    keep each position's rows together; level ``s`` (1, 2, 4, ...)
    eliminates the positions ``s (mod 2s)`` of every row at once, and each
    position divides once, at its level.  The Newton Jacobians are
    M-matrices, as are their Schur complements, so ``a`` and ``c`` (the
    negated off-diagonals) stay nonnegative on them.
    """
    rows, m = diag.shape
    top = 1 << m.bit_length()
    a, c = np.zeros((2, top + 1, rows))
    d = np.ones((top + 1, rows))
    b = np.zeros((len(rhs), top + 1, rows))  # overwritten by the solutions
    a[2 : m + 1], d[1 : m + 1], c[1:m] = -sub.T, diag.T, -sup.T
    b[:, 1 : m + 1] = np.swapaxes(rhs, 1, 2)
    scale = np.abs([a, c, d]).max(axis=0)
    strides = [1 << level for level in range(m.bit_length())]
    # a row with a zero divisor runs on with inf/nan; the guard below names it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in strides[:-1]:
            keep, right = slice(2 * s, top, 2 * s), slice(3 * s, top, 2 * s)
            left = slice(s, top - 2 * s, 2 * s)
            alpha, gamma = a[keep] / d[left], c[keep] / d[right]
            d[keep] -= alpha * c[left] + gamma * a[right]
            b[:, keep] += alpha * b[:, left] + gamma * b[:, right]
            a[keep], c[keep] = alpha * a[left], gamma * c[right]
        for s in reversed(strides):
            out, lo, hi = slice(s, top, 2 * s), slice(0, top - s, 2 * s), slice(2 * s, None, 2 * s)
            b[:, out] += a[out] * b[:, lo] + c[out] * b[:, hi]
            b[:, out] /= d[out]

    small = np.abs(d[1 : m + 1]) <= 1e-14 * np.fmax(scale[1 : m + 1], 1e-300)
    pivot = np.where(small.any(axis=0), small.argmax(axis=0), -1)
    return np.swapaxes(b[:, 1 : m + 1], 1, 2), pivot


def solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Odd-even cyclic reduction for a tridiagonal system, no pivoting.

    ``sub`` and ``sup`` have one entry less than ``diag``.  All four bands
    may carry a leading row axis, ``(rows, m)``, to solve that many systems
    in one pass; each row's solution equals its own 1-D solve.  Pivoting is
    not needed for the Newton Jacobians solved here (M-matrices at every
    iterate), but each divisor is still guarded: one at most ``1e-14`` times
    its row scale raises :class:`SingularJacobian`, naming its position, the
    first in the first row that has one: a breakdown of the reduction, not
    a proof that the matrix is singular.
    """
    bands = [np.asarray(band, dtype=float) for band in (sub, diag, sup, rhs)]
    d = bands[1]
    if d.ndim not in (1, 2):
        raise DomainError("tridiagonal bands must be vectors or rows of vectors")
    lead, m = d.shape[:-1], d.shape[-1]
    shapes = [lead + (m - 1,), lead + (m,), lead + (m - 1,), lead + (m,)]
    if [band.shape for band in bands] != shapes:
        raise DomainError("tridiagonal bands have inconsistent lengths")
    (x,), pivot = _cyclic_reduction(*(np.atleast_2d(band) for band in bands))
    failed = np.flatnonzero(pivot >= 0)
    if failed.size:
        raise SingularJacobian(f"zero pivot in row {pivot[failed[0]]}")
    return x if lead else x[0]


class NewtonTrace:
    """Record of one Newton run.

    ``direction`` is the guaranteed movement of every coordinate from the
    equally-spaced start: ``"decreasing"`` for ``1 < p < 2``,
    ``"increasing"`` for ``p > 2``, or ``"stationary-at-start"`` when the
    start's residual is within its rounding floor, as it is at ``p = 2``;
    ``residual_floor`` is that floor at the last iterate.
    ``condition_numbers`` holds the infinity-norm condition of the Jacobian
    at each iterate; since those Jacobians have nonnegative inverses the
    number is exact: ``J^-1 1``, solved beside the step in one cyclic
    reduction, gives it and the direction guard's slack.
    """

    def __init__(self) -> None:
        self.iterates: list[Breakpoints] = []
        self.residual_norms: list[float] = []
        self.condition_numbers: list[float] = []
        self.residual_floor = math.nan
        self.direction = "stationary-at-start"
        self.converged = False

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def _jacobian_condition(sub, diag, sup, inv_rows, pivot) -> float:
    """Infinity-norm condition number of the stationarity Jacobian.

    ``inv_rows`` and ``pivot`` are :func:`_cyclic_reduction`'s solve against
    the all-ones vector, the row sums of the inverse: its norm whenever the
    inverse is nonnegative, as at every iterate from the equally-spaced start.
    """
    if pivot >= 0:
        return math.inf
    m = diag.size
    row = np.abs(diag).copy()
    if m > 1:
        row[:-1] += np.abs(sup)
        row[1:] += np.abs(sub)
    return float(row.max() * np.abs(inv_rows).max())


def _direction_for(p: float) -> str:
    if p == 2.0:
        return "stationary-at-start"
    return "decreasing" if p < 2.0 else "increasing"


def _newton_rows(iv, p, xi, trace=None):
    """Newton iteration from the equally-spaced start on every row of ``xi``.

    ``xi`` holds that start in each row, ``(rows, n + 1)``, and is overwritten
    with each row's last iterate; ``p`` holds one exponent per row.  Each
    row stops once its residual is within its own rounding floor at that
    iterate (``power._stationarity``), and meets the guards of
    :func:`newton_optimize` on its own.  Returns the error of the
    lowest-index failing row, or ``None`` when every row converged: rows
    after a failing one are dropped, since their outcome no longer changes
    what the caller raises.  ``trace`` records a one-row run.  The step and
    ``J^-1 1`` of all live rows come from one :func:`_cyclic_reduction`.
    """
    lo, up = iv.lower, iv.upper
    ps = np.asarray(p, dtype=float)
    live = np.arange(len(p))  # rows still iterating, ascending
    error = None
    # what Breakpoints asks, of the start only: the guard on each step keeps
    # every accepted iterate strictly increasing inside (lower, upper)
    ordered = (np.diff(xi, axis=1) > 0.0).all(axis=1)
    if not ordered.all():
        live = live[:int(np.argmin(ordered))]
        error = DomainError("breakpoints must be strictly increasing")
    for it in range(_MAX_ITER + 1):
        if not live.size:
            break
        x, pl = xi[live], ps[live]
        st = _stationarity(x, pl)
        norm = np.abs(st.residual).max(axis=1)
        sub, diag, sup = st.d_lo[:, 1:], st.jac_diag, st.d_hi[:, :-1]
        (step, inv_rows), pivot = _cyclic_reduction(sub, diag, sup, st.residual, np.ones_like(diag))
        go = ~(norm <= st.floor)
        if trace is not None:
            trace.iterates.append(Breakpoints(iv, x[0]))
            trace.residual_norms.append(float(norm[0]))
            trace.residual_floor = float(st.floor[0])
            trace.condition_numbers.append(
                _jacobian_condition(sub[0], diag[0], sup[0], inv_rows[0], pivot[0])
            )
            if not go[0]:
                if it > 0:
                    trace.direction = _direction_for(p[0])
                trace.converged = True
        live, x, norm, pl, floor = live[go], x[go], norm[go], pl[go], st.floor[go]
        step, inv_rows, pivot = step[go], inv_rows[go], pivot[go]
        if not live.size:
            break
        if it == _MAX_ITER:
            k = live[0]
            if trace is not None:
                trace.direction = _direction_for(p[k])
            error = MaxIterExceeded(
                f"no convergence to the residual floor {float(floor[0]):g} within "
                f"{_MAX_ITER} iterations (p={p[k]}, last residual {float(norm[0]):g})",
                trace,
            )
            break

        singular = pivot >= 0
        old = x[:, 1:-1]
        interior = old - step
        # rounding of this residual and of the last (which the last step
        # carried into x) moves x_k back by <= 2 floor (J^-1 1)_k: J^-1 >= 0
        slack = 2.0 * floor[:, None] * inv_rows
        move = interior - old
        increased = (pl < 2.0) & (move > slack).any(axis=1)
        decreased = (pl > 2.0) & (-move > slack).any(axis=1)
        outside = (  # not strictly increasing and strictly inside
            (interior[:, 0] <= lo)
            | (interior[:, -1] >= up)
            | ~(np.diff(interior, axis=1) > 0.0).all(axis=1)
        )
        failed = singular | increased | decreased | outside
        if failed.any():
            j = int(np.argmax(failed))
            k = live[j]
            if singular[j]:
                error = SingularJacobian(f"zero pivot in row {pivot[j]}")
            elif increased[j]:
                error = MonotonicityViolated(
                    f"a coordinate increased at p={p[k]}; decreasing run expected"
                )
            elif decreased[j]:
                error = MonotonicityViolated(
                    f"a coordinate decreased at p={p[k]}; increasing run expected"
                )
            else:
                error = MonotonicityViolated("an iterate left the open ordered interior")
            live, interior = live[:j], interior[:j]
        xi[live, 1:-1] = interior
    return error


def newton_optimize(pf: PowerFn, n: int) -> tuple[Breakpoints, NewtonTrace]:
    """Minimize the PL perspective volume over the interior breakpoints.

    Runs the undamped Newton iteration on the stationarity system from the
    equally-spaced start, which converges monotonically for every ``p > 1``
    with all iterates strictly interior.  The run stops once the residual's
    max-norm is within its rounding floor at the iterate
    (``NewtonTrace.residual_floor``), or raises :class:`MaxIterExceeded`
    after ``_MAX_ITER`` steps.  A step moving coordinate ``k`` back by more
    than rounding explains, ``2 floor (J^-1 1)_k``, or out of the open
    ordered interior raises :class:`MonotonicityViolated`.  At ``p = 2``
    the start is the optimum, within the floor, and is returned at
    iteration 0.
    """
    if n < 2:
        raise DomainError(_NEED_INTERIOR)
    iv = pf.interval
    trace = NewtonTrace()
    error = _newton_rows(iv, [pf.p], _equal_spacing(iv, n)[None, :], trace)
    if error is not None:
        raise error
    return trace.iterates[-1], trace


class SinglePointBounds(NamedTuple):
    """Analytic bracket for the optimal single interior breakpoint.

    ``lower < xi_1 < upper`` always holds for the minimizer; at ``p = 2``
    the bracket collapses onto the midpoint.  ``half`` is the midpoint and
    ``power_mean`` the (p-1)-power mean of the endpoints; together with the
    bracket they order one way for ``1 < p < 2`` and the opposite way for
    ``p > 2``.
    """

    lower: float
    upper: float
    half: float
    power_mean: float


def _bracket_ends(lo: float, up: float, p: float) -> tuple[float, float]:
    """``(cut, mean)``: where the tangents at ``lo`` and ``up`` meet
    (:func:`power._tangent_cuts`) and the ``(p-1)``-th root of the mean of
    ``f'`` over ``[lo, up]``, ``((up**p - lo**p) / (p (up - lo)))**(1/(p-1))``.

    The mean is taken as ``lo (expm1(p L) / (p r))**(1/(p-1))`` with ``r =
    (up - lo)/lo`` and ``L = log1p(r)``, which subtracts no two powers, and
    as ``up p**(-1/(p-1))`` at ``lo = 0``.  Where ``(up/lo)**p`` overflows,
    ``lo/up`` is far below 1, and the mean is taken in ratios to ``up``."""
    cut = float(_tangent_cuts(np.array([lo]), np.array([up]), p)[0])
    q = p - 1.0
    if lo == 0.0:
        return cut, up * p ** (-1.0 / q)
    r = (up - lo) / lo
    try:
        ratio = math.expm1(p * math.log1p(r)) / (p * r)
    except OverflowError:
        rho = lo / up
        return cut, up * (-math.expm1(p * math.log(rho)) / (p * (1.0 - rho))) ** (1.0 / q)
    return cut, lo * ratio ** (1.0 / q)


def single_point_bounds(pf: PowerFn) -> SinglePointBounds:
    lo, up = pf.interval.lower, pf.interval.upper
    p = pf.p
    half = 0.5 * (lo + up)
    if p == 2.0:
        return SinglePointBounds(lower=half, upper=half, half=half, power_mean=half)
    cut, mean = _bracket_ends(lo, up, p)
    power_mean = (0.5 * (up ** (p - 1.0) + lo ** (p - 1.0))) ** (1.0 / (p - 1.0))
    return SinglePointBounds(
        lower=min(cut, mean),
        upper=max(cut, mean),
        half=half,
        power_mean=power_mean,
    )


class BracketGap(NamedTuple):
    """Normalized single-point bracket width at endpoint ratio ``t = lower/upper``.

    Positive for ``1 < p < 2``, exactly zero at ``p = 2``, negative for
    ``p > 2`` (the bracket formulas swap sides there).
    """

    p: float
    endpoint_ratio: float
    value: float


def bracket_gap(p: float, t: float) -> BracketGap:
    if not 0.0 <= t < 1.0:
        raise DomainError("endpoint ratio must lie in [0, 1)")
    PowerFn(p, Interval(t, 1.0))  # the exponent bound of every PowerFn
    if p == 2.0:
        return BracketGap(p=p, endpoint_ratio=t, value=0.0)
    cut, mean = _bracket_ends(t, 1.0, p)
    return BracketGap(p=p, endpoint_ratio=t, value=(mean - cut) / (1.0 - t))


def min_bracket_gap() -> tuple[float, float]:
    """Exponent with the most negative bracket gap at ratio zero.

    The rescaled derivative of the gap is increasing in ``p``, so its sign
    change on ``[2, 50]`` is unique and plain bisection to ``1e-10``
    suffices.  Returns the exponent and the gap value there, roughly
    ``(6.3212, -0.1347)``.
    """

    def slope_sign(p: float) -> float:
        return -p / (p - 1.0) + p * p * math.log(p) / (p - 1.0) ** 2 - p ** (1.0 / (p - 1.0))

    a, b = 2.0, 50.0
    while b - a > 1e-10:
        c = 0.5 * (a + b)
        if slope_sign(c) < 0.0:
            a = c
        else:
            b = c
    p0 = 0.5 * (a + b)
    return p0, bracket_gap(p0, 0.0).value


class SweepResult(NamedTuple):
    """Optimal interior breakpoints per exponent, one row per grid entry.
    Equal only to itself."""

    interval: Interval
    n: int
    p: np.ndarray
    interior: np.ndarray  # shape (len(p), n - 1)

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def sweep_optimal_points(iv: Interval, n: int, p_grid) -> SweepResult:
    """Optimal placements across an increasing exponent grid.

    Every optimal coordinate is increasing in the exponent, so each column
    of the result is monotone down the rows.  All rows run as one batched
    Newton iteration, each row exactly as :func:`newton_optimize` runs it,
    but without a trace.  A solver error is the one
    :func:`newton_optimize` raises for the lowest-index failing row; a
    :class:`MaxIterExceeded` from here carries no trace.
    """
    grid = np.asarray(p_grid, dtype=float).ravel()
    if grid.size == 0:
        raise DomainError("empty exponent grid")
    if grid.size > 1 and not (np.diff(grid) > 0.0).all():
        raise DomainError("exponent grid must be strictly increasing")
    ps = grid.tolist()
    # the grid increases: only its end exponents can be out of range
    PowerFn(ps[0], iv)
    PowerFn(ps[-1], iv)
    if n < 2:
        raise DomainError(_NEED_INTERIOR)
    xi = np.tile(_equal_spacing(iv, n), (len(ps), 1))
    error = _newton_rows(iv, ps, xi)
    if error is not None:
        raise error
    return SweepResult(interval=iv, n=n, p=grid, interior=xi[:, 1:-1].copy())
