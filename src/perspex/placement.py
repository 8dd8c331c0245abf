"""Optimal placement of linearization points.

For quadratics the volume-minimizing breakpoints are equally spaced in
closed form.  For every other exponent the unique minimizer is the zero of
a tridiagonal stationarity system, found by a Newton iteration that is
provably monotone from the equally-spaced start: coordinates only move
down for ``1 < p < 2`` and only up for ``p > 2``.  This module also provides
the analytic bracket for a single interior point, the normalized bracket
width as a function of the exponent, and exponent sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTangents,
    DomainError,
    MaxIterExceeded,
    MonotonicityViolated,
    SingularJacobian,
)
from .power import (
    _FLAT_SLOPES,
    _QUADRATIC_EPS,
    PowerFn,
    _flat_slopes,
    _pow,
    _power_table,
    _stationarity,
    gradient_system,  # re-exported; nothing in this module calls it
    volume_power_closed_form,
)
from .underestimator import Breakpoints, Interval

# Slack for the per-coordinate direction guard on canonical-start runs.
_MONOTONE_SLACK = 1e-12

_MAX_ITER = 200
_NEED_INTERIOR = "optimization needs at least one interior point (n >= 2)"
_NEED_TOL = "tolerance must be positive"


def optimize_quadratic(iv: Interval, n: int) -> tuple[Breakpoints, float]:
    """Unique volume-minimizing breakpoints for ``x**2``: equal spacing.

    Returns the breakpoints and the minimum volume
    ``width**3/18 + width**3/(36 n**2)``.  ``n = 1`` is allowed and has no
    interior point.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    bp = Breakpoints.equally_spaced(iv, n)
    w = iv.width
    return bp, w**3 / 18.0 + w**3 / (36.0 * n * n)


def _thomas(sub, diag, sup, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Thomas elimination on each row of ``(rows, m)`` bands, no pivoting.

    Returns the solutions and, per row, the position of the first pivot at
    most ``1e-14`` times its row scale in magnitude, or -1.  The loop runs
    over positions once and works on all rows at a time.  A single row runs
    on Python floats: they round like numpy's float64 and cost far less to
    index than one-element arrays.
    """
    rows, m = diag.shape
    if rows == 1:
        a, d, c, r = (band[0].tolist() for band in (sub, diag, sup, rhs))
    else:
        a, d, c, r = (np.ascontiguousarray(band.T) for band in (sub, diag, sup, rhs))
    dens = [d[0]]
    x = None
    try:
        # a row with a zero pivot runs on with inf/nan; the guard below names it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cp = [c[0] / d[0]] if m > 1 else []
            dp = [r[0] / d[0]]
            for i in range(1, m):
                den = d[i] - a[i - 1] * cp[i - 1]
                dens.append(den)
                if i < m - 1:
                    cp.append(c[i] / den)
                dp.append((r[i] - a[i - 1] * dp[i - 1]) / den)
            x = [dp[m - 1]]
            for i in range(m - 2, -1, -1):
                x.append(dp[i] - cp[i] * x[-1])
    except ZeroDivisionError:  # Python floats: an exact zero pivot, named below
        pass

    scale = np.abs(diag)
    scale[:, 1:] = np.fmax(scale[:, 1:], np.abs(sub))
    scale[:, :-1] = np.fmax(scale[:, :-1], np.abs(sup))
    k = len(dens)
    small = np.abs(np.reshape(dens, (k, rows)).T) <= 1e-14 * np.fmax(scale[:, :k], 1e-300)
    pivot = np.where(small.any(axis=1), small.argmax(axis=1), -1)
    if x is None:
        return np.full((rows, m), np.nan), pivot
    return np.reshape(x[::-1], (m, rows)).T, pivot


def solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Thomas elimination for a tridiagonal system, no pivoting.

    ``sub`` and ``sup`` have one entry less than ``diag``.  All four bands
    may carry a leading row axis, ``(rows, m)``, to solve that many systems
    in one pass; each row's solution equals its own 1-D solve.  Pivoting is
    not needed for the Newton Jacobians solved here (M-matrices at every
    iterate), but each pivot is still guarded: a magnitude below ``1e-14``
    times its row scale raises :class:`SingularJacobian`, which names the
    first such pivot of the first row that has one.
    """
    bands = [np.asarray(band, dtype=float) for band in (sub, diag, sup, rhs)]
    d = bands[1]
    if d.ndim not in (1, 2):
        raise DomainError("tridiagonal bands must be vectors or rows of vectors")
    lead, m = d.shape[:-1], d.shape[-1]
    shapes = [lead + (m - 1,), lead + (m,), lead + (m - 1,), lead + (m,)]
    if [band.shape for band in bands] != shapes:
        raise DomainError("tridiagonal bands have inconsistent lengths")
    x, pivot = _thomas(*(np.atleast_2d(band) for band in bands))
    failed = np.flatnonzero(pivot >= 0)
    if failed.size:
        raise SingularJacobian(f"zero pivot in row {pivot[failed[0]]}")
    return x if lead else x[0]


@dataclass(eq=False)
class NewtonTrace:
    """Record of one Newton run.

    ``direction`` is the guaranteed movement of every coordinate from the
    equally-spaced start: ``"decreasing"`` for ``1 < p < 2``,
    ``"increasing"`` for ``p > 2``, or ``"stationary-at-start"`` when the
    start already satisfies the tolerance (always the case at ``p = 2``).
    ``condition_numbers`` holds the infinity-norm condition of the Jacobian
    at each iterate; since those Jacobians have nonnegative inverses the
    number is exact, at the cost of one extra tridiagonal solve.
    """

    iterates: list[Breakpoints] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    condition_numbers: list[float] = field(default_factory=list)
    direction: str = "stationary-at-start"
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def _jacobian_condition(sub, diag, sup) -> float:
    """Infinity-norm condition number of the stationarity Jacobian.

    Uses the row sums of the inverse, obtained from one solve against the
    all-ones vector; exact whenever the inverse is nonnegative, which holds
    at every iterate reached from the equally-spaced start.
    """
    m = diag.size
    row = np.abs(diag).copy()
    if m > 1:
        row[:-1] += np.abs(sup)
        row[1:] += np.abs(sub)
    try:
        inv_rows = solve_tridiagonal(sub, diag, sup, np.ones(m))
    except SingularJacobian:
        return math.inf
    return float(row.max() * np.abs(inv_rows).max())


def _direction_for(p: float) -> str:
    if p < 2.0 - _QUADRATIC_EPS:
        return "decreasing"
    if p > 2.0 + _QUADRATIC_EPS:
        return "increasing"
    return "stationary-at-start"


def _interior_feasible(interior: np.ndarray, lo: float, up: float) -> np.ndarray:
    """Per row of ``interior``: strictly increasing and strictly inside."""
    return (
        ~(interior[:, 0] <= lo)
        & ~(interior[:, -1] >= up)
        & (np.diff(interior, axis=1) > 0.0).all(axis=1)
    )


def _default_tol(p: float, upper: float) -> float:
    return 1e-12 * _pow(upper, p - 1.0)


def _newton_rows(iv, p, tol, max_iter, xi, canonical=True, trace=None):
    """Newton iteration on every row of ``xi`` at once.

    ``xi`` holds one start per row, ``(rows, n + 1)``, and is overwritten
    with each row's last iterate; ``p`` and ``tol`` hold one exponent and
    one tolerance per row.  Each row stops on its own tolerance and meets
    the guards of :func:`newton_optimize` on its own.  Returns the error of
    the lowest-index failing row, or ``None`` when every row converged:
    rows after a failing one are dropped, since their outcome no longer
    changes what the caller raises.  ``trace`` records a one-row run.
    """
    lo, up = iv.lower, iv.upper
    ps = np.asarray(p, dtype=float)
    tols = np.asarray(tol, dtype=float)
    live = np.arange(len(p))  # rows still iterating, ascending
    error = None
    for it in range(max_iter + 1):
        x, pl = xi[live], ps[live]
        table = _power_table(x, pl)
        ordered = (np.diff(x, axis=1) > 0.0).all(axis=1)  # what Breakpoints asks
        failed = ~ordered | _flat_slopes(table)
        if failed.any():
            j = int(np.argmax(failed))
            if not ordered[j]:
                error = DomainError("breakpoints must be strictly increasing")
            else:
                error = DegenerateTangents(f"{_FLAT_SLOPES} (p={p[live[j]]})")
            live, x, pl, table = live[:j], x[:j], pl[:j], table[:, :j]
        if not live.size:
            break
        st = _stationarity(x, pl, table)
        norm = np.abs(st.residual).max(axis=1)
        go = ~(norm <= tols[live])
        if trace is not None:
            trace.iterates.append(Breakpoints(iv, x[0]))
            trace.residual_norms.append(float(norm[0]))
            trace.condition_numbers.append(
                _jacobian_condition(st.d_lo[0, 1:], st.jac_diag[0], st.d_hi[0, :-1])
            )
            if not go[0]:
                if it > 0:
                    trace.direction = _direction_for(p[0])
                trace.converged = True
        live, x, norm, pl = live[go], x[go], norm[go], pl[go]
        if not live.size:
            break
        if it == max_iter:
            k = live[0]
            if trace is not None:
                trace.direction = _direction_for(p[k])
            error = MaxIterExceeded(
                f"no convergence to {float(tols[k]):g} within {max_iter} iterations "
                f"(last residual {float(norm[0]):g})",
                trace,
            )
            break

        step, pivot = _thomas(
            st.d_lo[go, 1:], st.jac_diag[go], st.d_hi[go, :-1], st.residual[go]
        )
        singular = pivot >= 0
        old = x[:, 1:-1]
        interior = old - step
        if canonical:
            checks = [
                singular,
                (pl < 2.0) & (interior > old + _MONOTONE_SLACK).any(axis=1),
                (pl > 2.0) & (interior < old - _MONOTONE_SLACK).any(axis=1),
                ~_interior_feasible(interior, lo, up),
            ]
        else:
            shrinking = ~singular & ~_interior_feasible(interior, lo, up)
            for _ in range(80):  # a row still outside after 80 halvings fails
                if not shrinking.any():
                    break
                step[shrinking] *= 0.5
                interior[shrinking] = old[shrinking] - step[shrinking]
                shrinking &= ~_interior_feasible(interior, lo, up)
            checks = [singular, shrinking]
        failed = np.logical_or.reduce(checks)
        if failed.any():
            j = int(np.argmax(failed))
            k = live[j]
            if singular[j]:
                error = SingularJacobian(f"zero pivot in row {pivot[j]}")
            elif not canonical:
                error = MaxIterExceeded("damping failed to keep the iterate interior", trace)
            elif checks[1][j]:
                error = MonotonicityViolated(
                    f"a coordinate increased at p={p[k]}; decreasing run expected"
                )
            elif checks[2][j]:
                error = MonotonicityViolated(
                    f"a coordinate decreased at p={p[k]}; increasing run expected"
                )
            else:
                error = MonotonicityViolated("an iterate left the open ordered interior")
            live, interior = live[:j], interior[:j]
        xi[live, 1:-1] = interior
    return error


def newton_optimize(
    pf: PowerFn,
    n: int,
    tol: float | None = None,
    max_iter: int = _MAX_ITER,
    start=None,
) -> tuple[Breakpoints, NewtonTrace]:
    """Minimize the PL perspective volume over the interior breakpoints.

    Runs the undamped Newton iteration on the stationarity system from the
    equally-spaced start, which converges monotonically for every ``p > 1``
    with all iterates strictly interior; a canonical-start iterate moving
    against the guaranteed direction by more than ``1e-12`` raises
    :class:`MonotonicityViolated` since the theory forbids it.  The default
    tolerance scales with the residual, ``1e-12 * upper**(p-1)``.

    Runs started from ``start`` (a vector of ``n - 1`` interior points)
    carry no direction guarantee; their steps are halved as needed to stay
    strictly interior and ordered.  An iterate at which ``x**(p-1)`` rounds
    equal at neighbouring breakpoints raises :class:`DegenerateTangents`.
    """
    if n < 2:
        raise DomainError(_NEED_INTERIOR)
    if max_iter < 1:
        raise DomainError("max_iter must be positive")
    iv = pf.interval
    lo, up = iv.lower, iv.upper
    if tol is None:
        tol = _default_tol(pf.p, up)
    if not tol > 0.0:
        raise DomainError(_NEED_TOL)

    canonical = start is None
    if canonical:
        xi = np.linspace(lo, up, n + 1)
    else:
        interior = np.asarray(start, dtype=float).ravel()
        if interior.size != n - 1:
            raise DomainError(f"start must supply {n - 1} interior points")
        if not _interior_feasible(interior[None, :], lo, up)[0]:
            raise DomainError("start must be strictly increasing inside the interval")
        xi = np.concatenate(([lo], interior, [up]))

    trace = NewtonTrace()
    error = _newton_rows(iv, [pf.p], [tol], max_iter, xi[None, :], canonical, trace)
    if error is not None:
        raise error
    return trace.iterates[-1], trace


@dataclass(frozen=True)
class SinglePointBounds:
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


def single_point_bounds(pf: PowerFn) -> SinglePointBounds:
    lo, up = pf.interval.lower, pf.interval.upper
    p = pf.p
    half = 0.5 * (lo + up)
    if abs(p - 2.0) < _QUADRATIC_EPS:
        return SinglePointBounds(lower=half, upper=half, half=half, power_mean=half)
    ratio_bound = (p - 1.0) * (_pow(up, p) - _pow(lo, p)) / (
        p * (_pow(up, p - 1.0) - _pow(lo, p - 1.0))
    )
    mean_bound = ((_pow(up, p) - _pow(lo, p)) / (p * (up - lo))) ** (1.0 / (p - 1.0))
    power_mean = (0.5 * (_pow(up, p - 1.0) + _pow(lo, p - 1.0))) ** (1.0 / (p - 1.0))
    return SinglePointBounds(
        lower=min(ratio_bound, mean_bound),
        upper=max(ratio_bound, mean_bound),
        half=half,
        power_mean=power_mean,
    )


@dataclass(frozen=True)
class BracketGap:
    """Normalized single-point bracket width at endpoint ratio ``t = lower/upper``.

    Positive for ``1 < p < 2``, exactly zero at ``p = 2``, negative for
    ``p > 2`` (the bracket formulas swap sides there).
    """

    p: float
    endpoint_ratio: float
    value: float


def bracket_gap(p: float, t: float) -> BracketGap:
    if not p > 1.0:
        raise DomainError("need p > 1")
    if not 0.0 <= t < 1.0:
        raise DomainError("endpoint ratio must lie in [0, 1)")
    if abs(p - 2.0) < _QUADRATIC_EPS:
        return BracketGap(p=p, endpoint_ratio=t, value=0.0)
    tp = _pow(t, p)
    tp1 = _pow(t, p - 1.0)
    value = (
        ((1.0 - tp) / (p * (1.0 - t))) ** (1.0 / (p - 1.0))
        - (p - 1.0) * (1.0 - tp) / (p * (1.0 - tp1))
    ) / (1.0 - t)
    return BracketGap(p=p, endpoint_ratio=t, value=value)


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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Optimal interior breakpoints per exponent, one row per grid entry."""

    interval: Interval
    n: int
    p: np.ndarray
    interior: np.ndarray  # shape (len(p), n - 1)


def sweep_optimal_points(iv: Interval, n: int, p_grid) -> SweepResult:
    """Optimal placements across an increasing exponent grid.

    Every optimal coordinate is increasing in the exponent, so each column
    of the result is monotone down the rows.  All rows run as one batched
    Newton iteration, each row exactly as :func:`newton_optimize` runs it
    with default settings, but without a trace.  A solver error is the one
    :func:`newton_optimize` raises for the lowest-index failing row; a
    :class:`MaxIterExceeded` from here carries no trace.
    """
    grid = np.asarray(p_grid, dtype=float).ravel()
    if grid.size == 0:
        raise DomainError("empty exponent grid")
    if not (grid > 1.0).all():
        raise DomainError("every exponent must exceed 1")
    if grid.size > 1 and not (np.diff(grid) > 0.0).all():
        raise DomainError("exponent grid must be strictly increasing")
    ps = grid.tolist()
    PowerFn(ps[0], iv)  # the grid increases: only its first exponent can be out of range
    if n < 2:
        raise DomainError(_NEED_INTERIOR)
    tol = [_default_tol(p, iv.upper) for p in ps]
    rows = next((k for k, t in enumerate(tol) if not t > 0.0), len(ps))
    xi = np.tile(np.linspace(iv.lower, iv.upper, n + 1), (rows, 1))
    error = _newton_rows(iv, ps[:rows], tol[:rows], _MAX_ITER, xi)
    if error is None and rows < len(ps):
        error = DomainError(_NEED_TOL)
    if error is not None:
        raise error
    return SweepResult(interval=iv, n=n, p=grid, interior=xi[:, 1:-1].copy())


def concave_surrogate(pf: PowerFn, xi1: float) -> tuple[float, float]:
    """Log-concave surrogate for single-point placement at ``p > 2``.

    Returns ``(value, offset)`` where ``value = offset - volume`` for the
    three-point breakpoints ``(lower, xi1, upper)``.  The offset makes the
    surrogate positive on the open interval and strictly log-concave, so
    maximizing it finds the unique volume minimizer even though the volume
    itself is only quasiconvex there.
    """
    p = pf.p
    if not p > 2.0:
        raise DomainError("the surrogate requires p > 2")
    lo, up = pf.interval.lower, pf.interval.upper
    if not lo < xi1 < up:
        raise DomainError("xi1 must lie strictly inside the interval")
    offset = (
        ((p - 1.0) * _pow(up, p) + _pow(lo, p) - p * _pow(up, p - 1.0) * lo)
        * (_pow(up, p) + (p - 1.0) * _pow(lo, p) - p * up * _pow(lo, p - 1.0))
        / (6.0 * p * (_pow(up, p - 1.0) - _pow(lo, p - 1.0)))
    )
    vol = volume_power_closed_form(pf, Breakpoints.from_interior(pf.interval, [xi1]))
    return offset - vol, offset
