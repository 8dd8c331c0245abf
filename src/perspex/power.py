"""Closed-form volume analytics for power functions ``x**p`` with ``p > 1``.

Everything here evaluates in O(n) for n linearization pieces: the exact
volume of every relaxation at every exponent (nr, pr and enr by one
quadrature span of O(log(upper/lower)) sub-spans), that of the
perspective relaxation of the tangent under-estimator with its gradient
and tridiagonal Hessian in the interior breakpoints, and the
stationarity residual driving Newton's method.

Powers are plain ``**``, whose exponents here are positive, so ``0.0**q``
is 0 already.  The Newton terms read only the tangent cuts' fractions of
their pairs and ``x**(p-2)`` at interior points, which are positive; only
the boundary coupling ``coupling[0]`` takes a limit at ``lower == 0``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HypothesisViolated
from .underestimator import (
    Breakpoints,
    ConvexFunction,
    Interval,
    _check_brackets,
    _validated_make,
)

_MIN_P = 1.0 + 1e-9
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LN2 = math.log(2.0)
# 1 - k and -1/k! for the gap series' orders k = 2 .. 17
_ONE_LESS, _NEG_INV_FACT = np.array([(1 - k, -1 / math.factorial(k)) for k in range(2, 18)]).T


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

    @property
    def piecewise_linear(self) -> bool:
        """Built from the tangent under-estimator, so it needs breakpoints."""
        return self in (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR)


class PowerFn(NamedTuple("PowerFn", [("p", float), ("interval", Interval)])):
    """``f(x) = x**p`` on an interval, with a finite ``p > 1`` and a safety margin."""

    __slots__ = ()

    def __new__(cls, p: float, interval: Interval):
        if not p >= _MIN_P:
            raise DomainError(f"exponent must be at least {_MIN_P}, got {p}")
        if not math.isfinite(p):
            raise DomainError(f"exponent must be finite, got {p}")
        return super().__new__(cls, p, interval)

    _make = classmethod(_validated_make)

    def __call__(self, x):
        return x**self.p

    def deriv(self, x):
        return self.p * x ** (self.p - 1.0)

    def oracle(self) -> ConvexFunction:
        """This function as a :class:`ConvexFunction` for the under-estimator."""
        return _PowerOracle(fn=self, deriv=self.deriv, interval=self.interval)


class _PowerOracle(ConvexFunction):
    """``PowerFn.oracle()``: values in two array powers, cuts in ratio form,
    and no positivity probe."""

    __slots__ = ()

    def __new__(cls, fn, deriv, interval):  # x**p is positive by construction
        return super(ConvexFunction, cls).__new__(cls, fn, deriv, interval)

    def _values(self, xi):
        p = self.fn.p
        with np.errstate(over="ignore"):  # raised below, as the scalar powers raise
            fx, dfx = xi**p, p * xi ** (p - 1.0)
        # breakpoints increase from lower >= 0, so the last values are the largest
        if not (math.isfinite(fx[-1]) and math.isfinite(dfx[-1])):
            raise OverflowError(f"x**{p!r} overflows floats at x = {float(xi[-1])!r}")
        return fx, dfx

    def _cuts(self, xi, fx, dfx):
        return _tangent_cuts(xi[:-1], xi[1:], self.fn.p)


def volume_quadratic(bp: Breakpoints) -> float:
    """Exact volume of the PL perspective relaxation for ``f(x) = x**2``,
    ``width**3/18 + Σ h**3/36`` over the pieces' widths ``h``."""
    return volume_power_closed_form(PowerFn(2.0, bp.interval), bp)


def volume_power_closed_form(pf: PowerFn, bp: Breakpoints) -> float:
    """Exact volume of the PL perspective relaxation for ``x**p``.

    A third of the area between the chord and the tangent under-estimator.
    On the piece of the tangent at ``x_k``, between its cuts, the chord
    minus the tangent is affine in the offset ``τ = (s - l)/(u - l)``:
    ``(1 - τ) D(l; x_k) + τ D(u; x_k)``, ``D`` the Bregman gap.  So the
    area is the trapezoid sum ``w Σ_k Δτ_k ((1 - τ̄_k) D(l; x_k) + τ̄_k D(u;
    x_k))`` over the pieces' lengths ``Δτ`` and midpoints ``τ̄``.  A length
    is ``(1 - θ_{k-1}) Δ_{k-1} + θ_k Δ_k`` from the cuts' fractions θ of
    their pairs (:func:`_cut_terms`), ``τ̄`` and ``1 - τ̄`` are sums of
    distances from their own end, and the gaps come in units of ``f(u)``
    (:func:`_pair_gaps`): every term is a product of nonnegative factors,
    so nothing cancels on narrow intervals far from zero.  No cut's
    rounding moves the sum to first order, because the under-estimator is
    continuous at its cuts.  The volume is ``u**(p+1)`` times the
    dimensionless sum (:func:`_scaled`).  Agrees with the fan-triangulation
    volume of the corresponding under-estimator; this form never
    constructs the tangent vertices.  Raises :class:`DomainError` where the
    volume overflows floats, as :func:`closed_form_volume` does.
    """
    if bp is None:
        raise DomainError("plpr needs breakpoints")
    if pf.interval != bp.interval:
        raise DomainError("breakpoints cover a different interval than the function")
    p, xi = pf.p, bp.xi
    a, b, lo, up = xi[:-1], xi[1:], float(xi[0]), float(xi[-1])
    n, w = a.size, up - lo
    # gaps of the pairs (x_k, x_k+1), (l, x_k+1) and (x_k+1, u), one call
    fwd, back, ratio = _pair_gaps(np.concatenate((a, np.full(n, lo), b)),
                                  np.concatenate((b, b, np.full(n, up))), p)[:3]
    scale = (b - a) / (fwd[:n] + back[:n])
    head, tail = fwd[:n] * scale, back[:n] * scale  # θ Δ and (1 - θ) Δ
    # τ and 1 - τ at l, the cuts and u, each a sum of distances from its end
    from_lo = np.concatenate(([0.0], (a - lo + head) / w, [1.0]))
    to_up = np.concatenate(([1.0], (up - b + tail) / w, [0.0]))
    # per piece, D(l; x_k) from units of f(x_k), and D(u; x_k), the first
    # D(u; l) of the pair (l, u)
    at_lo = np.append(0.0, fwd[n:2 * n] * np.exp(-p * ratio[2 * n:]))
    at_up = back[2 * n - 1:]
    length = np.append(head, 0.0) + np.append(0.0, tail)
    terms = length * ((to_up[:-1] + to_up[1:]) * at_lo + (from_lo[:-1] + from_lo[1:]) * at_up)
    return _finite(_scaled(float(terms.sum()) / up / 6.0, up, p), RelaxationKind.PL_PR, pf)


def _scaled(unit: float, upper: float, p: float) -> float:
    """``unit * upper**(p + 1)``, the power as ``upper**p * upper`` (``p +
    1`` would round) and applied last; where that power overflows, ``unit``
    times ``upper**(p/2)`` twice and ``upper``, so the product overflows
    only where it is not finite.  ``inf`` where it overflows: where even
    ``upper**(p/2)`` does, the power exceeds the largest float squared, and
    no dimensionless sum here is small enough to bring it back."""
    upper = float(upper)
    try:
        if (scale := upper**p * upper) < math.inf:
            return unit * scale
    except OverflowError:  # Python floats raise where numpy returns inf
        pass
    try:
        half = upper ** (p / 2.0)
    except OverflowError:
        return math.inf
    return unit * half * half * upper


def _finite(vol: float, kind: RelaxationKind, pf: PowerFn) -> float:
    """``vol``, or :class:`DomainError` where the volume overflows floats."""
    if not math.isfinite(vol):
        iv = pf.interval
        raise DomainError(f"the closed-form {kind.value} volume of x**{pf.p!r} on "
                          f"[{iv.lower!r}, {iv.upper!r}] overflows floats")
    return vol


def _tangent_cuts(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Where the tangents of ``x**p`` at ``a < b`` meet, as positions: the
    quotient ``t = b (q/p) expm1(-p L) / expm1(-q L)`` with ``L = log(b/a)``
    (:func:`_log_ratio`) and ``q = p - 1``, clamped to ``[a, b]``.  No
    term overflows however large ``b/a`` is, ``a = 0`` gives ``b q/p``, and
    ``t`` is within ``15 u t`` (``u = eps/2``), the order of the rounding of
    ``a + θ (b - a)``.  The oracle's vertices (so plenr's closed form), the Monte-Carlo
    bodies and the single-point bracket read these positions; a volume
    moves only at second order with a cut.  Newton and plpr's closed form
    read the fractions of :func:`_cut_terms`.  ``p`` may hold one exponent
    per row of ``a``."""
    q = p - 1.0
    ratio = _log_ratio(a, b)
    t = b * (q / p) * (np.expm1(-p * ratio) / np.expm1(-q * ratio))
    np.maximum(t, a, out=t)
    np.minimum(t, b, out=t)
    return t


def _log_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L = log(b/a)`` per pair ``0 <= a < b``, ``inf`` at ``a = 0``:
    ``log1p((b - a)/a)``, and ``log(b) - log(a)`` where that quotient
    overflows floats, as it does only from a tiny ``a`` (``[1e-320, 1e5]``),
    so that such a pair is not read as one from 0.  :func:`_tangent_cuts`
    and :func:`_pair_gaps` share it."""
    with np.errstate(divide="ignore", over="raise"):  # a = 0 divides by zero
        try:
            return np.log1p((b - a) / a)
        except FloatingPointError:
            pass
    with np.errstate(divide="ignore", over="ignore"):
        quotient = (b - a) / a
        return np.where(np.isinf(quotient), np.log(b) - np.log(a), np.log1p(quotient))


def _cut_terms(a: np.ndarray, b: np.ndarray, p) -> tuple[np.ndarray, ...]:
    """``(θ, 1 - θ, L, g)`` per pair ``a < b``: the cut's fraction ``θ = (t -
    a)/(b - a)`` of its pair and its complement, each Bregman gap of
    :func:`_pair_gaps` over their sum, and that function's ``L`` and ``g``.
    At ``p = 2`` the gaps are the same bits, so ``θ = 1/2``.  θ and ``1 -
    θ`` are within 6 eps relative (4.6 eps measured against 40 digits).
    Newton's terms and plpr's closed form read them, where a cut enters
    through its distances to its pair; the positions come cheaper from
    :func:`_tangent_cuts`, which skips the gaps' series.
    """
    lower, upper, ratio, gap = _pair_gaps(a, b, p)
    total = lower + upper
    return lower / total, upper / total, ratio, gap


def _pair_gaps(a: np.ndarray, b: np.ndarray, p) -> tuple[np.ndarray, ...]:
    """``(D(a; b), D(b; a), L, g)`` per pair ``a < b``: the two Bregman gaps
    of ``x**p`` in units of ``f(b)``, ``L = log(b/a)`` and ``g = 1 -
    (a/b)**(p-1)``.  With ``y = p L`` and ``q = p - 1``, the gaps are
    ``φ(-y)`` and ``q φ*(-y)``, ``φ*`` being ``φ`` (:func:`_gap_series`) of
    the conjugate exponent ``p/q``: series in ``-y`` where ``y <= ln 2``,
    per element, and expm1 forms elsewhere.  From ``a = 0`` they are ``q``
    and 1.  ``p`` may hold one exponent per row of ``a``.
    """
    q = p - 1.0
    ratio = _log_ratio(a, b)
    y, decay = p * ratio, -q * ratio
    fall = np.expm1(decay)  # (a/b)**q - 1 = -g
    shrink = q * np.expm1(-ratio)  # q (a/b - 1)
    sums = _series(_gap_series(np.log1p(np.array([q, 1.0 / q]))), -np.minimum(y, _LN2))
    lower_s, upper_s = sums.reshape((2,) + y.shape)
    near = y <= _LN2
    lower = np.where(near, lower_s, fall * np.exp(-ratio) - shrink)
    upper = np.where(near, q * upper_s, shrink * np.exp(decay) - fall)
    return lower, upper, ratio, -fall


def _gap_series(log_p):
    """Coefficients ``b_2 .. b_17`` of ``φ(y) = Σ b_k y**k``, ``b_k = (1 -
    p**(1-k)) / k!``, the Bregman gap ``f(a) - f(x) - f'(x) (a - x)`` over
    ``f(x)`` for ``f = x**p`` at ``y = p log(a / x)``, along a new last axis
    of ``log_p = log(p)``.  As ``b_k <= 2 (k - 1) b_2 / k!``, at ``|y| <= ln
    2`` each term is at most half the one before, and the first one left
    out, ``k = 18``, has ``2 (k - 1) / k! (ln 2)**(k - 2) <= eps / 8``."""
    coef = np.asarray(log_p)[..., None] * _ONE_LESS
    np.expm1(coef, out=coef)
    coef *= _NEG_INV_FACT
    return coef


def _series(coef, y):
    """``Σ coef[..., i] y**(i + 2)``: ``coef``, ``(..., K)``, times the powers
    of ``y`` on a second-to-last axis; a ``(K,)`` ``coef`` gives ``y``'s shape."""
    powers = np.empty((coef.shape[-1] + 1,) + y.shape)  # y**1 .. y**(K+1)
    powers[0] = y
    done = 1
    while done < len(powers):  # doubling: y**(done + j) = y**j * y**done
        new = powers[done:2 * done]
        np.multiply(powers[:len(new)], powers[done - 1], out=new)
        done += len(new)
    return coef @ powers[1:].swapaxes(0, -2)


def _relative_gap(p, u):
    """``φ(p u) = D(a; x) / f(x)`` at ``u = log(a / x)``, elementwise, where
    ``D`` is the Bregman gap of ``f = x**p`` and ``|p u| <= ln 2``: the
    series of :func:`_gap_series` that :func:`_pair_gaps` sums, for the
    Monte-Carlo kernel.  Each term is at most half the one before, so the
    sum is at least half its first, ``b_2 (p u)**2``, whatever the sign of
    ``u``: it keeps its relative accuracy however small ``u`` is and however
    close ``p`` is to 1."""
    return _series(_gap_series(math.log(p)), p * u)


# The 16-point Gauss-Legendre rule on [0, 1], each node and weight rounded
# once from a 50-digit evaluation: its moments are within 1e-16 of 1/(k+1)
# for k <= 30, where numpy.polynomial's leggauss, mapped, is off by 1.5e-15
# (and importing numpy.polynomial costs every CLI process 7 ms)
_GL_NODES = np.array([
    0.005299532504175033, 0.02771248846338371, 0.06718439880608412, 0.12229779582249849,
    0.19106187779867811, 0.2709916111713863, 0.35919822461037054, 0.4524937450811813,
    0.5475062549188188, 0.6408017753896295, 0.7290083888286137, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939158, 0.9722875115366163, 0.994700467495825,
])
_GL_WEIGHTS = np.array([
    0.013576229705877048, 0.031126761969323947, 0.04757925584124639, 0.06231448562776694,
    0.07479799440828837, 0.08457825969750127, 0.09130170752246179, 0.09472530522753425,
])
_GL_WEIGHTS = np.concatenate((_GL_WEIGHTS, _GL_WEIGHTS[::-1]))  # symmetric about 1/2


_WINDOW = 50.0  # above k = 8, a span's integrand below b exp(-50/k) is dropped
# the largest power of s the span rule accepts: the window b (1 - exp(-50/k)),
# about 50 b/k, spans at least four floats, which lie at most eps b apart
_MAX_SPAN_POWER = _WINDOW / (4.0 * _EPS)


def _span_integral(a: float, b: float, left: int, right: int, k: float) -> float:
    """``∫_a^b (s - a)**left * (b - s)**right * s**k ds`` in units of
    ``b**(k + left + right + 1)``, for ``0 <= a < b``, ``left, right <= 2``
    and ``k > -1``.

    From 0 it is the Beta function ``B(k + 1 + left, right + 1)``.
    Otherwise the span is split at geometric points into sub-spans of end
    ratio at most ``2**(1/max(1, k/8))``, where ``s**k`` is analytic well
    beyond the sub-span and varies by at most ``2**8``, and each takes the
    16-point Gauss-Legendre rule, whose own error is below 1e-16.  Above
    ``k = 8`` only ``[b exp(-_WINDOW/k), b]`` is split, into at most 10
    sub-spans: below it ``s**k`` is under ``e**-50`` of ``b**k``, and the
    integrand's share about ``50**2 e**-50 / 2 = 2.4e-19``.

    Each node's ``s - a`` and ``b - s`` are sums of nonnegative terms from
    its sub-span's own float ends, so they keep their relative accuracy
    near the span's ends; the integrand takes them in units of ``b``.
    ``(s/b)**k`` is ``exp(k log1p(-(b - s)/b))`` above ``b/2``: a node's
    rounding moves it by about ``k eps (b - s)/s`` relative, where it is
    below ``e**(-k (b - s)/b)`` of its peak, so by at most about ``2 eps /
    e`` of the peak.  Below ``b/2``, reached only where ``k < 72``, it is
    the power of ``s/b``, moved by up to ``k eps/2``.

    Above ``_MAX_SPAN_POWER = 50 / (4 eps)``, about 5.6e16, the window
    spans fewer than four floats (they lie at most ``eps b`` apart), the
    rounding of its start moves the dropped share, and a span not from 0
    raises :class:`DomainError`: at ``k = 1e17`` and ``b`` just above a
    power of two the rule is off by 7e-14, and from about ``k = 9e17`` the
    window is empty.
    """
    if a == 0.0:
        x = k + (1.0 + left)  # the integers summed first: k + 1 would round
        return math.factorial(right) / math.prod(x + j for j in range(right + 1))
    if k > _MAX_SPAN_POWER:
        raise DomainError(f"the span rule does not resolve s**{k!r}: above "
                          f"s**{_MAX_SPAN_POWER:.3g} its window spans under four floats")
    grow = max(1.0, k / 8.0)  # sub-spans per halving of s
    start = a if grow == 1.0 else max(a, b * math.exp(-_WINDOW / k))
    # the ends in log2, as b / start may overflow floats from a subnormal a
    log_start = math.log2(start)
    span = math.log2(b) - log_start
    m = max(math.ceil(span * grow), 1)
    ends = np.exp2(log_start + span * (np.arange(m + 1) / m))
    ends[0], ends[-1] = start, b
    lo, hi = ends[:-1, None], ends[1:, None]
    h = hi - lo
    rest = ((b - hi) + h * (1.0 - _GL_NODES)) / b  # (b - s)/b
    # s/b below the least normal float is raised to it, so that its power
    # stays finite for -1 < k < 0; such a node's h/b and (s - a)/b are below
    # it too, so it adds less than that float to the sum
    f = np.where(rest < 0.5, np.exp(k * np.log1p(-np.minimum(rest, 0.5))),
                 np.maximum((lo + h * _GL_NODES) / b, _TINY) ** k)
    f *= (((lo - a) + h * _GL_NODES) / b) ** left * rest**right
    return float(h[:, 0] @ (f @ _GL_WEIGHTS)) / b


class _Stationarity(NamedTuple):
    residual: np.ndarray
    t_up: np.ndarray
    t_dn: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    s_lo: np.ndarray
    jac_diag: np.ndarray
    floor: np.ndarray  # one per row


def _stationarity(xi: np.ndarray, p: np.ndarray) -> _Stationarity:
    """Stationarity residual, the terms of its derivatives and its rounding
    floor, row by row.

    ``xi`` holds one set of at least three breakpoints per row and ``p`` one
    exponent per row.  The residual ``t_dn - t_up`` is ``2p`` times ``x_k``
    minus the midpoint of its cuts, formed as ``p ((1 - θ_{k-1}) Δ_{k-1} -
    θ_k Δ_k)`` from the cuts' fractions (:func:`_cut_terms`) and the gaps
    ``Δ`` between breakpoints, never from a difference of absolute cuts.
    Entry k of each band belongs to interior point k; the Newton Jacobian's
    sub- and super-diagonal are ``d_lo[:, 1:]`` and ``d_hi[:, :-1]``.

    The bands differentiate the cuts: for a pair ``(a, b)``, ``dt/db = (p-1)
    (1 - θ) (Δ/b) / g`` and ``dt/da = (p-1) θ (Δ/b) (a/b)**(p-2) / g``, with
    ``L`` and ``g`` from :func:`_cut_terms` and the powers of ``a/b`` as
    ``exp`` of multiples of ``-L``.  Nothing subtracts two powers.  Every
    entry is elementwise in its row, so a batched row equals the row alone.

    ``floor`` is each row's rounding floor, ``eps (max_k (Σ_k / 2 + 16 (t_up
    + t_dn)_k) + p width)``: rounding the breakpoints moves entry k by up
    to ``eps/2 Σ_k``, ``Σ_k = Σ_j |dr_k/dx_j| x_j = x_k J_kk - s_lo - x_{k+1}
    d_hi`` (Euler); an evaluation errs by up to ``8 eps (t_up + t_dn)``,
    counted twice; the equally spaced start adds ``p eps width`` at ``p =
    2``.  On ``[l, l + w]`` it is about ``p eps l``, and on ``[0, w]`` a few
    ``p eps w``.
    """
    pc = p[:, None]
    q = pc - 1.0
    pq = pc * q
    mid, hi = xi[:, 1:-1], xi[:, 2:]
    delta = np.diff(xi, axis=1)

    # p times mid's distances to the tangent cuts above and below it
    theta, rest, ratio, gap = _cut_terms(xi[:, :-1], xi[:, 1:], pc)
    t_up = pc * (theta[:, 1:] * delta[:, 1:])
    t_dn = pc * (rest[:, :-1] * delta[:, :-1])
    residual = t_dn - t_up

    # derivatives of the residual at mid w.r.t. each neighbor; s_lo is lo
    # times the one at lo, which stays finite at lo == 0
    d_hi = -pq * (rest[:, 1:] * delta[:, 1:]) / (hi * gap[:, 1:])
    from_lo, ratio_lo, gap_lo = -pq * (theta[:, :-1] * delta[:, :-1]), ratio[:, :-1], gap[:, :-1]
    s_lo = from_lo * np.exp(-q * ratio_lo) / gap_lo
    # at lo == 0 (ratio inf) the factor (lo/mid)**(p-2) is inf below p = 2
    # and 0 above, as it may overflow to from a tiny lo; at p == 2 it is 1,
    # where (1 - q) * ratio would be 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        d_lo = from_lo * np.exp(np.where(q == 1.0, 0.0, (1.0 - q) * ratio_lo)) / (mid * gap_lo)
    # Euler (the residual is homogeneous of degree 1): x_k J_kk = residual + reach
    reach = -s_lo - hi * d_hi
    jac_diag = (residual + reach) / mid
    half_sigma = reach + 0.5 * residual
    floor = _EPS * ((half_sigma + 16.0 * (t_up + t_dn)).max(axis=1) + p * (xi[:, -1] - xi[:, 0]))
    return _Stationarity(residual, t_up, t_dn, d_lo, d_hi, s_lo, jac_diag, floor)


class GradientSystem(NamedTuple):
    """First- and second-order data of the volume at fixed breakpoints.

    ``residual`` is the rescaled stationarity system whose unique zero is
    the optimal placement; it vanishes exactly where ``grad`` does.  The
    Hessian of the volume in the interior breakpoints is the symmetric
    tridiagonal matrix with diagonal ``hess_diag`` and off-diagonal
    ``-hess_offdiag``; the Newton Jacobian of ``residual`` is the separate
    (non-symmetric) tridiagonal held in ``jac_sub/jac_diag/jac_sup``.
    Equal only to itself.
    """

    p: float
    xi: np.ndarray
    residual: np.ndarray  # stationarity system, one entry per interior point
    grad: np.ndarray  # partial volume derivatives, same layout
    hess_diag: np.ndarray
    hess_offdiag: np.ndarray  # positive couplings; Hessian entries are negated
    coupling: np.ndarray  # couplings of all n adjacent pairs, boundary pair first
    jac_sub: np.ndarray
    jac_diag: np.ndarray
    jac_sup: np.ndarray

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def hessian(self) -> np.ndarray:
        m = self.hess_diag.size
        h = np.zeros((m, m))
        h[np.arange(m), np.arange(m)] = self.hess_diag
        if m > 1:
            k = np.arange(m - 1)
            h[k, k + 1] = h[k + 1, k] = -self.hess_offdiag
        return h


def gradient_system(pf: PowerFn, bp: Breakpoints) -> GradientSystem:
    """Assemble residual, gradient, Hessian and Newton Jacobian at ``bp``.

    Needs at least one interior breakpoint.  ``residual`` is ``2p`` times
    each ``x_k`` minus the midpoint of its ratio-form cuts, and every other
    entry is built from the same cuts (:func:`_stationarity`), so intervals
    starting at zero work for every ``p > 1``.  There the boundary coupling
    ``coupling[0]`` is its ``lower -> 0`` limit: ``inf`` below ``p = 2``, 0
    above.  Raises :class:`DomainError` when the gradient overflows floats.
    """
    if pf.interval != bp.interval:
        raise DomainError("breakpoints cover a different interval than the function")
    if bp.n < 2:
        raise DomainError("need at least one interior breakpoint")
    p = float(pf.p)
    xi = bp.xi
    mid, hi = xi[1:-1], xi[2:]

    st = _stationarity(xi[None, :], np.array([p]))
    residual, t_up, t_dn = st.residual[0], st.t_up[0], st.t_dn[0]
    mid_p2 = mid ** (p - 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        grad = -(p - 1.0) * mid_p2 / (6.0 * p) * (t_up**2 - t_dn**2)
    if not np.isfinite(grad).all():
        iv = pf.interval
        raise DomainError(
            f"the volume gradient of x**{p!r} on [{iv.lower!r}, {iv.upper!r}] overflows floats"
        )

    # The Hessian coupling of a tangent pair, n1 * n2 / den up to a factor,
    # is w times a product of stationarity terms at an interior point k:
    # t_dn * -d_lo for the pair left of k, t_up * -d_hi at the last k for the
    # last pair.  (x_{k-1}/x_k) times the left coupling is w * t_dn * -s_lo
    # / x_k, which stays finite at lower == 0, where the left coupling of
    # the first point diverges below p = 2; only its scaled product is used.
    w = (p - 1.0) / (3.0 * p) * mid_p2
    coupling = np.append(w * t_dn * -st.d_lo[0], w[-1] * t_up[-1] * -st.d_hi[0, -1])
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
    breakpoints; both raise :class:`DomainError`.  The gradient counts as
    zero where the residual is within its rounding floor
    (:func:`_stationarity`), as at a Newton optimum: each gradient entry
    is a positive multiple of its residual entry, so the two vanish together.
    """
    if bp.n < 3:
        raise DomainError("bordered test needs at least two interior breakpoints")
    sys = gradient_system(pf, bp)
    if np.abs(sys.residual).max() <= _stationarity(bp.xi[None, :], np.array([sys.p])).floor[0]:
        raise DomainError("gradient vanishes here; the bordered test does not apply")
    m = sys.grad.size
    b = np.zeros((m + 1, m + 1))
    b[:m, :m] = sys.hessian()
    b[:m, m] = b[m, :m] = sys.grad
    return np.linalg.eigvalsh(b)


def volume_naive_quadratic(iv: Interval) -> float:
    """Volume of the naive relaxation of ``x**2`` on the interval."""
    return closed_form_volume(RelaxationKind.NR, PowerFn(2.0, iv), None)


def volume_perspective_quadratic(iv: Interval) -> float:
    """Volume of the exact perspective relaxation of ``x**2``."""
    return closed_form_volume(RelaxationKind.PR, PowerFn(2.0, iv), None)


def volume_extended_naive_quadratic(iv: Interval) -> float:
    """Naive-relaxation volume of ``x**2`` linearly extended to the origin."""
    return closed_form_volume(RelaxationKind.E_NR, PowerFn(2.0, iv), None)


def volume_pl_extended_naive(f: ConvexFunction, bp: Breakpoints) -> float:
    """Naive-relaxation volume of the PL under-estimator extended to zero.

    Requires ``f`` increasing with its slope at the left endpoint at least
    the chord slope from the origin, so the extension stays convex;
    violations raise :class:`HypothesisViolated`.  At ``lower == 0`` no
    extension is needed and the formula applies as is.  O(n); it reads the
    tangent cuts by ``f``'s rule and raises as
    :func:`~perspex.underestimator.build_underestimator` does, and
    :class:`DomainError` without breakpoints.
    """
    if bp is None:
        raise DomainError("plenr needs breakpoints")
    if f.interval != bp.interval:
        raise DomainError("function and breakpoints cover different intervals")
    xi = bp.xi
    fx, d = f._values(xi)
    cuts = f._cuts(xi, fx, d)
    _check_brackets(xi, cuts)
    lo, up = float(xi[0]), float(xi[-1])
    f_lo, f_up = float(f.fn(lo)), float(f.fn(up))
    slack = 4.5 * _EPS  # f, f' within 2 eps each, so f(lo)/lo within 2.5
    if d[0] < -slack * float(np.abs(d).max()):
        raise HypothesisViolated("function must be increasing on the interval")
    if lo > 0.0 and d[0] < f_lo / lo - slack * max(abs(d[0]), abs(f_lo / lo)):
        raise HypothesisViolated(
            "slope at the left endpoint must be at least the chord slope from the origin"
        )
    t = np.concatenate((xi[:1], cuts, xi[-1:]))
    s = float(
        (((t[1:] ** 2 - t[:-1] ** 2) / 2.0 - (t[1:] ** 3 - t[:-1] ** 3) / (6.0 * up)) * d).sum()
    )
    return (
        s
        - (up + 2.0 * lo) / 6.0 * (f_up - f_lo)
        - (up - lo) / (6.0 * up) * (up * f_up - lo * f_lo)
    )


def closed_form_volume(kind: RelaxationKind, pf: PowerFn, bp: Breakpoints | None) -> float:
    """Exact volume of relaxation ``kind`` of ``pf``, at every exponent.

    The piecewise-linear kinds need breakpoints, and raise
    :class:`DomainError` without them.  Integrating the oracle's
    columns over ``w`` gives ``pr`` as plpr's chord term, ``p (p-1)/6 ∫ (s -
    l)(u - s) s**(p-2)``; ``nr`` adds ``κ/3 ∫ s**p`` with ``κ = (p-1)/(p+2)``,
    and ``enr`` adds ``κ/3 (∫ f - f(l) l**2 (1/l - 1/u))``, which is ``κ (p+2)
    / (3u) ∫ (u - s) s**p``: nonnegative span integrals
    (:func:`_span_integral`), so nothing cancels.  From ``l = 0``, ``p
    (p-1)`` times pr's Beta integral is the one ratio ``(p-1)/(p+1)``.
    Every kind but plenr is ``u**(p+1)`` times a dimensionless sum
    (:func:`_scaled`), so it overflows only where the volume does.  Raises
    :class:`DomainError`, with no warning, where the volume overflows
    floats or the span rule refuses the exponent.
    """
    if kind.piecewise_linear and bp is None:
        raise DomainError(f"{kind.value} needs breakpoints")
    p, lo, up = pf.p, pf.interval.lower, pf.interval.upper
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
            if kind is RelaxationKind.PL_PR:
                vol = volume_power_closed_form(pf, bp)
            elif kind is RelaxationKind.PL_E_NR:
                vol = volume_pl_extended_naive(pf.oracle(), bp)
            else:  # pr, to which nr and enr each add a term, in units of up**(p+1)
                unit = ((p - 1.0) / (6.0 * (p + 1.0)) if lo == 0.0
                        else p * (p - 1.0) / 6.0 * _span_integral(lo, up, 1, 1, p - 2.0))
                if kind is RelaxationKind.NR:
                    unit += (p - 1.0) / (p + 2.0) / 3.0 * _span_integral(lo, up, 0, 0, p)
                elif kind is RelaxationKind.E_NR:
                    unit += (p - 1.0) / 3.0 * _span_integral(lo, up, 0, 1, p)
                vol = _scaled(unit, up, p)
    except OverflowError:  # Python floats raise where numpy returns inf
        vol = math.inf
    return _finite(vol, kind, pf)


def refinement_thresholds(iv: Interval, gap: float) -> tuple[int, int, float]:
    """Piece counts making the PL variants come within ``gap`` of their limits.

    Returns ``(n1, n2, ratio)``: the least piece counts for which the
    equally-spaced quadratic PL+E+NR (resp. PL+PR) volume exceeds its
    n-to-infinity limit by less than ``gap``, and the exact real ratio of
    the two bounds, ``sqrt(1.5 * (1 - lower/upper))``, which never exceeds
    ``sqrt(1.5)``.  Raises :class:`DomainError` where a bound is not finite
    in floats.
    """
    if not gap > 0.0:
        raise DomainError("gap must be positive")
    w, up = iv.width, iv.upper
    # w**2 / sqrt(24 up gap), with no product that can underflow to 0
    bound_naive = w / math.sqrt(24.0) * math.sqrt(w / up) * math.sqrt(w / gap)
    try:
        bound_persp = math.sqrt(w**3 / gap) / 6.0
    except OverflowError:  # Python floats raise where numpy returns inf
        bound_persp = math.inf
    if not (math.isfinite(bound_naive) and math.isfinite(bound_persp)):
        raise DomainError(
            f"the piece-count bounds on [{iv.lower!r}, {up!r}] at gap {gap!r} "
            "overflow floats"
        )
    # least integers strictly above the bounds, exact-integer bounds bump up
    n1 = int(math.floor(bound_naive)) + 1
    n2 = int(math.floor(bound_persp)) + 1
    ratio = math.sqrt(1.5 * (1.0 - iv.lower / up))
    return n1, n2, ratio
