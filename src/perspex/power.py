"""Closed-form volume analytics for power functions ``x**p`` with ``p > 1``.

Everything here evaluates in O(n) for n linearization pieces (the volumes
in O(n + log(upper/lower)) quadrature spans): the exact volume of every
relaxation at every exponent, that of the perspective relaxation of the
tangent under-estimator with its gradient and tridiagonal Hessian in the
interior breakpoints, and the stationarity residual driving Newton's
method.

Powers are plain ``**``, whose exponents here are positive, so ``0.0**q``
is 0 already.  The Newton terms read only the ratio-form tangent cuts and
``x**(p-2)`` at interior points, which are positive; only the boundary
coupling ``b0`` takes a limit at ``lower == 0``.
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
    build_underestimator,
)

_MIN_P = 1.0 + 1e-9


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
    """Exact volume of the PL perspective relaxation for ``f(x) = x**2``.

    A third of the chord-to-parabola area ``w**3/6`` plus, per piece of
    width ``h``, a third of the parabola-to-tangents area ``h**3/12``: a sum
    of nonnegative terms, so nothing cancels."""
    return (bp.interval.width**3 + 0.5 * float((np.diff(bp.xi) ** 3).sum())) / 18.0


def volume_power_closed_form(pf: PowerFn, bp: Breakpoints) -> float:
    """Exact volume of the PL perspective relaxation for ``x**p``.

    A third of the area between the chord and the tangent under-estimator,
    written as a sum of nonnegative integrals of ``f'' = p (p-1) s**(p-2)``:
    the chord-to-``f`` area ``∫ (s - l)(u - s) f''/2`` over ``[l, u]``, and
    for each piece ``[a, b]`` with tangent intersection ``t`` the
    ``f``-to-tangent areas ``∫ (t - s)**2 f''/2`` over ``[a, t]`` and
    ``∫ (s - t)**2 f''/2`` over ``[t, b]``.  ``t`` is taken in ratio form
    (:func:`_tangent_cuts`), and the integrals by :func:`_span_integrals`.
    Nothing cancels, so the volume keeps its relative accuracy on narrow
    intervals far from zero, and no intermediate grows faster than the
    volume.  Agrees with the fan-triangulation volume of the corresponding
    under-estimator; this form never constructs the tangent vertices.
    """
    if bp is None:
        raise DomainError("plpr needs breakpoints")
    if pf.interval != bp.interval:
        raise DomainError("breakpoints cover a different interval than the function")
    p = pf.p
    if p == 2.0:
        return volume_quadratic(bp)
    xi = bp.xi
    a, b = xi[:-1], xi[1:]
    t = _tangent_cuts(a, b, p)
    _check_brackets(xi, t)
    lo, up = xi[:1], xi[-1:]
    starts = np.concatenate((lo, a, t))
    ends = np.concatenate((up, t, b))
    # powers of (s - start) and (end - s) in each integrand
    left = np.repeat([1, 0, 2], [1, a.size, a.size])
    right = np.repeat([1, 2, 0], [1, a.size, a.size])
    return p * (p - 1.0) / 6.0 * float(_span_integrals(starts, ends, left, right, p - 2.0).sum())


def _tangent_cuts(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Where the tangents of ``x**p`` at ``a < b`` meet: the one rule, in
    ratio form (:func:`_cut_terms`).  ``p`` may hold one exponent per row of
    ``a``."""
    return _cut_terms(a, b, p)[0]


def _cut_terms(a: np.ndarray, b: np.ndarray, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(t, L, g)`` per pair ``a < b``: the tangent cut ``t``, ``L =
    log(b/a)`` and ``g = 1 - (a/b)**(p-1)``, which lies in ``(0, 1]``.

    ``t = a (p-1)/p * expm1(p L) / expm1((p-1) L)`` with ``L =
    log1p((b - a)/a)``, written as ``b (p-1)/p * expm1(-p L) / -g`` with
    ``g = -expm1(-(p-1) L)`` so that no term overflows however large ``b/a``
    is, and ``a = 0`` (``L = inf``, ``g = 1``) gives ``b (p-1)/p``.  No
    difference of powers, so ``t`` and ``g`` keep their relative accuracy
    however close ``b/a`` is to 1.  ``t`` is clipped to ``[a, b]`` against
    rounding.
    """
    q = p - 1.0
    with np.errstate(divide="ignore"):  # a = 0
        ratio = np.log1p((b - a) / a)
    gap = -np.expm1(-q * ratio)
    t = b * (q / p) * (np.expm1(-p * ratio) / -gap)
    np.maximum(t, a, out=t)
    np.minimum(t, b, out=t)
    return t, ratio, gap


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
_MAX_SPAN_POWER = 1e6  # where a node's rounding moves s**k by k eps/2 = 1.1e-10


def _span_integrals(a, b, left, right, k: float, unit_end: bool = False) -> np.ndarray:
    """``∫_a^b (s - a)**left * (b - s)**right * s**k ds`` per span, ``b - s``
    in units of ``b`` if ``unit_end``; ``left, right <= 2``, ``k > -1``.

    A span from 0 takes the Beta closed form ``b**(k + left + right + 1) B(k
    + 1 + left, right + 1)``.  The others are split at geometric points into
    sub-spans of end ratio at most ``2**(1/max(1, k/8))``, where ``s**k`` is
    analytic well beyond the sub-span and varies by at most ``2**8``, and
    each takes the 16-point Gauss-Legendre rule, whose own error is below
    1e-16.  Above ``k = 8`` only ``[b exp(-_WINDOW/k), b]`` is split, into at
    most 10 sub-spans: below it ``s**k`` is under ``e**-50`` of ``b**k``,
    and the integrand's share about ``50**2 e**-50 / 2 = 2.4e-19``.  A
    node's rounding moves ``s**k`` by up to ``k eps/2``, so above
    ``_MAX_SPAN_POWER`` a span not from 0 raises :class:`DomainError`.
    ``s - a`` and ``b - s`` are sums of nonnegative terms, so they keep
    their relative accuracy near the span's ends.
    """
    out = np.empty(a.shape)
    zero = a == 0.0
    if zero.any():
        # B(x, r + 1) = r! / (x (x + 1) ... (x + r)) with x = k + 1 + left
        x = k + 1.0 + left[zero]
        r = right[zero]
        beta = np.where(r == 0, 1.0 / x, np.where(r == 1, 1.0 / (x * (x + 1.0)),
                                                  2.0 / (x * (x + 1.0) * (x + 2.0))))
        # one factor b apart and the integers summed first: k + 1 would round
        out[zero] = b[zero] ** (k + (left[zero] + (0 if unit_end else r))) * b[zero] * beta
    live = ~zero
    if live.any():
        if k > _MAX_SPAN_POWER:
            raise DomainError(f"the span rule does not resolve s**{k!r}: a node's rounding "
                              f"moves it by up to {k * np.finfo(float).eps / 2:.2g} relative")
        a, b, left, right = a[live], b[live], left[live], right[live]
        grow = max(1.0, k / 8.0)  # sub-spans per halving of s
        start = a if grow == 1.0 else np.maximum(a, b * math.exp(-_WINDOW / k))
        parts = np.maximum(np.ceil(np.log2(b / start) * grow), 1.0).astype(np.intp)
        span = np.repeat(np.arange(a.size), parts)
        # index of each sub-span within its span, and the span's sub-span count
        j = np.arange(span.size) - np.repeat(np.cumsum(parts) - parts, parts)
        m = parts[span]
        sa, sc, sb = a[span], start[span], b[span]
        lo = np.where(j == 0, sc, sc * (sb / sc) ** (j / m))
        hi = np.where(j == m - 1, sb, sc * (sb / sc) ** ((j + 1) / m))
        h = (hi - lo)[:, None]
        s = lo[:, None] + h * _GL_NODES
        from_a = (lo - sa)[:, None] + h * _GL_NODES
        to_b = (sb - hi)[:, None] + h * (1.0 - _GL_NODES)
        if unit_end:
            to_b /= sb[:, None]
        f = s**k
        f *= from_a ** left[span, None]
        f *= to_b ** right[span, None]
        sub = (f @ _GL_WEIGHTS) * h[:, 0]
        out[live] = np.bincount(span, weights=sub, minlength=a.size)
    return out


class _Stationarity(NamedTuple):
    residual: np.ndarray
    t_up: np.ndarray
    t_dn: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    s_lo: np.ndarray
    jac_diag: np.ndarray


def _stationarity(xi: np.ndarray, p: np.ndarray) -> _Stationarity:
    """Stationarity residual and the terms of its derivatives, row by row.

    ``xi`` holds one set of at least three breakpoints per row and ``p`` one
    exponent per row.  The residual ``t_dn - t_up`` is ``2p`` times ``x_k``
    minus the midpoint of its ratio-form cuts, to a few ``eps * p * upper``.
    Entry k of each band belongs to interior point k; the Newton Jacobian's
    sub- and super-diagonal are ``d_lo[:, 1:]`` and ``d_hi[:, :-1]``.

    The bands differentiate the cuts: for a pair ``(a, b)`` with cut ``t``,
    ``dt/db = (p-1) (b - t) / (b g)`` and ``dt/da = (p-1) (t - a)
    (a/b)**(p-2) / (b g)``, with ``L`` and ``g`` from :func:`_cut_terms` and
    the powers of ``a/b`` as ``exp`` of multiples of ``-L``.  Nothing
    subtracts two powers.  Every entry is elementwise in its row, so a
    batched row equals the row alone.
    """
    pc = p[:, None]
    q = pc - 1.0
    pq = pc * q
    lo, mid, hi = xi[:, :-2], xi[:, 1:-1], xi[:, 2:]

    # p times mid's distances to the tangent cuts above and below it
    cut, ratio, gap = _cut_terms(xi[:, :-1], xi[:, 1:], pc)
    t_up = pc * (cut[:, 1:] - mid)
    t_dn = pc * (mid - cut[:, :-1])
    residual = t_dn - t_up

    # derivatives of the residual at mid w.r.t. each neighbor; s_lo is lo
    # times the one at lo, which stays finite at lo == 0
    d_hi = -pq * (hi - cut[:, 1:]) / (hi * gap[:, 1:])
    from_lo, ratio_lo, gap_lo = -pq * (cut[:, :-1] - lo), ratio[:, :-1], gap[:, :-1]
    s_lo = from_lo * np.exp(-q * ratio_lo) / gap_lo
    # at lo == 0 (ratio inf) the factor (lo/mid)**(p-2) is inf below p = 2
    # and 0 above; at p == 2 it is 1, where (1 - q) * ratio would be 0 * inf
    with np.errstate(invalid="ignore"):
        d_lo = from_lo * np.exp(np.where(q == 1.0, 0.0, (1.0 - q) * ratio_lo)) / (mid * gap_lo)
    # the residual is homogeneous of degree 1 in the breakpoints (Euler)
    jac_diag = (residual - s_lo - hi * d_hi) / mid
    return _Stationarity(residual, t_up, t_dn, d_lo, d_hi, s_lo, jac_diag)


def _residual_floor(p, upper):
    """``16.5 p eps upper``: a first-order bound on the rounding error of the
    residual of :func:`_stationarity` on ``[0, upper]``.  With ``u = eps/2``
    and one ulp per ``log1p`` and ``expm1``, a ratio-form cut ``t`` is within
    ``15 u t``, and the residual's own roundings add ``3 u p (hi - lo)``:
    ``p u (15 (x + hi) + 3 (hi - lo)) <= 33 p u upper``.  A residual within
    it is zero within rounding."""
    return 16.5 * np.finfo(float).eps * p * upper


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
    coupling: np.ndarray  # couplings of all n adjacent pairs, boundary included
    jac_sub: np.ndarray
    jac_diag: np.ndarray
    jac_sup: np.ndarray

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

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

    Needs at least one interior breakpoint.  ``residual`` is ``2p`` times
    each ``x_k`` minus the midpoint of its ratio-form cuts, and every other
    entry is built from the same cuts (:func:`_stationarity`), so intervals
    starting at zero work for every ``p > 1``.  There the boundary coupling
    ``b0`` is its ``lower -> 0`` limit: ``inf`` below ``p = 2``, 0 above.
    Raises :class:`DomainError` when the gradient overflows floats.
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
    (:func:`_residual_floor`), as at a Newton optimum: each gradient entry
    is a positive multiple of its residual entry, so the two vanish together.
    """
    if bp.n < 3:
        raise DomainError("bordered test needs at least two interior breakpoints")
    sys = gradient_system(pf, bp)
    if np.abs(sys.residual).max() <= _residual_floor(pf.p, bp.interval.upper):
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
    extension is needed and the formula applies as is.  O(n).
    """
    est = build_underestimator(f, bp)
    xi = bp.xi
    lo, up = float(xi[0]), float(xi[-1])
    f_lo, f_up = float(f.fn(lo)), float(f.fn(up))
    d = f._values(xi)[1]
    slack = 4.5 * np.finfo(float).eps  # f, f' within 2 eps each, so f(lo)/lo within 2.5
    if d[0] < -slack * float(np.abs(d).max()):
        raise HypothesisViolated("function must be increasing on the interval")
    if lo > 0.0 and d[0] < f_lo / lo - slack * max(abs(d[0]), abs(f_lo / lo)):
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


def closed_form_volume(kind: RelaxationKind, pf: PowerFn, bp: Breakpoints | None) -> float:
    """Exact volume of relaxation ``kind`` of ``pf``, at every exponent.

    The piecewise-linear kinds need breakpoints, and raise
    :class:`DomainError` without them.  Integrating the oracle's
    columns over ``w`` gives ``pr`` as plpr's chord term, ``p (p-1)/6 ∫ (s -
    l)(u - s) s**(p-2)``; ``nr`` adds ``κ/3 ∫ s**p`` with ``κ = (p-1)/(p+2)``,
    and ``enr`` adds ``κ/3 (∫ f - f(l) l**2 (1/l - 1/u))``, which is ``κ (p+2)
    / (3u) ∫ (u - s) s**p``: nonnegative span integrals, so nothing cancels.
    From ``l = 0``, ``p (p-1)`` times pr's Beta integral is the one ratio
    ``(p-1)/(p+1)``.  Raises :class:`DomainError`, with no warning, where the
    volume overflows floats or :func:`_span_integrals` refuses the exponent.
    """
    if kind.piecewise_linear and bp is None:
        raise DomainError(f"{kind.value} needs breakpoints")
    p, lo, up = pf.p, pf.interval.lower, pf.interval.upper

    def span(left, right, k, unit_end=False):  # the one span [lo, up]
        args = (np.array([x]) for x in (lo, up, left, right))
        return float(_span_integrals(*args, k, unit_end)[0])

    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
            if kind is RelaxationKind.PL_PR:
                vol = volume_power_closed_form(pf, bp)
            elif kind is RelaxationKind.PL_E_NR:
                vol = volume_pl_extended_naive(pf.oracle(), bp)
            else:  # pr, to which nr and enr each add a term
                vol = ((p - 1.0) / (6.0 * (p + 1.0)) * (up**p * up) if lo == 0.0
                       else p * (p - 1.0) / 6.0 * span(1, 1, p - 2.0))
                if kind is RelaxationKind.NR:
                    vol += (p - 1.0) / (p + 2.0) / 3.0 * span(0, 0, p)
                elif kind is RelaxationKind.E_NR:
                    vol += (p - 1.0) / 3.0 * span(0, 1, p, unit_end=True)
    except OverflowError:  # Python floats raise where numpy returns inf
        vol = math.inf
    if not math.isfinite(vol):
        raise DomainError(
            f"the closed-form {kind.value} volume of x**{p!r} on [{lo!r}, {up!r}] overflows floats"
        )
    return vol


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
