"""Seeded stratified Monte-Carlo volumes for the relaxation bodies.

Ground truth for every closed form in the package, kept deliberately
independent of them: each body's lower bound is evaluated straight from its
defining inequalities.

Every body lies in one cone, cut out by ``lower*z <= x <= upper*z``,
``y >= 0`` and the secant plane through ``(lower, f(lower), 1)`` and
``(upper, f(upper), 1)``: the cone with apex at the origin over the
trapezoid ``{lower <= w <= upper, 0 <= v <= chord(w)}`` at ``z = 1``, of
volume ``cone_volume = (upper - lower) * (f(lower) + f(upper)) / 6``.

The oracle draws no ``y``: it draws columns ``(w, z)`` on the footprint
rectangle ``[lower, upper] x [0, 1]`` (``w = x / z``) and integrates ``y``
exactly over each column ``0 <= y <= z * chord(w)``.  With ``g`` the
column's share in the body (see ``_mc_fallback``) and ``dx = z dw``, the
volume is ``width * E[z**2 * chord(w) * g]`` for ``(w, z)`` uniform on the
rectangle.  For the perspective kinds (pr and plpr) ``g`` does not depend
on ``z``, so ``z**2`` integrates to a third: ``width * E[chord(w) * g] /
3`` over ``w`` alone.  The kernel returns these column lengths ``h``;
``hits`` counts the columns that meet the body (``h > 0``).

Sampling is stratified with two points per stratum.  ``samples // 2`` equal
strata tile the footprint: intervals of ``w`` for the perspective kinds,
and cells of the most nearly square ``w x z`` grid for the others.  Each
stratum takes its two points (one uniform per coordinate each) from
consecutive draws of one stream, ``PCG64(SeedSequence(seed))``, in stratum
order.  The estimate is ``width`` times the mean of ``h``, and its standard
error comes from each stratum's pair difference, ``width * sqrt(sum((h1 -
h2)**2) / 4) / strata``; both are plain sums, of lengths taken relative to
``f(upper)``, the longest a column can be, so that no square over- or
underflows.  Columns are scored in chunks
of ``BLOCK_SIZE``, which keeps every temporary cache-sized, and the chunks'
sums are added in stratum order on the calling thread.  The numpy kernel in
``_mc_fallback`` scores the chunks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf, isfinite, isqrt, sqrt

import numpy as np

from .errors import DomainError
from .power import PowerFn, RelaxationKind
from .underestimator import Breakpoints, Interval, PLUnderEstimator, build_underestimator

from . import _mc_fallback as _kernel

KERNEL_BACKEND = "numpy"

BLOCK_SIZE = 1 << 13  # columns per kernel call
# 2048 strata: the stderr rests on 2048 independent pair differences, so
# where the strata contribute alike it is itself good to about
# 1/sqrt(2 * 2048) = 1.6%, and a 4-sigma bound to about 0.06 sigma
MIN_SAMPLES = 1 << 12


@dataclass(frozen=True, eq=False)
class BodySpec:
    """One relaxation body reduced to the data its column kernel needs.

    ``cone_volume``, ``upper_height`` and ``lower_height`` describe the cone
    every body lies in (see the module docstring).
    """

    kind: RelaxationKind
    interval: Interval
    p: float
    estimator: PLUnderEstimator | None
    tangent_x: np.ndarray | None  # the breakpoints: piece k's tangency point is tangent_x[k]
    secant_z: float  # z coefficient of the shared upper bound plane
    secant_x: float  # x coefficient of the shared upper bound plane
    extension_slope: float  # chord slope from the origin, 0 when lower == 0
    upper_height: float  # f(upper): the cone's height at x = upper, z = 1
    lower_height: float  # f(lower): the cone's height at x = lower, z = 1

    @property
    def cone_volume(self) -> float:
        """Volume of the sampled cone, ``(upper - lower) * (f(lower) + f(upper)) / 6``."""
        return self.interval.width * (self.lower_height + self.upper_height) / 6.0


def make_body(
    kind: RelaxationKind, power: PowerFn, breakpoints: Breakpoints | None = None
) -> BodySpec:
    """Assemble the kernel data of one relaxation body.

    The piecewise-linear kinds need breakpoints to build the tangent
    under-estimator from; the others ignore them.  Raises ``DomainError``
    when the sampled cone is not representable in floats: ``f(upper)``
    overflows or underflows to zero, or the cone's volume or secant plane
    does not fit.
    """
    iv = power.interval
    lo, up = iv.lower, iv.upper
    try:
        f_lo, f_up = float(power(float(lo))), float(power(float(up)))
    except OverflowError:
        f_up = inf
    if not 0.0 < f_up < inf:
        raise DomainError(
            f"f(upper) = {up!r}**{power.p!r} rounds to {f_up!r}; "
            "the Monte-Carlo cone needs a positive finite height"
        )
    estimator = None
    if kind.piecewise_linear:
        if breakpoints is None:
            raise DomainError(f"{kind.value} needs breakpoints")
        if breakpoints.interval != iv:
            raise DomainError("breakpoints cover a different interval than the function")
        estimator = build_underestimator(power.oracle(), breakpoints)
    slope = (f_up - f_lo) / (up - lo)
    body = BodySpec(
        kind=kind,
        interval=iv,
        p=power.p,
        estimator=estimator,
        tangent_x=None if breakpoints is None else breakpoints.xi,
        secant_z=f_lo - slope * lo,
        secant_x=slope,
        extension_slope=f_lo / lo if lo > 0.0 else 0.0,
        upper_height=f_up,
        lower_height=f_lo,
    )
    if not (0.0 < body.cone_volume < inf and isfinite(body.secant_x) and isfinite(body.secant_z)):
        raise DomainError(
            f"the Monte-Carlo cone of x**{power.p!r} on [{lo!r}, {up!r}] overflows floats"
        )
    return body


@dataclass(frozen=True)
class McEstimate:
    """Stratified Monte-Carlo volume estimate with its standard error.

    ``mean = width * mean(h)`` over the ``samples`` column lengths ``h``, and
    ``stderr = width * sqrt(sum((h1 - h2)**2) / 4) / strata`` over the
    strata's pairs (see the module docstring).  ``hits`` counts the sampled
    columns that meet the body (``h > 0``).  ``cone_volume`` is the volume of
    the cone every body lies in (``BodySpec.cone_volume``), reported for
    reference; it does not scale the estimate.
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    hits: int
    cone_volume: float


def _integer(name: str, value) -> int:
    if isinstance(value, bool):  # operator.index takes True for 1
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _grid(strata: int) -> tuple[int, int]:
    """``(nw, nz)``: the most nearly square grid of ``strata`` cells, with
    ``nz <= nw`` rows in ``z``."""
    nz = isqrt(strata)
    while strata % nz:
        nz -= 1
    return strata // nz, nz


def mc_volume(
    body: BodySpec, samples: int, seed: int, workers: int | None = None
) -> McEstimate:
    """Estimate the body volume from ``samples`` columns, two in each of
    ``samples // 2`` equal strata of the footprint rectangle.

    An odd ``samples`` scores one column fewer; the estimate reports the
    count it scored.  Deterministic in ``(seed, samples)``: rerunning never
    changes a bit of the estimate, and scoring in chunks gives the bits of
    one pass over the same draws.  A different ``samples`` moves every
    stratum, so it redraws every column.  ``samples`` and ``seed`` must be
    integers; ``workers`` is accepted, must be ``None`` or an integer ``>=
    0``, and has no effect.
    """
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if workers is not None and _integer("workers", workers) < 0:
        raise DomainError("worker count must be >= 0")
    if samples < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in an unsigned 64-bit integer")

    strata = samples // 2
    w_only = body.kind in _kernel.W_ONLY_KINDS
    nw, nz = (strata, 1) if w_only else _grid(strata)
    lo, up, width = body.interval.lower, body.interval.upper, body.interval.width
    step = width / nw
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    hits, total, spread = 0, 0.0, 0.0
    for start in range(0, strata, BLOCK_SIZE // 2):
        cell = np.arange(start, min(start + BLOCK_SIZE // 2, strata))
        # the draws run stratum by stratum; each coordinate is laid out as
        # (point, stratum), so that every row below is contiguous
        if w_only:  # per stratum: the w offsets of its two points
            w = np.ascontiguousarray(gen.random((cell.size, 2)).T)
            w += cell
            z = None
        else:  # per stratum and point: the (w, z) offsets
            w, z = np.ascontiguousarray(gen.random((cell.size, 2, 2)).transpose(2, 1, 0))
            w += cell // nz
            z += cell % nz
            z /= nz
            z = z.ravel()
        w *= step
        w += lo
        np.minimum(w, up, out=w)  # rounding must not step past the upper plane
        count, h = _kernel.count_hits(body, w.ravel(), z)
        h /= body.upper_height  # f(upper) bounds every column: no square overflows
        d = h[: cell.size] - h[cell.size :]
        hits += count
        total += float(h.sum())
        spread += float(np.einsum("i,i", d, d))

    scale = width * body.upper_height
    return McEstimate(
        mean=scale * total / (2 * strata),
        stderr=scale * sqrt(spread / 4.0) / strata,
        samples=2 * strata,
        seed=seed,
        hits=hits,
        cone_volume=body.cone_volume,
    )
