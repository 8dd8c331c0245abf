"""Seeded stratified Monte-Carlo volumes for the relaxation bodies.

Ground truth for every closed form in the package, kept deliberately
independent of them: each body's lower bound is evaluated straight from its
defining inequalities.

Every body lies in one cone, cut out by ``lower*z <= x <= upper*z``,
``y >= 0`` and the secant plane through ``(lower, f(lower), 1)`` and
``(upper, f(upper), 1)``: the cone with apex at the origin over the
trapezoid ``{lower <= w <= upper, 0 <= v <= chord(w)}`` at ``z = 1``, of
volume ``cone_volume = (upper - lower) * (f(lower) + f(upper)) / 6``.

The oracle draws neither ``y`` nor ``z``: it draws points ``w`` of
``[lower, upper]`` (``w = x / z``) and integrates exactly over each column,
the part of the cone over ``w``.  With ``dx = z dw`` and ``L`` the body's
lower bound, the column's length in the body is ``h(w) = ∫₀¹ z (z chord(w)
- L(z w)) dz``, and the volume is ``width * E[h(w)]`` for ``w`` uniform on
``[lower, upper]``.  The kernel (see ``_mc_fallback``) evaluates ``h`` in
closed form for every kind; ``hits`` counts the columns that meet the body
(``h > 0``).

Sampling is stratified with two columns per stratum.  ``samples // 2``
equal intervals of ``w`` tile ``[lower, upper]``, and each takes its two
offsets ``t = (w - lower) / width`` from consecutive draws of one stream,
``PCG64(SeedSequence(seed))``, in stratum order.  The estimate is
``width`` times the mean of ``h``, and its standard error comes from each
stratum's pair difference, ``width * sqrt(sum((h1 - h2)**2) / 4) /
strata``; both are plain sums of the kernel's lengths, which it returns in
a unit of the body's (``_mc_fallback.column_unit``) so that no square over-
or underflows, and ``width``, the unit and the kernel's factor 3 scale the
sums once.  Columns are scored in chunks of ``BLOCK_SIZE``, which keeps
every temporary cache-sized, and the chunks' sums are added in stratum
order on the calling thread.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf, sqrt

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

# stratum index of each column of a chunk, laid out as the draws: a stratum per row
_CELLS = np.repeat(np.arange(BLOCK_SIZE // 2, dtype=float), 2).reshape(-1, 2)
_CELLS.setflags(write=False)


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
    overflows or underflows to zero, or the cone's volume does not fit.
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
    body = BodySpec(
        kind=kind,
        interval=iv,
        p=power.p,
        estimator=estimator,
        tangent_x=None if breakpoints is None else breakpoints.xi,
        upper_height=f_up,
        lower_height=f_lo,
    )
    if not 0.0 < body.cone_volume < inf:
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


def mc_volume(
    body: BodySpec, samples: int, seed: int, workers: int | None = None
) -> McEstimate:
    """Estimate the body volume from ``samples`` columns, two in each of
    ``samples // 2`` equal intervals of ``[lower, upper]``.

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
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    hits, total, spread = 0, 0.0, 0.0
    for start in range(0, strata, BLOCK_SIZE // 2):
        stop = min(start + BLOCK_SIZE // 2, strata)
        # per stratum, one row: the offsets (w - lower) / width of its two columns
        t = gen.random((stop - start, 2))
        cells = _CELLS[: stop - start]
        t += (cells + start) if start else cells  # exact integers: one rounding
        t /= strata  # a quotient of at most strata by strata: never past upper
        count, h = _kernel.count_hits(body, t)
        d = h[:, 0] - h[:, 1]
        hits += count
        total += float(h.sum())
        spread += float(np.dot(d, d))

    scale = body.interval.width * _kernel.column_unit(body) / 3.0
    return McEstimate(
        mean=scale * total / (2 * strata),
        stderr=scale * sqrt(spread / 4.0) / strata,
        samples=2 * strata,
        seed=seed,
        hits=hits,
        cone_volume=body.cone_volume,
    )
