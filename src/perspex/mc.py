"""Seeded conditional Monte-Carlo volumes for the relaxation bodies.

Ground truth for every closed form in the package, kept deliberately
independent of them: each body's lower bound is evaluated straight from its
defining inequalities.

Every body lies in one cone, cut out by ``lower*z <= x <= upper*z``,
``y >= 0`` and the secant plane through ``(lower, f(lower), 1)`` and
``(upper, f(upper), 1)``: the cone with apex at the origin over the
trapezoid ``{lower <= w <= upper, 0 <= v <= chord(w)}`` at ``z = 1``, of
volume ``box_volume = (upper - lower) * (f(lower) + f(upper)) / 6``.

The oracle draws no ``y``: it draws columns ``(w, z)``, distributed as the
footprint coordinates ``(x / z, z)`` of a point uniform in the cone, and
integrates ``y`` exactly over each column ``0 <= y <= z * chord(w)``.  The
column's share ``g`` in the body is ``(S - L) / S``, clipped to ``[0, 1]``,
with ``S`` the secant plane and ``L`` the body's lower bound at ``(x = z*w,
z)``.  The volume is ``box_volume * E[g]``, estimated by the sample mean of
``g`` with the sample standard error; ``hits`` counts the columns that meet
the body (``g > 0``).

For the perspective kinds (pr and plpr) ``z`` cancels from ``g``, and since
``w`` and ``z`` are independent in the footprint, ``E[g]`` is the mean of
``g(w)`` under ``w``'s own marginal: these kinds draw one uniform per sample,
``w``, and the others two, ``(w, z)``.

Sampling is a pure function of ``(seed, sample index)``: samples are
partitioned into fixed blocks of ``2**16`` and block ``b`` draws from its own
keyed stream, ``PCG64(SeedSequence(seed, spawn_key=(b,)))``, numpy's
``SeedSequence(seed).spawn`` child ``b``.  A block is drawn, mapped into the
footprint and scored in chunks of ``2**13`` samples, which keeps every
temporary cache-sized; each chunk yields a ``(count, mean, M2)``
partial (``M2`` the sum of squared deviations from the chunk mean).  Blocks
run in order on the calling thread and their partials are merged in block
order.  The numpy kernel in ``_mc_fallback`` scores the chunks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from math import inf, isfinite, sqrt

import numpy as np

from .errors import DomainError
from .power import PowerFn, RelaxationKind
from .underestimator import Breakpoints, Interval, PLUnderEstimator, build_underestimator

from . import _mc_fallback as _kernel

KERNEL_BACKEND = "numpy"

BLOCK_SIZE = 1 << 16
CHUNK_SIZE = 1 << 13
MIN_SAMPLES = 10_000


@dataclass(frozen=True, eq=False)
class BodySpec:
    """One relaxation body reduced to the data its column kernel needs.

    ``box_volume`` and ``box_height`` keep their names from the bounding box
    the oracle once sampled; the sampled region is now the cone every body
    lies in (see the module docstring).
    """

    kind: RelaxationKind
    interval: Interval
    p: float
    estimator: PLUnderEstimator | None
    secant_z: float  # z coefficient of the shared upper bound plane
    secant_x: float  # x coefficient of the shared upper bound plane
    extension_slope: float  # chord slope from the origin, 0 when lower == 0
    box_height: float  # f(upper): the cone's height at x = upper, z = 1
    lower_height: float  # f(lower): the cone's height at x = lower, z = 1

    @property
    def box_volume(self) -> float:
        """Volume of the sampled cone, ``(upper - lower) * (f(lower) + f(upper)) / 6``."""
        return self.interval.width * (self.lower_height + self.box_height) / 6.0


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
        secant_z=f_lo - slope * lo,
        secant_x=slope,
        extension_slope=f_lo / lo if lo > 0.0 else 0.0,
        box_height=f_up,
        lower_height=f_lo,
    )
    if not (0.0 < body.box_volume < inf and isfinite(body.secant_x) and isfinite(body.secant_z)):
        raise DomainError(
            f"the Monte-Carlo cone of x**{power.p!r} on [{lo!r}, {up!r}] overflows floats"
        )
    return body


@dataclass(frozen=True)
class McEstimate:
    """Conditional Monte-Carlo volume estimate with its standard error.

    ``mean = box_volume * mean(g)`` over the samples' column fractions ``g``
    and ``stderr = box_volume * sqrt(M2 / (samples - 1) / samples)``, the
    sample standard error, where ``box_volume`` is the volume of the sampled
    cone (``BodySpec.box_volume``).  ``hits`` counts the sampled columns that
    meet the body (``g > 0``).
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    hits: int
    box_volume: float


def _to_cone(body: BodySpec, r: np.ndarray) -> np.ndarray:
    """Map uniforms ``r`` of shape ``(1, m)`` or ``(2, m)`` in place to
    columns uniform in the footprint of the body's cone, and return ``r``.

    Row 0 becomes ``w``, which follows the trapezoid's linear density on
    ``[lower, upper]``, by its inverse CDF.  Row 1, if present, becomes ``z =
    cbrt(U)``, with density ``3 z**2``: together, the density of ``(x / z,
    z)`` for a point ``(x, y, z)`` uniform in the cone.
    """
    lo, up = body.interval.lower, body.interval.upper
    ws = r[0]
    # t = (w - lo) / (up - lo) has density proportional to ratio + (1 - ratio) t,
    # so F(t) = U solves (1 - ratio) t**2 + 2 ratio t = (1 + ratio) U.  The root
    # is written in ratio = f(lo) / f(up) <= 1, so no power of f is squared,
    # and without cancellation; at ratio == 0 it is sqrt(U), which the general
    # form would reach as 0/0 at U = 0.
    ratio = body.lower_height / body.box_height
    if ratio == 0.0:
        np.sqrt(ws, out=ws)
    else:
        root = ws * (1.0 - ratio * ratio)
        root += ratio * ratio
        np.sqrt(root, out=root)
        root += ratio
        ws *= 1.0 + ratio
        ws /= root
    ws *= up - lo
    ws += lo
    np.minimum(ws, up, out=ws)  # rounding must not step past the upper plane
    if len(r) > 1:
        np.cbrt(r[1], out=r[1])
    return r


def _block_stream(seed: int, block: int) -> np.random.Generator:
    """The generator block ``block`` of ``seed`` draws from, a pure function
    of the pair."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _draw_chunk(body: BodySpec, gen: np.random.Generator, m: int) -> tuple:
    """The next ``m`` columns ``(w, z)`` of ``gen`` in the body's footprint;
    ``z`` is ``None`` for the kinds whose kernel does not read it."""
    if body.kind in _kernel.W_ONLY_KINDS:
        return _to_cone(body, gen.random((1, m)))[0], None
    ws, zs = _to_cone(body, gen.random((2, m)))
    return ws, zs


def _merge(a: tuple, b: tuple) -> tuple:
    """Merge two ``(hits, count, mean, M2)`` partials by Chan et al.'s
    pairwise update."""
    hits_a, n_a, mean_a, m2_a = a
    hits_b, n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (
        hits_a + hits_b,
        n,
        mean_a + delta * (n_b / n),
        m2_a + m2_b + delta * delta * (n_a * (n_b / n)),
    )


def _block_hits(body: BodySpec, seed: int, block: int, count: int) -> tuple:
    """``(hits, count, mean, M2)`` of one block's column fractions, merged
    chunk by chunk in draw order."""
    gen = _block_stream(seed, block)
    total = None
    for start in range(0, count, CHUNK_SIZE):
        m = min(CHUNK_SIZE, count - start)
        ws, zs = _draw_chunk(body, gen, m)
        hits, mean, m2 = _kernel.count_hits(body, ws, zs)
        part = (hits, m, mean, m2)
        total = part if total is None else _merge(total, part)
    return total


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
    """Estimate the body volume from ``samples`` columns drawn uniformly in
    the footprint of its cone.

    ``mean = box_volume * mean(g)`` over the column fractions ``g``, and
    ``stderr = box_volume * sqrt(M2 / (samples - 1) / samples)``, both from
    per-chunk ``(count, mean, M2)`` partials merged in block order.
    Deterministic in ``(seed, samples)``: rerunning never changes a bit of
    the estimate, and extending the sample budget keeps the partials of
    every whole chunk of ``CHUNK_SIZE`` samples already drawn (only a
    trailing partial chunk is drawn afresh).  Blocks run in order on the
    calling thread.  ``samples`` and ``seed`` must be integers; ``workers``
    is accepted, must be ``None`` or an integer ``>= 0``, and has no effect.
    """
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if workers is not None and _integer("workers", workers) < 0:
        raise DomainError("worker count must be >= 0")
    if samples < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in an unsigned 64-bit integer")

    parts = [
        _block_hits(body, seed, b, min(BLOCK_SIZE, samples - b * BLOCK_SIZE))
        for b in range((samples + BLOCK_SIZE - 1) // BLOCK_SIZE)
    ]
    hits, _, mean, m2 = reduce(_merge, parts)

    box = body.box_volume
    return McEstimate(
        mean=box * mean,
        stderr=box * sqrt(m2 / (samples - 1) / samples),
        samples=samples,
        seed=seed,
        hits=hits,
        box_volume=box,
    )
