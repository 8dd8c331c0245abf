"""Seeded hit-or-miss Monte-Carlo volumes for the relaxation bodies.

Ground truth for every closed form in the package, kept deliberately
independent of them: membership is tested straight from the defining
inequalities of each body.

Every body lies in one cone, cut out by ``lower*z <= x <= upper*z``,
``y >= 0`` and the secant plane through ``(lower, f(lower), 1)`` and
``(upper, f(upper), 1)``: the cone with apex at the origin over the
trapezoid ``{lower <= w <= upper, 0 <= v <= chord(w)}`` at ``z = 1``, of
volume ``(upper - lower) * (f(lower) + f(upper)) / 6``.  Samples are drawn
uniformly in that cone, not in a bounding box, so almost none of them is
wasted on points no body can contain.

Sampling is a pure function of ``(seed, sample index)``: samples are
partitioned into fixed blocks of ``2**16`` and block ``b`` draws from the
counter-based Philox stream ``Philox(seed).jumped(b)``, so estimates are
bit-identical regardless of the number of workers.  A block is drawn,
mapped into the cone and tested in chunks of ``2**13`` samples, which keeps
every temporary cache-sized.  Membership is counted by the numpy kernel in
``_mc_fallback``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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

_KIND_CODE = {
    RelaxationKind.NR: 0,
    RelaxationKind.PR: 1,
    RelaxationKind.PL_PR: 2,
    RelaxationKind.E_NR: 3,
    RelaxationKind.PL_E_NR: 4,
}

_EMPTY = np.zeros(0)
_PL_KINDS = (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR)


@dataclass(frozen=True, eq=False)
class BodySpec:
    """One relaxation body reduced to kernel-ready membership data.

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

    def _kernel_args(self):
        est = self.estimator
        kx = est.x if est is not None else _EMPTY
        ky = est.y if est is not None else _EMPTY
        return (
            self.interval.lower,
            self.interval.upper,
            self.p,
            self.secant_z,
            self.secant_x,
            kx,
            ky,
            self.extension_slope,
        )

    def membership(self, x, y, z) -> np.ndarray:
        """Vectorized membership predicate over point coordinates."""
        x, y, z = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(z, dtype=float)
        )
        # the kernel tests every point: outside the shared planes (negative or
        # huge x) the lower bound may be NaN or inf, and the planes reject it
        with np.errstate(invalid="ignore", over="ignore"):
            mask = _kernel.membership_mask(
                _KIND_CODE[self.kind], x.ravel(), y.ravel(), z.ravel(), *self._kernel_args()
            )
        return mask.reshape(x.shape)


def make_body(
    kind: RelaxationKind, power: PowerFn, breakpoints: Breakpoints | None = None
) -> BodySpec:
    """Assemble the membership data of one relaxation body.

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
    if kind in _PL_KINDS:
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
    """Hit-or-miss volume estimate with its binomial standard error.

    ``mean = box_volume * hits / samples``, where ``box_volume`` is the
    volume of the sampled cone (``BodySpec.box_volume``).
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    hits: int
    box_volume: float


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("PERSPEX_THREADS")
        if env is None:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise DomainError(f"PERSPEX_THREADS must be an integer, got {env!r}") from None
    if workers < 0:
        raise DomainError("worker count must be >= 0")
    return workers if workers > 0 else (os.cpu_count() or 1)


def _to_cone(body: BodySpec, r: np.ndarray) -> np.ndarray:
    """Map uniforms ``r`` of shape ``(3, m)`` in place to points ``(x, y, z)``
    uniform in the body's cone, and return ``r``.

    ``z = cbrt(U)`` has density ``3 z**2``.  ``w = x / z`` follows the
    trapezoid's linear density on ``[lower, upper]``, by its inverse CDF, and
    ``y`` is uniform under the secant plane at ``(x, z)``.
    """
    lo, up = body.interval.lower, body.interval.upper
    xs, ys, zs = r
    np.cbrt(zs, out=zs)
    # t = (w - lo) / (up - lo) has density proportional to ratio + (1 - ratio) t,
    # so F(t) = U solves (1 - ratio) t**2 + 2 ratio t = (1 + ratio) U.  The root
    # is written in ratio = f(lo) / f(up) <= 1, so no power of f is squared,
    # and without cancellation; at ratio == 0 it is sqrt(U), which the general
    # form would reach as 0/0 at U = 0.
    ratio = body.lower_height / body.box_height
    if ratio == 0.0:
        np.sqrt(xs, out=xs)
    else:
        root = xs * (1.0 - ratio * ratio)
        root += ratio * ratio
        np.sqrt(root, out=root)
        root += ratio
        xs *= 1.0 + ratio
        xs /= root
    xs *= up - lo
    xs += lo
    np.minimum(xs, up, out=xs)  # rounding must not step past the upper plane
    xs *= zs
    ys *= body.secant_z * zs + body.secant_x * xs  # the kernel's plane: y <= it holds in floats
    return r


def _block_hits(body: BodySpec, seed: int, block: int, count: int) -> int:
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(block))
    code, args = _KIND_CODE[body.kind], body._kernel_args()
    hits = 0
    for start in range(0, count, CHUNK_SIZE):
        xs, ys, zs = _to_cone(body, gen.random((3, min(CHUNK_SIZE, count - start))))
        hits += _kernel.count_hits(code, xs, ys, zs, *args)
    return hits


def mc_volume(
    body: BodySpec, samples: int, seed: int, workers: int | None = None
) -> McEstimate:
    """Estimate the body volume from ``samples`` uniform draws in its cone.

    Deterministic in ``(seed, samples)``: rerunning or changing the worker
    count never changes the hits, and extending the sample budget keeps the
    hits of every whole chunk of ``CHUNK_SIZE`` samples already counted
    (only a trailing partial chunk is drawn afresh).  ``workers=None``
    defers to ``PERSPEX_THREADS`` (0 = one per CPU), defaulting to a single
    worker.
    """
    if samples < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in an unsigned 64-bit integer")
    nworkers = _resolve_workers(workers)

    blocks = [
        (b, min(BLOCK_SIZE, samples - b * BLOCK_SIZE))
        for b in range((samples + BLOCK_SIZE - 1) // BLOCK_SIZE)
    ]
    if nworkers == 1 or len(blocks) == 1:
        hits = sum(_block_hits(body, seed, b, m) for b, m in blocks)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            hits = sum(pool.map(lambda bm: _block_hits(body, seed, *bm), blocks))

    frac = hits / samples
    box = body.box_volume
    return McEstimate(
        mean=box * frac,
        stderr=box * sqrt(frac * (1.0 - frac) / samples),
        samples=samples,
        seed=seed,
        hits=hits,
        box_volume=box,
    )
