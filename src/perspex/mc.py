"""Seeded hit-or-miss Monte-Carlo volumes for the relaxation bodies.

Ground truth for every closed form in the package, kept deliberately
independent of them: membership is tested straight from the defining
inequalities of each body over the bounding box
``[0, upper] x [0, f(upper)] x [0, 1]``.

Sampling is a pure function of ``(seed, sample index)``: samples are
partitioned into fixed blocks of ``2**16`` and block ``b`` draws from the
counter-based Philox stream ``Philox(seed).jumped(b)``, so estimates are
bit-identical regardless of the number of workers.  Membership is counted
by the numpy kernel in ``_mc_fallback``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DomainError
from .power import PowerFn, RelaxationKind
from .underestimator import Breakpoints, Interval, PLUnderEstimator, build_underestimator

from . import _mc_fallback as _kernel

KERNEL_BACKEND = "numpy"

BLOCK_SIZE = 1 << 16
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
    """One relaxation body reduced to kernel-ready membership data."""

    kind: RelaxationKind
    interval: Interval
    p: float
    estimator: PLUnderEstimator | None
    secant_z: float  # z coefficient of the shared upper bound plane
    secant_x: float  # x coefficient of the shared upper bound plane
    extension_slope: float  # chord slope from the origin, 0 when lower == 0
    box_height: float  # f(upper)

    @property
    def box_volume(self) -> float:
        return self.interval.upper * self.box_height

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
        return _kernel.membership_mask(
            _KIND_CODE[self.kind], x.ravel(), y.ravel(), z.ravel(), *self._kernel_args()
        ).reshape(x.shape)


def make_body(
    kind: RelaxationKind, power: PowerFn, breakpoints: Breakpoints | None = None
) -> BodySpec:
    """Assemble the membership data of one relaxation body.

    The piecewise-linear kinds need breakpoints to build the tangent
    under-estimator from; the others ignore them.
    """
    iv = power.interval
    lo, up = iv.lower, iv.upper
    estimator = None
    if kind in _PL_KINDS:
        if breakpoints is None:
            raise DomainError(f"{kind.value} needs breakpoints")
        if breakpoints.interval != iv:
            raise DomainError("breakpoints cover a different interval than the function")
        estimator = build_underestimator(power.oracle(), breakpoints)
    f_lo, f_up = float(power(lo)), float(power(up))
    slope = (f_up - f_lo) / (up - lo)
    return BodySpec(
        kind=kind,
        interval=iv,
        p=power.p,
        estimator=estimator,
        secant_z=f_lo - slope * lo,
        secant_x=slope,
        extension_slope=f_lo / lo if lo > 0.0 else 0.0,
        box_height=f_up,
    )


@dataclass(frozen=True)
class McEstimate:
    """Hit-or-miss volume estimate with its binomial standard error."""

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


def _block_hits(body: BodySpec, seed: int, block: int, count: int) -> int:
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(block))
    r = gen.random((3, count))
    xs, ys, zs = r
    xs *= body.interval.upper  # in place: the same products without two fresh arrays
    ys *= body.box_height
    return _kernel.count_hits(_KIND_CODE[body.kind], xs, ys, zs, *body._kernel_args())


def mc_volume(
    body: BodySpec, samples: int, seed: int, workers: int | None = None
) -> McEstimate:
    """Estimate the body volume from ``samples`` uniform box draws.

    Deterministic in ``(seed, samples)``: rerunning, changing the worker
    count, or extending the sample budget never changes the hits already
    counted.  ``workers=None`` defers to ``PERSPEX_THREADS`` (0 = one per
    CPU), defaulting to a single worker.
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
