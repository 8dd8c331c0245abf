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
``[lower, upper]``.  The kernel (see ``_columns``) evaluates ``h`` in
closed form for every kind; ``hits`` counts the columns that meet the body
(``h > 0``).  :func:`make_body` computes once per body what the kernel
reads: its scale, and for the piecewise-linear kinds the offsets of the
cuts of adjacent tangents and each piece's column coefficients, for plpr
as a knot table that the kernel reads with one ``np.interp``.  It builds
no tangent under-estimator.

Sampling is stratified with two columns per stratum.  ``samples // 2``
equal intervals of ``w`` tile ``[lower, upper]``, and each takes its two
offsets ``t = (w - lower) / width`` from one stream, chunk by chunk: the
stream of ``PCG64(SeedSequence(seed))``, bit for bit.  No ``SeedSequence``
is built: :func:`_seed_words` computes in plain ints the four words that
``SeedSequence(seed).generate_state(4, np.uint64)`` returns, and numpy's
``PCG64`` seeds itself from them.  A chunk of ``rows`` strata
draws ``2 rows`` uniforms as two rows of ``rows``: row ``j`` holds column
``j`` of every stratum, so the chunk's stratum ``i`` takes its draws ``i``
and ``rows + i``.  Each row then lists its offsets stratum by stratum, in
increasing order, so the kernel's searches for each column's piece (plpr's
``np.interp``, plenr's ``np.searchsorted``) run over sorted keys.
The estimate is ``width`` times the mean of ``h``, and its standard error
comes from each stratum's pair difference, ``width * sqrt(sum((h1 -
h2)**2) / 4) / strata``; both are plain sums of the kernel's lengths,
which it returns in a unit of the body's (``BodySpec.unit``) so that no
square over- or underflows, and ``width``, the unit and the kernel's
factor 3 scale the sums once, after they are divided by the strata.
Columns are scored in chunks of ``BLOCK_SIZE``, which keeps every
temporary cache-sized, and the chunks' sums are added in stratum order on
the calling thread.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import inf, isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .power import PowerFn, RelaxationKind, _tangent_cuts
from .underestimator import Breakpoints, Interval, _check_brackets

from . import _columns as _kernel

KERNEL_BACKEND = "numpy"

BLOCK_SIZE = 1 << 13  # columns per kernel call
# 2048 strata: the stderr rests on 2048 independent pair differences, so
# where the strata contribute alike it is itself good to about
# 1/sqrt(2 * 2048) = 1.6%, and a 4-sigma bound to about 0.06 sigma
MIN_SAMPLES = 1 << 12

# stratum index of each column of a chunk, laid out as the draws: a stratum per column
_CELLS = np.tile(np.arange(BLOCK_SIZE // 2, dtype=float), (2, 1))
_CELLS.setflags(write=False)


def _seed_words(seed: int) -> list[int]:
    """The four 64-bit words of ``SeedSequence(seed).generate_state(4,
    np.uint64)`` for ``0 <= seed < 2**64``, as plain ints.

    numpy's SeedSequence (``numpy/random/bit_generator.pyx``) with its
    default pool of four 32-bit words, written out step by step.  A hashmix
    step is ``hash(v) = fold((v ^ a) * b)`` on 32 bits, with ``fold(x) = x ^
    x >> 16``; its constants ``(a, b)`` depend only on the step's place, and
    each step's ``a`` is the previous step's ``b``.  The pool's chain starts
    at ``0x43B0D7E5`` and advances by ``* 0x931E8875``, the output's at
    ``0x8B51F9DD`` by ``* 0x58F38DED``.  Three phases:

    * fill: pool word ``i`` hashes the seed's 32-bit word ``i``, low first,
      a missing word counting as 0, so words 2 and 3 start as constants;
    * mix: for each source word in turn, each other word, in increasing
      order, becomes ``fold(0xCA01F9DD * dst - 0x4973F715 * hash(src))``;
    * output: eight hashes of the pool words, cycled, read in little-endian
      pairs.

    Written out rather than looped over a table of steps: with cold caches
    the loop costs about as much as the arithmetic, some 20-30 µs a call.
    """
    # fill
    p0 = (seed & 0xFFFFFFFF ^ 0x43B0D7E5) * 0xAE5A53A9 & 0xFFFFFFFF
    p0 ^= p0 >> 16
    p1 = (seed >> 32 ^ 0xAE5A53A9) * 0x8488043D & 0xFFFFFFFF
    p1 ^= p1 >> 16
    p2, p3 = 0x894CFDD1, 0x30409F75
    # mix, source p0, then p1, p2 and p3
    h = (p0 ^ 0x9205B1D5) * 0xE9096E59 & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    h = (p0 ^ 0xE9096E59) * 0x8D5CB6AD & 0xFFFFFFFF
    p2 = (0xCA01F9DD * p2 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    h = (p0 ^ 0x8D5CB6AD) * 0x9BB16511 & 0xFFFFFFFF
    p3 = (0xCA01F9DD * p3 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    h = (p1 ^ 0x9BB16511) * 0x00C238C5 & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    h = (p1 ^ 0x00C238C5) * 0x4D029A09 & 0xFFFFFFFF
    p2 = (0xCA01F9DD * p2 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    h = (p1 ^ 0x4D029A09) * 0xCC132E1D & 0xFFFFFFFF
    p3 = (0xCA01F9DD * p3 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    h = (p2 ^ 0xCC132E1D) * 0x83A97B41 & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    h = (p2 ^ 0x83A97B41) * 0xFA8DDCB5 & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    h = (p2 ^ 0xFA8DDCB5) * 0xAC4C06B9 & 0xFFFFFFFF
    p3 = (0xCA01F9DD * p3 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    h = (p3 ^ 0xAC4C06B9) * 0x26FF5A8D & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    h = (p3 ^ 0x26FF5A8D) * 0x0E554A71 & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    h = (p3 ^ 0x0E554A71) * 0x78C50DA5 & 0xFFFFFFFF
    p2 = (0xCA01F9DD * p2 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    # output
    w0 = (p0 ^ 0x8B51F9DD) * 0x464A0A99 & 0xFFFFFFFF
    w1 = (p1 ^ 0x464A0A99) * 0x819D14A5 & 0xFFFFFFFF
    w2 = (p2 ^ 0x819D14A5) * 0xD369FDC1 & 0xFFFFFFFF
    w3 = (p3 ^ 0xD369FDC1) * 0x501638AD & 0xFFFFFFFF
    w4 = (p0 ^ 0x501638AD) * 0xA600C129 & 0xFFFFFFFF
    w5 = (p1 ^ 0xA600C129) * 0x8B0167F5 & 0xFFFFFFFF
    w6 = (p2 ^ 0x8B0167F5) * 0x5C1E2ED1 & 0xFFFFFFFF
    w7 = (p3 ^ 0x5C1E2ED1) * 0x301D747D & 0xFFFFFFFF
    return [
        w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32,
        w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32,
        w4 ^ w4 >> 16 | (w5 ^ w5 >> 16) << 32,
        w6 ^ w6 >> 16 | (w7 ^ w7 >> 16) << 32,
    ]


@functools.cache
def _seed_sequence() -> type:
    """numpy's seed-sequence interface over :func:`_seed_words`: ``PCG64``
    takes an instance in place of a ``SeedSequence`` and asks it for its
    four 64-bit words.  Defined on first use, so that importing this module
    does not load ``numpy.random``."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, seed: int):
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords gives PCG64's four 64-bit words only")
            return np.array(_seed_words(self.seed), dtype=np.uint64)

    return SeedWords


class BodySpec(NamedTuple):
    """One relaxation body reduced to the data its column kernel reads.

    ``cone_volume``, ``upper_height`` and ``lower_height`` describe the cone
    every body lies in (see the module docstring).  ``rise`` and ``unit``
    are the kernel's scale (``_columns.column_scale``).  The
    piecewise-linear kinds also carry ``cuts``, the offsets ``(cut - lower)
    / width`` of the points where adjacent tangents meet, increasing, so
    that piece ``k`` holds the offsets from ``cuts[k - 1]`` up to
    ``cuts[k]``; and ``columns``.  For plpr that is the knot table of
    ``_columns.tangent_columns``, offsets in row 0 and column values in
    row 1, with piece ``k`` from knot ``2k`` to knot ``2k + 1`` and each
    cut offset twice; for plenr one row per coefficient and one column per
    piece (``_columns.moments``).  The smooth kinds carry neither.  Equal
    only to itself.
    """

    kind: RelaxationKind
    interval: Interval
    p: float
    upper_height: float  # f(upper): the cone's height at x = upper, z = 1
    lower_height: float  # f(lower): the cone's height at x = lower, z = 1
    rise: float | None  # f(upper) / f(lower) - 1 where at most 1, else None
    unit: float  # the unit of the kernel's columns: f(lower) where rise is set, else f(upper)
    cuts: np.ndarray | None
    columns: np.ndarray | None

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def cone_volume(self) -> float:
        """Volume of the sampled cone, ``(upper - lower) * (f(lower) + f(upper)) / 6``."""
        return self.interval.width * (self.lower_height + self.upper_height) / 6.0


def make_body(
    kind: RelaxationKind, power: PowerFn, breakpoints: Breakpoints | None = None
) -> BodySpec:
    """Assemble the kernel data of one relaxation body.

    The piecewise-linear kinds need breakpoints, the tangency points; the
    others ignore them.  Their cuts are positions from the ratio-form
    quotient of ``power._tangent_cuts``, without the gap series of the
    fractions θ that Newton reads: a body's volume moves only at second
    order with a cut, as the under-estimator is continuous there.  They
    raise ``DegenerateTangents`` unless each lies strictly between its two
    tangency points.  Raises ``DomainError`` when the sampled cone is not
    representable in floats: ``f(upper)`` overflows or underflows to zero,
    or the cone's volume does not fit, named as over- or underflow; and
    when a piece coefficient overflows.
    """
    iv = power.interval
    lo, up, p = iv.lower, iv.upper, power.p
    try:
        f_lo, f_up = float(power(float(lo))), float(power(float(up)))
    except OverflowError:
        f_up = inf
    if not 0.0 < f_up < inf:
        raise DomainError(
            f"f(upper) = {up!r}**{p!r} rounds to {f_up!r}; "
            "the Monte-Carlo cone needs a positive finite height"
        )
    rise, unit = _kernel.column_scale(p, iv, f_lo, f_up)
    cuts = columns = None
    if kind.piecewise_linear:
        if breakpoints is None:
            raise DomainError(f"{kind.value} needs breakpoints")
        if breakpoints.interval != iv:
            raise DomainError("breakpoints cover a different interval than the function")
        xi = breakpoints.xi
        cuts = _tangent_cuts(xi[:-1], xi[1:], p)
        _check_brackets(xi, cuts)
        cuts -= lo
        cuts /= iv.width
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            if kind is RelaxationKind.PL_PR:
                columns = _kernel.tangent_columns(p, iv, xi, cuts, rise, unit)
            else:
                columns = _kernel.moments(p, iv, f_lo, xi, cuts, unit)
        if not np.isfinite(columns).all():
            raise DomainError(
                f"the {kind.value} columns of x**{p!r} on [{lo!r}, {up!r}] overflow floats"
            )
    body = BodySpec(
        kind=kind,
        interval=iv,
        p=p,
        upper_height=f_up,
        lower_height=f_lo,
        rise=rise,
        unit=unit,
        cuts=cuts,
        columns=columns,
    )
    if not 0.0 < body.cone_volume < inf:
        way = "overflows floats" if body.cone_volume else "underflows to 0"
        raise DomainError(f"the Monte-Carlo cone of x**{p!r} on [{lo!r}, {up!r}] {way}")
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
    stratum, so it redraws every column.  Each chunk of ``rows`` strata
    draws its uniforms as two rows, so its stratum ``i`` takes draws ``i``
    and ``rows + i`` of the chunk, and the kernel gets two runs of offsets,
    each increasing.  ``samples`` and ``seed`` must be integers;
    ``workers`` is accepted, must be ``None`` or an integer ``>= 0``, and
    has no effect.  Raises :class:`DomainError` when the mean or its
    standard error overflows floats.

    Each call builds its own generator: the stream of
    ``PCG64(SeedSequence(seed))``, bit for bit, seeded from the words
    :func:`_seed_words` computes, so no ``SeedSequence`` is built and no
    state is shared between calls or threads.
    """
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if workers is not None and _integer("workers", workers) < 0:
        raise DomainError("worker count must be >= 0")
    if samples < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must fit in an unsigned 64-bit integer")

    strata = samples // 2
    gen = np.random.Generator(np.random.PCG64(_seed_sequence()(seed)))
    hits, total, spread = 0, 0.0, 0.0
    for start in range(0, strata, BLOCK_SIZE // 2):
        stop = min(start + BLOCK_SIZE // 2, strata)
        # per column of the strata, one row: the offsets (w - lower) / width,
        # increasing along each row
        t = gen.random((2, stop - start))
        cells = _CELLS[:, : stop - start]
        t += (cells + start) if start else cells  # exact integers: one rounding
        t /= strata  # a quotient of at most strata by strata: never past upper
        count, h = _kernel.count_hits(body, t)
        d = h[0] - h[1]
        hits += count
        total += float(h.sum())
        spread += float(np.dot(d, d))

    # divided by the strata first: a sum of columns times the scale can
    # overflow where the mean, at most the cone, does not
    scale = body.interval.width * body.unit / 3.0
    mean, stderr = total / (2 * strata) * scale, sqrt(spread / 4.0) / strata * scale
    if not (isfinite(mean) and isfinite(stderr)):
        raise DomainError(
            f"the {body.kind.value} estimate of x**{body.p!r} on "
            f"[{body.interval.lower!r}, {body.interval.upper!r}] overflows floats"
        )
    return McEstimate(
        mean=mean,
        stderr=stderr,
        samples=2 * strata,
        seed=seed,
        hits=hits,
        cone_volume=body.cone_volume,
    )
