"""Vectorized numpy column kernel for the Monte-Carlo oracle.

The oracle samples columns, not points: a sample is ``(w, z)`` in the
footprint of the cone every body lies in (``lo <= w <= hi``, ``0 <= z <=
1``), and its column is ``0 <= y <= S`` at ``x = z*w``, with ``S = sec_z*z +
sec_x*x`` the shared secant plane.  The body keeps the part of the column
above its own lower bound ``L(x, z)``, so the column's share in the body
is exactly ``g = clip((S - L) / S, 0, 1)``, and ``g = 0`` where ``S <= 0``.
``L`` is a power, or for the piecewise-linear kinds the body's tangent
under-estimator, evaluated by the estimator's own bucketed lookup
(``PLUnderEstimator.__call__``).  For the perspective kinds ``L = z *
f(w)``, so ``z`` cancels and is not read: the sampler passes ``None``.  The
kernel does not test the footprint: the sampler draws inside it.  It reads
the body (an ``mc.BodySpec``) as it is: its kind, exponent, secant plane,
tangent under-estimator and extension slope.
"""

from __future__ import annotations

import numpy as np

from .power import RelaxationKind

# kinds whose column fraction does not read z: one uniform per sample
W_ONLY_KINDS = (RelaxationKind.PR, RelaxationKind.PL_PR)


def column_fraction(body, w, z):
    """The share ``g`` of each sampled column ``(w, z)`` that lies in
    ``body``; ``z`` may be ``None`` for the kinds in ``W_ONLY_KINDS``."""
    kind, p, est = body.kind, body.p, body.estimator
    top = body.secant_x * w
    top += body.secant_z  # chord(w) = S / z
    if kind in W_ONLY_KINDS:
        # L = z * f(w): z cancels from (S - L) / S
        lower = w**p if kind is RelaxationKind.PR else est(w)
    else:
        x = z * w
        top *= z
        if kind is RelaxationKind.NR:
            lower = x**p
        else:
            inner = x**p if kind is RelaxationKind.E_NR else est(x)
            lower = np.where(x < body.interval.lower, body.extension_slope * x, inner)
    np.subtract(top, lower, out=lower)
    g = np.divide(lower, top, out=np.zeros_like(top), where=top > 0.0)
    return np.clip(g, 0.0, 1.0, out=g)


def count_hits(body, w, z):
    """``(hits, mean, M2)`` of one chunk's column fractions: the columns that
    meet the body, the mean fraction and the sum of squared deviations from
    it."""
    g = column_fraction(body, w, z)
    hits = int(np.count_nonzero(g > 0.0))
    mean = float(g.sum()) / g.size
    g -= mean
    return hits, mean, float(np.einsum("i,i", g, g))
