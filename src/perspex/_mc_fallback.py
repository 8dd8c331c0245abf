"""Vectorized numpy membership kernel for the Monte-Carlo oracle.

A sample is inside a body when it passes the three inequalities every
body shares (``lo*z <= x <= hi*z`` and the secant plane ``y <= sec_z*z +
sec_x*x``) and the body's own lower-bound test (powers, the ``Z_FLOOR``
face, the piecewise-linear lookup).  Both run on every sample: the oracle
draws in the cone the shared inequalities cut out, so nearly every sample
passes them and compacting the survivors would cost more than it saves.
Kind codes: 0 naive, 1 perspective, 2 PL perspective, 3 extended naive,
4 PL extended naive.
"""

from __future__ import annotations

import numpy as np

# below this the on-fraction x/z is considered the measure-zero z=0 face
Z_FLOOR = 1e-300


def _power(v: np.ndarray, q: float) -> np.ndarray:
    if q == 1.0:
        return v
    if q == 2.0:
        return v * v
    return np.power(v, q)


def _pl_eval(kx: np.ndarray, ky: np.ndarray, w: np.ndarray) -> np.ndarray:
    # piece k holds kx[k] <= w < kx[k+1]; the end pieces extend outwards
    k = np.searchsorted(kx[1:-1], w, side="right")
    slope = (ky[1:] - ky[:-1]) / (kx[1:] - kx[:-1])
    return ky[k] + slope[k] * (w - kx[k])


def membership_mask(kind, x, y, z, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope):
    """Which points ``(x, y, z)`` lie in the body: the shared planes and the
    body's lower bound."""
    if kind not in range(5):
        raise ValueError(f"unknown body kind code {kind}")
    inside = (x >= lo * z) & (x <= hi * z) & (y <= sec_z * z + sec_x * x)
    if kind == 0:
        lower = y >= _power(x, p)
    elif kind == 1:
        on = z >= Z_FLOOR
        lower = on & (_power(x, p) <= y * _power(z, p - 1.0))
    elif kind == 2:
        on = z >= Z_FLOOR
        w = x / np.where(on, z, 1.0)
        lower = on & (z * _pl_eval(kx, ky, w) <= y)
    elif kind == 3:
        lower = y >= np.where(x < lo, ext_slope * x, _power(x, p))
    else:
        lower = y >= np.where(x < lo, ext_slope * x, _pl_eval(kx, ky, x))
    inside &= lower
    return inside


def count_hits(kind, x, y, z, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope) -> int:
    mask = membership_mask(kind, x, y, z, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope)
    return int(np.count_nonzero(mask))
