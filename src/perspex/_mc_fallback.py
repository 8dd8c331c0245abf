"""Vectorized numpy membership kernel for the Monte-Carlo oracle.

Box first: the three inequalities every body shares (``lo*z <= x <=
hi*z`` and the secant plane ``y <= sec_z*z + sec_x*x``) are evaluated over
the whole block, and the body's own lower-bound test (powers, the
``Z_FLOOR`` face, the piecewise-linear lookup) runs only on the samples
that pass them.  Per-sample arithmetic does not depend on which samples
survive, so the hits are those of testing every sample.  Kind codes: 0
naive, 1 perspective, 2 PL perspective, 3 extended naive, 4 PL extended
naive.
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
    k = np.searchsorted(kx, w, side="right") - 1
    np.clip(k, 0, kx.size - 2, out=k)
    slope = (ky[k + 1] - ky[k]) / (kx[k + 1] - kx[k])
    return ky[k] + slope * (w - kx[k])


def _inside(kind, xs, ys, zs, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope):
    """Indices of the samples inside the shared box, and which of them also
    pass the body's lower-bound test."""
    if kind not in range(5):
        raise ValueError(f"unknown body kind code {kind}")
    idx = np.flatnonzero((xs >= lo * zs) & (xs <= hi * zs) & (ys <= sec_z * zs + sec_x * xs))
    x, y, z = xs[idx], ys[idx], zs[idx]
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
    return idx, lower


def membership_mask(kind, xs, ys, zs, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope):
    idx, lower = _inside(kind, xs, ys, zs, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope)
    mask = np.zeros(xs.shape, dtype=bool)
    mask[idx[lower]] = True
    return mask


def count_hits(kind, xs, ys, zs, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope) -> int:
    _, lower = _inside(kind, xs, ys, zs, lo, hi, p, sec_z, sec_x, kx, ky, ext_slope)
    return int(np.count_nonzero(lower))
