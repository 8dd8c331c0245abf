#!/usr/bin/env python3
"""Print one SHA-256 digest per family of perspex results.

Run it at two checkouts: equal lines mean bit-identical results on that
family's inputs.

    PYTHONPATH=src python3 benchmarks/digest.py

The families, each on fixed seeded inputs:

* ``newton``: 300 ``newton_optimize`` runs across the documented domain
  (p log-spaced on ``[1 + 1e-6, 50]`` and exactly 2, upper over seven
  decades, lower at 0, inside and near upper, 2 to 400 pieces); per run
  the breakpoints, residual norms, condition numbers and direction, or
  the error's type and message.
* ``sweep``: three 200-row ``sweep_optimal_points`` calls, n = 20 over
  ``geomspace(1.1, 8, 200)`` on ``[0, 1.3]``, ``[0.6, 1.3]`` and
  ``[0.3, 1]``.
* ``closed``: ``closed_form_volume`` of all five kinds on 300 seeded
  grids (p on ``(1, 10]`` and exactly 2; narrow, far and zero-lower
  intervals; 1 to 40 random pieces).
* ``mc``: ``mc_volume`` of every kind on four bodies, 65,536 columns each.

Only public names are used, so any checkout that has them can be digested.
"""

import hashlib

import numpy as np

from perspex import (
    Breakpoints,
    Interval,
    PerspexError,
    PowerFn,
    RelaxationKind,
    make_body,
    mc_volume,
    newton_optimize,
    sweep_optimal_points,
)
from perspex.power import closed_form_volume


def _add(h, *values) -> None:
    for value in values:
        if isinstance(value, str):
            h.update(value.encode())
        else:
            h.update(np.asarray(value, dtype=float).tobytes())
        h.update(b"|")


def _add_error(h, exc) -> None:
    _add(h, f"{type(exc).__name__}: {exc}")


def _interval(rng, upper: float) -> Interval:
    ratio = (0.0, rng.uniform(0.01, 0.99), 1.0 - 10.0 ** rng.uniform(-9.0, -3.0))[
        int(rng.integers(3))
    ]
    return Interval(upper * ratio, upper)


def newton_digest(runs: int = 300) -> str:
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for i in range(runs):
        if i % 8 == 7:
            p = 2.0
        else:
            p = 1.0 + float(np.exp(rng.uniform(np.log(1e-6), np.log(49.0))))
        iv = _interval(rng, 10.0 ** rng.uniform(-3.0, 4.0))
        n = int(round(10.0 ** rng.uniform(0.3, np.log10(400.0))))
        try:
            bp, trace = newton_optimize(PowerFn(p, iv), n)
        except PerspexError as exc:
            _add_error(h, exc)
            continue
        _add(h, bp.xi, trace.residual_norms, trace.condition_numbers, trace.direction)
    return h.hexdigest()


def sweep_digest() -> str:
    h = hashlib.sha256()
    grid = np.geomspace(1.1, 8.0, 200)
    for lower, upper in ((0.0, 1.3), (0.6, 1.3), (0.3, 1.0)):
        try:
            _add(h, sweep_optimal_points(Interval(lower, upper), 20, grid).interior)
        except PerspexError as exc:
            _add_error(h, exc)
    return h.hexdigest()


def closed_digest(grids: int = 300) -> str:
    rng = np.random.default_rng(2025)
    h = hashlib.sha256()
    for i in range(grids):
        p = 2.0 if i % 10 == 9 else 1.0 + float(np.exp(rng.uniform(np.log(1e-3), np.log(9.0))))
        iv = _interval(rng, 10.0 ** rng.uniform(-2.0, 2.0))
        n = int(rng.integers(1, 41))
        interior = np.sort(rng.uniform(iv.lower, iv.upper, n - 1))
        pf = PowerFn(p, iv)
        for kind in RelaxationKind:
            try:
                bp = Breakpoints.from_interior(iv, interior) if kind.piecewise_linear else None
                _add(h, closed_form_volume(kind, pf, bp))
            except PerspexError as exc:
                _add_error(h, exc)
    return h.hexdigest()


def mc_digest(samples: int = 65_536) -> str:
    h = hashlib.sha256()
    bodies = ((1.5, 0.0, 1.0, 4), (2.0, 0.15, 1.0, 8), (3.7, 0.15, 1.0, 8), (6.0, 0.5, 2.0, 16))
    for seed, (p, lower, upper, n) in enumerate(bodies):
        iv = Interval(lower, upper)
        bp = Breakpoints.equally_spaced(iv, n)
        for kind in RelaxationKind:
            body = make_body(kind, PowerFn(p, iv), bp if kind.piecewise_linear else None)
            est = mc_volume(body, samples, seed)
            _add(h, [est.samples, est.mean, est.stderr])
    return h.hexdigest()


def main() -> None:
    for name, digest in (
        ("newton", newton_digest),
        ("sweep", sweep_digest),
        ("closed", closed_digest),
        ("mc", mc_digest),
    ):
        print(f"{name:8s}{digest()}")


if __name__ == "__main__":
    main()
