#!/usr/bin/env python3
"""Time the Newton solver the way ``optimize`` and ``sweep`` run it, the
closed-form volumes and the piecewise Monte-Carlo bodies.

Five parts, each timed in several fresh processes, one after another:

* newton: ``newton_optimize`` for ``x**3.7`` on ``[0, 1]`` at n in {10,
  100, 10^3, 10^4, 10^5} pieces;
* sweep: ``sweep_optimal_points`` on ``[0, 1.3]`` with n = 20 over
  ``geomspace(1.1, 8, 200)``, the 200 x 20 sweep;
* plpr: ``volume_power_closed_form`` for ``x**3.7`` on ``[0, 1]`` at n in
  {20, 1250, 10^4} equally spaced pieces;
* smooth: ``power.closed_form_volume`` of nr, pr and enr for ``x**3.7``
  on ``[0.15, 1]``;
* body: ``make_body`` of plpr and plenr for ``x**3.7`` on ``[0.15, 1]`` at
  n in {8, 64} equally spaced pieces, the set-up of a piecewise
  Monte-Carlo call.

Each process imports perspex, makes one untimed call per case, and then
takes the median of ``REPEATS[case]`` timed calls.  The report gives, per
case, the median and quartiles of those per-process medians, in
milliseconds.  Only ``newton_optimize``, ``sweep_optimal_points``,
``volume_power_closed_form``, ``power.closed_form_volume``,
``make_body``, ``Breakpoints``, ``RelaxationKind``, ``PowerFn``,
``Interval`` and ``KERNEL_BACKEND`` are used, so the script times any
checkout that has them.

    PYTHONPATH=src python3 benchmarks/bench.py [--json PATH]

nproc, the numpy version and ``KERNEL_BACKEND`` are recorded beside the
numbers.
"""

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import time

PROCESSES = 7
NEWTON_P = 3.7
REPEATS = {
    "newton_n10": 50,
    "newton_n100": 50,
    "newton_n1000": 20,
    "newton_n10000": 7,
    "newton_n100000": 3,
    "sweep_200x20": 20,
    "plpr_n20": 200,
    "plpr_n1250": 100,
    "plpr_n10000": 20,
    "nr": 200,
    "pr": 200,
    "enr": 200,
    "body_plpr_n8": 500,
    "body_plpr_n64": 500,
    "body_plenr_n8": 500,
    "body_plenr_n64": 500,
}


def _cases():
    import numpy as np

    from perspex import (
        Breakpoints,
        Interval,
        PowerFn,
        RelaxationKind,
        make_body,
        newton_optimize,
        sweep_optimal_points,
        volume_power_closed_form,
    )
    from perspex.power import closed_form_volume

    pf = PowerFn(NEWTON_P, Interval(0.0, 1.0))
    grid = np.geomspace(1.1, 8.0, 200)
    sizes = (10, 100, 1000, 10_000, 100_000)
    cases = {f"newton_n{n}": (lambda n=n: newton_optimize(pf, n)) for n in sizes}
    cases["sweep_200x20"] = lambda: sweep_optimal_points(Interval(0.0, 1.3), 20, grid)
    for n in (20, 1250, 10_000):
        bp = Breakpoints.equally_spaced(pf.interval, n)
        cases[f"plpr_n{n}"] = lambda bp=bp: volume_power_closed_form(pf, bp)
    smooth = PowerFn(NEWTON_P, Interval(0.15, 1.0))
    for tag in ("nr", "pr", "enr"):
        cases[tag] = lambda kind=RelaxationKind(tag): closed_form_volume(kind, smooth, None)
    for tag in ("plpr", "plenr"):
        for n in (8, 64):
            bp = Breakpoints.equally_spaced(smooth.interval, n)
            cases[f"body_{tag}_n{n}"] = (
                lambda kind=RelaxationKind(tag), bp=bp: make_body(kind, smooth, bp))
    return cases


def _one_process():
    """Per-case median of the timed calls of this process, in ms."""
    out = {}
    for name, call in _cases().items():
        call()
        times = []
        for _ in range(REPEATS[name]):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = 1e3 * statistics.median(times)
    return out


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    args = parser.parse_args()

    import numpy as np

    import perspex

    spawn = multiprocessing.get_context("spawn")
    runs = []
    for _ in range(PROCESSES):
        with spawn.Pool(1) as pool:
            runs.append(pool.apply(_one_process))
    result = {
        "machine": {
            "nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backend": perspex.KERNEL_BACKEND,
        },
        "processes": PROCESSES,
        "repeats": REPEATS,
        "unit": "ms",
        "cases": {},
    }
    for name in REPEATS:
        times = [run[name] for run in runs]
        result["cases"][name] = {**_quartiles(times), "per_process": times}

    m = result["machine"]
    print(f"{m['nproc']} CPUs, numpy {m['numpy']}, kernel backend {m['kernel_backend']}")
    print(f"per-process medians over {PROCESSES} processes, ms")
    print(f"{'case':16s} {'q1':>10s} {'median':>10s} {'q3':>10s}")
    for name, row in result["cases"].items():
        print(f"{name:16s} {row['q1']:10.4f} {row['median']:10.4f} {row['q3']:10.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
