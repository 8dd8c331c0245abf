#!/usr/bin/env python3
"""Time the Newton solver, the closed forms and the Monte-Carlo oracle the
way the library runs them, every case by one method.

Each of ``PROCESSES`` fresh processes imports perspex, makes one untimed
call of every case and then ``REPEATS`` timed calls.  A call reports the
times of its parts; per case and part, the process keeps the median and
the 75th percentile of its calls.  The report gives the median and
quartiles of the per-process medians and the median of the per-process
75th percentiles, in milliseconds.  The cases:

* newton_n{n}: ``newton_optimize`` for ``x**3.7`` on ``[0, 1]`` at n in
  {10, 100, 10^3, 10^4, 10^5} pieces;
* sweep_200x20: ``sweep_optimal_points`` on ``[0, 1.3]`` with n = 20 over
  ``geomspace(1.1, 8, 200)``;
* plpr_n{n}: ``volume_power_closed_form`` for ``x**3.7`` on ``[0, 1]`` at
  n in {20, 1250, 10^4} equally spaced pieces;
* nr, pr, enr: ``power.closed_form_volume`` for ``x**3.7`` on ``[0.15, 1]``;
* body_{kind}_n{n}: ``make_body`` of plpr and plenr for ``x**3.7`` on
  ``[0.15, 1]`` at n in {8, 64} equally spaced pieces;
* chunk_{kind}_l{lower}: one ``mc_volume`` call of ``mc.BLOCK_SIZE``
  columns on each of four bodies (p in {1.5, 2, 3.7, 6} on ``[lower, 1]``,
  8 equal pieces) per seed, split into the column kernel
  (``mc._kernel.count_hits``, timed by a wrapper around it) and the rest
  of the call (the stream, the draws and their strata, the sums), at
  lower in {0, 0.15, 0.5, 0.9}; at 0.9, ``f(1) <= 2 f(0.9)`` for every p
  up to 6.6, so the kernel works in units of ``f(lower)``;
* target: one round of the loop that brings each of the 60 chunk bodies
  with lower in {0, 0.15, 0.5} to a relative stderr of 3e-3, a one-chunk
  pilot and then calls sized from the last estimate's relative stderr,
  timed per op and per round;
* cold: one op as perfbench's mc-target workload runs it, ``COLD_OPS`` per
  kind on seeded bodies drawn as its pool draws them (p log-uniform on
  [1.25, 8] or exactly 2, upper log-uniform on [1, 100], lower 0 or 0.15
  of upper, 2 to 64 equal pieces), each after a numpy task that evicts
  the caches as the workload's reference task does.  The inputs
  (``Interval``, ``PowerFn``), the breakpoints (piecewise-linear kinds
  only), ``make_body`` and a one-chunk ``mc_volume`` call are timed
  separately, the call also split at its first kernel call into the draws
  and the kernel, and the piecewise-linear kinds' kernel by piece count
  (2-16 and 17-64 pieces).

The Monte-Carlo cases also report, for their timed calls' estimates, the
count, the samples, the hit fraction, the median relative stderr and a
digest of every ``(hits, samples, mean, stderr)``; these must agree
between processes, and the digests show whether two checkouts reached the
same estimates.  Each process's peak resident set (``ru_maxrss``) is
recorded too.  Only the public API, ``mc.BLOCK_SIZE`` and
``mc._kernel.count_hits`` are used, so the script times older checkouts.

    PYTHONPATH=src python3 benchmarks/bench.py [--json PATH]

nproc, the CPU model, the numpy version, ``KERNEL_BACKEND`` and
``mc.BLOCK_SIZE`` are recorded beside the numbers.
"""

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time

import numpy as np

import perspex
from perspex import (
    Breakpoints,
    Interval,
    PowerFn,
    RelaxationKind,
    make_body,
    mc_volume,
    newton_optimize,
    sweep_optimal_points,
    volume_power_closed_form,
)
from perspex import mc
from perspex.power import closed_form_volume

PROCESSES = 7
NEWTON_P = 3.7
MC_EXPONENTS = (1.5, 2.0, 3.7, 6.0)
MC_LOWERS = (0.0, 0.15, 0.5)  # lower ends of the target round's bodies
CHUNK_LOWERS = MC_LOWERS + (0.9,)
MC_PIECES = 8
TARGET_RSE = 3e-3
SEED = 1
COLD_OPS = 200  # cold ops per kind
PIECE_BANDS = ((2, 16), (17, 64))  # piece counts of the cold kernel's split
REPEATS = {  # timed calls per process
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
    "chunk": 6,  # seeds per chunk_* case
    "target": 1,  # rounds
    "cold": COLD_OPS * len(RelaxationKind),
}


def _cases():
    """Case name -> (timed calls, call); ``call(r)`` returns the ``(part,
    seconds)`` pairs and the Monte-Carlo estimates of its ``r``-th call."""
    pf = PowerFn(NEWTON_P, Interval(0.0, 1.0))
    grid = np.geomspace(1.1, 8.0, 200)
    whole = {f"newton_n{n}": (lambda n=n: newton_optimize(pf, n))
             for n in (10, 100, 1000, 10_000, 100_000)}
    whole["sweep_200x20"] = lambda: sweep_optimal_points(Interval(0.0, 1.3), 20, grid)
    for n in (20, 1250, 10_000):
        bp = Breakpoints.equally_spaced(pf.interval, n)
        whole[f"plpr_n{n}"] = lambda bp=bp: volume_power_closed_form(pf, bp)
    smooth = PowerFn(NEWTON_P, Interval(0.15, 1.0))
    for tag in ("nr", "pr", "enr"):
        whole[tag] = lambda kind=RelaxationKind(tag): closed_form_volume(kind, smooth, None)
    for tag in ("plpr", "plenr"):
        for n in (8, 64):
            bp = Breakpoints.equally_spaced(smooth.interval, n)
            whole[f"body_{tag}_n{n}"] = (
                lambda kind=RelaxationKind(tag), bp=bp: make_body(kind, smooth, bp))
    cases = {name: (REPEATS[name], _timed(fn)) for name, fn in whole.items()}

    for kind in RelaxationKind:
        for lower in CHUNK_LOWERS:
            cases[f"chunk_{kind.value}_l{lower:g}"] = (
                REPEATS["chunk"], lambda r, bodies=_bodies(kind, (lower,)): _chunks(bodies, r))
    bodies = [body for kind in RelaxationKind for body in _bodies(kind, MC_LOWERS)]
    cases["target"] = (REPEATS["target"], lambda r: _target_round(bodies))
    ops = [(kind, op) for kind in RelaxationKind for op in _cold_inputs(kind)]
    cases["cold"] = (REPEATS["cold"], lambda r: _cold_op(*ops[r]))
    return cases


def _timed(fn):
    def call(r):
        t0 = time.perf_counter()
        fn()
        return [("", time.perf_counter() - t0)], []
    return call


def _bodies(kind, lowers):
    out = []
    for p in MC_EXPONENTS:
        for lower in lowers:
            iv = Interval(lower, 1.0)
            out.append(make_body(kind, PowerFn(p, iv), Breakpoints.equally_spaced(iv, MC_PIECES)))
    return out


def _time_chunk(body, seed):
    """Whole-call, draw and kernel times of one ``BLOCK_SIZE`` call, in
    seconds, and its estimate.  The draw time runs from the call's start to
    its first kernel call: the stream, the draws and their strata."""
    kernel, entered = 0.0, None
    count_hits = mc._kernel.count_hits

    def timed(*args):
        nonlocal kernel, entered
        t0 = time.perf_counter()
        if entered is None:
            entered = t0
        try:
            return count_hits(*args)
        finally:
            kernel += time.perf_counter() - t0

    mc._kernel.count_hits = timed
    try:
        t0 = time.perf_counter()
        est = mc_volume(body, mc.BLOCK_SIZE, seed)
        call = time.perf_counter() - t0
    finally:
        mc._kernel.count_hits = count_hits
    return call, entered - t0, kernel, est


def _chunks(bodies, r):
    times, ests = [], []
    for body in bodies:
        call, _, kernel, est = _time_chunk(body, SEED + r)
        times += [("call", call), ("kernel", kernel), ("other", call - kernel)]
        ests.append(est)
    return times, ests


def _samples_for(est):
    """Whole chunks expected to bring the relative stderr under
    ``TARGET_RSE``: ``samples * (stderr / (TARGET_RSE * mean))**2``, at
    least one chunk more."""
    if not est.mean > 0.0:
        return 16 * est.samples
    need = est.samples * (est.stderr / (TARGET_RSE * est.mean)) ** 2
    blocks = math.ceil(need / mc.BLOCK_SIZE)
    return max(blocks * mc.BLOCK_SIZE, est.samples + mc.BLOCK_SIZE)


def _target_round(bodies):
    times, ests = [], []
    t_round = time.perf_counter()
    for i, body in enumerate(bodies):
        t0 = time.perf_counter()
        est = mc_volume(body, mc.BLOCK_SIZE, SEED + i)
        while not est.stderr <= TARGET_RSE * est.mean:
            est = mc_volume(body, _samples_for(est), SEED + i)
        times.append(("op", time.perf_counter() - t0))
        ests.append(est)
    return times + [("round", time.perf_counter() - t_round)], ests


def _evict():
    """Philox draws and elementwise powers on a 4 x 3 x 64k block, the
    size of perfbench's numpy reference task: it leaves the caches cold."""
    rng = np.random.Generator(np.random.Philox(key=12345))
    for _ in range(4):
        u = rng.random((3, 65536))
        np.count_nonzero(u[0] ** 2.5 + u[1] ** 1.7 <= u[2])


def _cold_inputs(kind):
    rng = np.random.default_rng([SEED, list(RelaxationKind).index(kind)])
    out = []
    for i in range(COLD_OPS):
        p = 2.0 if i % 5 == 4 else math.exp(rng.uniform(math.log(1.25), math.log(8.0)))
        upper = 10.0 ** rng.uniform(0.0, 2.0)
        lower = 0.0 if i % 2 == 0 else 0.15 * upper
        out.append((p, lower, upper, int(rng.integers(2, 65)), int(rng.integers(2**63))))
    return out


def _cold_op(kind, op):
    p, lower, upper, n, seed = op
    _evict()
    t0 = time.perf_counter()
    iv = Interval(lower, upper)
    pf = PowerFn(p, iv)
    t1 = time.perf_counter()
    bp = Breakpoints.equally_spaced(iv, n) if kind.piecewise_linear else None
    t2 = time.perf_counter()
    body = make_body(kind, pf, bp)
    t3 = time.perf_counter()
    call, draw, kernel, est = _time_chunk(body, seed)
    times = [("inputs", t1 - t0), ("breakpoints", t2 - t1), ("make_body", t3 - t2),
             ("mc_volume", call), ("draw", draw), ("kernel", kernel), ("op", t3 - t0 + call)]
    if kind.piecewise_linear:
        times += [(f"kernel_{lo}_{hi}", kernel) for lo, hi in PIECE_BANDS if lo <= n <= hi]
    return [(f"{kind.value}.{part}", secs) for part, secs in times], [est]


def _facts(ests):
    digest = hashlib.sha256()
    for est in ests:
        digest.update(f"{est.hits},{est.samples},{est.mean!r},{est.stderr!r};".encode())
    samples = sum(est.samples for est in ests)
    return {
        "estimates": len(ests),
        "samples": samples,
        "hit_frac": sum(est.hits for est in ests) / samples,
        "median_rse": statistics.median(est.stderr / est.mean for est in ests),
        "digest": digest.hexdigest()[:16],
    }


def _p75(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def _one_process():
    """Per case and part: the count, median and 75th percentile of this
    process's timed calls, in ms; per Monte-Carlo case, its facts; and the
    peak resident set in MB."""
    cases = {}
    for name, (repeats, call) in _cases().items():
        call(0)
        parts, ests = {}, []
        for r in range(repeats):
            times, made = call(r)
            for part, secs in times:
                parts.setdefault(part, []).append(1e3 * secs)
            ests += made
        cases[name] = {
            "parts": {part: (len(v), statistics.median(v), _p75(v)) for part, v in parts.items()},
            "facts": _facts(ests) if ests else None,
        }
    # Linux reports ru_maxrss in KiB
    return cases, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    args = parser.parse_args()

    spawn = multiprocessing.get_context("spawn")
    runs = []
    for _ in range(PROCESSES):
        with spawn.Pool(1) as pool:
            runs.append(pool.apply(_one_process))
    result = {
        "machine": {
            "nproc": os.cpu_count() or 1,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backend": perspex.KERNEL_BACKEND,
            "block_size": mc.BLOCK_SIZE,
        },
        "processes": PROCESSES,
        "repeats": REPEATS,
        "unit": "ms",
        "cases": {},
        "estimates": {},
        "peak_rss_mb": _quartiles([rss for _, rss in runs]),
    }
    first = runs[0][0]
    for name, case in first.items():
        for part, (count, _, _) in case["parts"].items():
            medians = [cases[name]["parts"][part][1] for cases, _ in runs]
            p75 = statistics.median(cases[name]["parts"][part][2] for cases, _ in runs)
            row = f"{name}.{part}" if part else name
            result["cases"][row] = {**_quartiles(medians), "p75": p75, "calls": count,
                                    "per_process": medians}
        if case["facts"]:
            if any(cases[name]["facts"] != case["facts"] for cases, _ in runs):
                raise RuntimeError(f"{name}: the estimates differ between processes")
            result["estimates"][name] = case["facts"]

    m = result["machine"]
    print(f"{m['nproc']} CPUs ({m['cpu_model']}), numpy {m['numpy']}, kernel backend "
          f"{m['kernel_backend']}, BLOCK_SIZE {m['block_size']}")
    print(f"per-process medians over {PROCESSES} processes and the median of their 75th "
          "percentiles, ms")
    print(f"{'case':26s} {'calls':>6s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'p75':>10s}")
    for name, row in result["cases"].items():
        print(f"{name:26s} {row['calls']:6d} {row['q1']:10.4f} {row['median']:10.4f} "
              f"{row['q3']:10.4f} {row['p75']:10.4f}")
    print("\nestimates of the timed calls, the same in every process")
    print(f"{'case':18s} {'count':>6s} {'samples':>9s} {'hit frac':>9s} {'rse':>8s}  digest")
    for name, f in result["estimates"].items():
        print(f"{name:18s} {f['estimates']:6d} {f['samples']:9d} {f['hit_frac']:9.4f} "
              f"{f['median_rse']:8.1e}  {f['digest']}")
    rss = result["peak_rss_mb"]
    print(f"\npeak RSS per process, MB: q1 {rss['q1']:.1f}, median {rss['median']:.1f}, "
          f"q3 {rss['q3']:.1f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
