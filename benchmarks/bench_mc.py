#!/usr/bin/env python3
"""Time the Monte-Carlo oracle the way ``mc_volume`` runs it.

Three parts.  The first two run on a fixed grid of bodies (every relaxation
kind x p in {1.5, 2, 3.7, 6} x lower in {0, 0.15, 0.5} on upper 1, 8 equal
pieces):

* chunks: one ``mc_volume`` call of ``mc.BLOCK_SIZE`` columns, split into
  the column kernel (``mc._kernel.count_hits``, timed by a wrapper around
  it) and the rest of the call (stream set-up, the offsets of the strata,
  the sums); medians per kind and lower end over exponents and repeats,
  with the relative stderr that one chunk reaches.
* target: the loop that brings one body to a relative stderr of 3e-3:
  a one-chunk pilot, then calls sized from the last estimate's relative
  stderr, since the variance falls as one over the samples.  One op per body,
  ``--rounds`` rounds; the digest of every op's ``(hits, samples, mean,
  stderr)`` shows whether two checkouts reached the same estimates.

* cold: one op as perfbench's mc-target workload runs it, on seeded bodies
  drawn as its pool draws them (p log-uniform on [1.25, 8] or exactly 2,
  upper log-uniform on [1, 100], lower 0 or 0.15 of upper, 2 to 64 equal
  pieces).  Before each op a numpy task evicts the caches, as the
  workload's reference task does between ops; then the inputs
  (``Interval``, ``PowerFn``), the breakpoints (``Breakpoints.equally_spaced``,
  piecewise-linear kinds only), ``make_body`` and one ``mc.BLOCK_SIZE``
  call of ``mc_volume`` are timed separately.  Medians and 75th
  percentiles over ``COLD_OPS`` ops per kind, in microseconds, with the
  piecewise-linear kinds' kernel time also split by piece count (2-16
  and 17-64 pieces), and the digest of the ops' estimates.

Only ``make_body``, ``mc_volume``, ``mc.BLOCK_SIZE`` and the kernel's
``count_hits`` are used, so the script times any checkout that has them.
The process's peak resident set (``ru_maxrss``) is recorded at the end.

    PYTHONPATH=src python3 benchmarks/bench_mc.py [--json PATH]

``KERNEL_BACKEND``, nproc and the numpy version are recorded beside the
numbers.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time

import numpy as np

import perspex
from perspex import Breakpoints, Interval, PowerFn, RelaxationKind, make_body, mc_volume
from perspex import mc

EXPONENTS = (1.5, 2.0, 3.7, 6.0)
LOWERS = (0.0, 0.15, 0.5)
PIECES = 8
TARGET_RSE = 3e-3
SEED = 1
COLD_OPS = 200  # cold ops per kind
PIECE_BANDS = ((2, 16), (17, 64))  # piece counts of the cold part's kernel split


def _bodies(kind, lowers=LOWERS):
    out = []
    for p in EXPONENTS:
        for lower in lowers:
            iv = Interval(lower, 1.0)
            out.append(make_body(kind, PowerFn(p, iv), Breakpoints.equally_spaced(iv, PIECES)))
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


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


def bench_chunks(repeats, seed):
    rows = {}
    for kind in RelaxationKind:
        for lower in LOWERS:
            call, kernel, hits, rse = [], [], 0, []
            for body in _bodies(kind, (lower,)):
                _time_chunk(body, seed)  # warm-up
                for r in range(repeats):
                    c, _, k, est = _time_chunk(body, seed + r)
                    call.append(c)
                    kernel.append(k)
                    hits += est.hits
                    rse.append(est.stderr / est.mean)
            rows[f"{kind.value} l={lower:g}"] = {
                "call_ms": statistics.median(call) * 1e3,
                "kernel_ms": statistics.median(kernel) * 1e3,
                "other_ms": statistics.median(c - k for c, k in zip(call, kernel)) * 1e3,
                "hit_frac": hits / (len(call) * mc.BLOCK_SIZE),
                "median_rse": statistics.median(rse),
                "calls": len(call),
            }
    return rows


def _samples_for(est, rse):
    """Whole chunks expected to bring the relative stderr under ``rse``:
    ``samples * (stderr / (rse * mean))**2``, at least one chunk more."""
    if not est.mean > 0.0:
        return 16 * est.samples
    need = est.samples * (est.stderr / (rse * est.mean)) ** 2
    blocks = math.ceil(need / mc.BLOCK_SIZE)
    return max(blocks * mc.BLOCK_SIZE, est.samples + mc.BLOCK_SIZE)


def _to_target(body, seed, rse):
    est = mc_volume(body, mc.BLOCK_SIZE, seed)
    calls = 1
    while not est.stderr <= rse * est.mean:
        est = mc_volume(body, _samples_for(est, rse), seed)
        calls += 1
    return est, calls


def bench_target(rounds, rse, seed):
    bodies = [body for kind in RelaxationKind for body in _bodies(kind)]
    round_s, op_ms, digest, samples, calls = [], [], hashlib.sha256(), 0, 0
    for r in range(rounds):
        t_round = time.perf_counter()
        for i, body in enumerate(bodies):
            t0 = time.perf_counter()
            est, n = _to_target(body, seed + i, rse)
            op_ms.append((time.perf_counter() - t0) * 1e3)
            if r == 0:
                digest.update(f"{est.hits},{est.samples},{est.mean!r},{est.stderr!r};".encode())
                samples += est.samples
                calls += n
        round_s.append(time.perf_counter() - t_round)
    return {
        "rse": rse,
        "ops_per_round": len(bodies),
        "calls_per_round": calls,
        "round_s": round_s,
        "median_round_s": statistics.median(round_s),
        "median_op_ms": statistics.median(op_ms),
        "samples_per_round": samples,
        "msamples_per_s": samples / statistics.median(round_s) / 1e6,
        "digest": digest.hexdigest()[:16],
    }


def _evict():
    """Philox draws and elementwise powers on a 4 x 3 x 64k block, the
    size of perfbench's numpy reference task: it leaves the caches cold."""
    rng = np.random.Generator(np.random.Philox(key=12345))
    for _ in range(4):
        u = rng.random((3, 65536))
        np.count_nonzero(u[0] ** 2.5 + u[1] ** 1.7 <= u[2])


def _cold_inputs(kind, count, seed):
    rng = np.random.default_rng([seed, list(RelaxationKind).index(kind)])
    out = []
    for i in range(count):
        p = 2.0 if i % 5 == 4 else math.exp(rng.uniform(math.log(1.25), math.log(8.0)))
        upper = 10.0 ** rng.uniform(0.0, 2.0)
        lower = 0.0 if i % 2 == 0 else 0.15 * upper
        out.append((p, lower, upper, int(rng.integers(2, 65)), int(rng.integers(2**63))))
    return out


def _p75(values):
    return statistics.quantiles(values, n=4)[2]


def bench_cold(count, seed):
    rows, digest = {}, hashlib.sha256()
    for kind in RelaxationKind:
        steps = []  # per op: inputs, breakpoints, make_body, mc_volume
        split = []  # per op: mc_volume's draws and kernel
        pieces = []
        for p, lower, upper, n, op_seed in _cold_inputs(kind, count, seed):
            _evict()
            t0 = time.perf_counter()
            iv = Interval(lower, upper)
            pf = PowerFn(p, iv)
            t1 = time.perf_counter()
            bp = Breakpoints.equally_spaced(iv, n) if kind.piecewise_linear else None
            t2 = time.perf_counter()
            body = make_body(kind, pf, bp)
            t3 = time.perf_counter()
            call, draw, kernel, est = _time_chunk(body, op_seed)
            steps.append([(b - a) * 1e6 for a, b in ((t0, t1), (t1, t2), (t2, t3))] + [call * 1e6])
            split.append((draw * 1e6, kernel * 1e6))
            pieces.append(n)
            digest.update(f"{est.hits},{est.samples},{est.mean!r},{est.stderr!r};".encode())
        inputs, breakpoints, body_us, call_us = zip(*steps)
        draw_us, kernel_us = zip(*split)
        rows[kind.value] = {
            "inputs_us": statistics.median(inputs),
            "breakpoints_us": statistics.median(breakpoints),
            "make_body_us": statistics.median(body_us),
            "mc_volume_us": statistics.median(call_us),
            "draw_us": statistics.median(draw_us),
            "kernel_us": statistics.median(kernel_us),
            "kernel_p75_us": _p75(kernel_us),
            "op_us": statistics.median(map(sum, steps)),
            "op_p75_us": _p75(map(sum, steps)),
            "ops": count,
        }
        if kind.piecewise_linear:
            for lo, hi in PIECE_BANDS:
                band = [k for k, n in zip(kernel_us, pieces) if lo <= n <= hi]
                rows[kind.value][f"kernel_us_{lo}_{hi}"] = {
                    "median": statistics.median(band), "p75": _p75(band), "ops": len(band)}
    return {"kinds": rows, "digest": digest.hexdigest()[:16]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=6, help="timed calls per body")
    parser.add_argument("--rounds", type=int, default=3, help="rounds of the target loop")
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    args = parser.parse_args()

    result = {
        "machine": {
            "nproc": os.cpu_count() or 1,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backend": perspex.KERNEL_BACKEND,
            "block_size": mc.BLOCK_SIZE,
        },
        "chunks": bench_chunks(args.repeats, SEED),
        "target": bench_target(args.rounds, TARGET_RSE, SEED),
        "cold": bench_cold(COLD_OPS, SEED),
    }
    # Linux reports ru_maxrss in KiB
    result["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    m = result["machine"]
    print(f"{m['nproc']} CPUs, numpy {m['numpy']}, kernel backend {m['kernel_backend']}, "
          f"BLOCK_SIZE {m['block_size']}")
    print(f"\nper one-chunk call, medians over {len(EXPONENTS)} exponents x {args.repeats} seeds")
    print(f"{'body':12s} {'call ms':>8s} {'kernel ms':>10s} {'other ms':>9s} {'hit frac':>9s} "
          f"{'rse':>8s}")
    for name, row in result["chunks"].items():
        print(f"{name:12s} {row['call_ms']:8.3f} {row['kernel_ms']:10.3f} "
              f"{row['other_ms']:9.3f} {row['hit_frac']:9.4f} {row['median_rse']:8.1e}")
    t = result["target"]
    print(f"\n{t['ops_per_round']} ops to relative stderr {t['rse']:g} in {t['calls_per_round']} "
          f"calls: round {t['median_round_s']:.3f} s (median of {len(t['round_s'])}), "
          f"op {t['median_op_ms']:.2f} ms, {t['msamples_per_s']:.1f} Msample/s, "
          f"digest {t['digest']}")
    c = result["cold"]
    print(f"\ncold ops after a cache-evicting task, medians (and p75) over {COLD_OPS} per "
          "kind, us")
    print(f"{'kind':6s} {'inputs':>8s} {'breakpoints':>12s} {'make_body':>10s} "
          f"{'mc_volume':>10s} {'draw':>8s} {'kernel':>8s} {'p75':>8s} {'op':>8s} {'p75':>8s}")
    for name, row in c["kinds"].items():
        print(f"{name:6s} {row['inputs_us']:8.1f} {row['breakpoints_us']:12.1f} "
              f"{row['make_body_us']:10.1f} {row['mc_volume_us']:10.1f} {row['draw_us']:8.1f} "
              f"{row['kernel_us']:8.1f} {row['kernel_p75_us']:8.1f} {row['op_us']:8.1f} "
              f"{row['op_p75_us']:8.1f}")
    for name, row in c["kinds"].items():
        for lo, hi in PIECE_BANDS:
            band = row.get(f"kernel_us_{lo}_{hi}")
            if band:
                print(f"{name:6s} kernel at {lo}-{hi} pieces: {band['median']:.1f} "
                      f"(p75 {band['p75']:.1f}) over {band['ops']} ops")
    print(f"digest {c['digest']}; peak RSS {result['ru_maxrss_mb']:.1f} MB")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
