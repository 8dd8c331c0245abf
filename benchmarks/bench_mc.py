#!/usr/bin/env python3
"""Time the Monte-Carlo oracle the way ``mc_volume`` runs it.

Two parts, on a fixed grid of bodies (every relaxation kind x p in
{1.5, 2, 3.7, 6} x lower in {0, 0.15, 0.5} on upper 1, 8 equal pieces):

* blocks: ``mc._block_hits`` on real 2**16-sample blocks, split into the
  draw (stream set-up, the uniforms the kind reads and their map into the
  cone's footprint, chunk by chunk) and the column kernel
  (``mc._kernel.count_hits``); medians per kind and lower end over exponents
  and blocks.
* target: the loop that brings one body to a relative stderr of 3e-3:
  a one-block pilot, then calls sized from the last estimate's hits as
  the benchmark's mc-target workload sizes them.  One op per body,
  ``--rounds`` rounds; the digest of every op's ``(hits, samples, mean,
  stderr)`` shows whether two checkouts reached the same estimates.

The process's peak resident set (``ru_maxrss``) is recorded at the end.

    PYTHONPATH=src python3 benchmarks/bench_mc.py [--json PATH]

The oracle's bit generator, ``KERNEL_BACKEND``, nproc and the numpy version
are recorded beside the numbers.
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


def _time_block(body, seed, block):
    """Draw (with the map into the footprint) and kernel times of one block,
    in seconds, and its ``(hits, count, mean, M2)``; the same chunks as
    ``mc._block_hits``."""
    draw = kernel = 0.0
    total = None
    t0 = time.perf_counter()
    gen = mc._block_stream(seed, block)
    for _ in range(mc.BLOCK_SIZE // mc.CHUNK_SIZE):
        ws, zs = mc._draw_chunk(body, gen, mc.CHUNK_SIZE)
        t1 = time.perf_counter()
        hits, mean, m2 = mc._kernel.count_hits(body, ws, zs)
        t2 = time.perf_counter()
        draw += t1 - t0
        kernel += t2 - t1
        t0 = t2
        part = (hits, mc.CHUNK_SIZE, mean, m2)
        total = part if total is None else mc._merge(total, part)
    return draw, kernel, total


def bench_blocks(blocks, seed):
    rows = {}
    for kind in RelaxationKind:
        for lower in LOWERS:
            draw, kernel, whole, hits, frac = [], [], [], 0, []
            for body in _bodies(kind, (lower,)):
                _time_block(body, seed, 0)  # warm-up
                for b in range(blocks):
                    d, k, part = _time_block(body, seed, b)
                    t0 = time.perf_counter()
                    same = mc._block_hits(body, seed, b, mc.BLOCK_SIZE)
                    whole.append(time.perf_counter() - t0)
                    if same != part:
                        raise RuntimeError(f"split block disagrees with _block_hits for {kind.value}")
                    draw.append(d)
                    kernel.append(k)
                    hits += part[0]
                    frac.append(part[2])
            rows[f"{kind.value} l={lower:g}"] = {
                "draw_ms": statistics.median(draw) * 1e3,
                "kernel_ms": statistics.median(kernel) * 1e3,
                "block_ms": statistics.median(whole) * 1e3,
                "hit_frac": hits / (len(whole) * mc.BLOCK_SIZE),
                "mean_fraction": statistics.fmean(frac),
                "blocks": len(whole),
            }
    return rows


def _samples_for(est, rse):
    """Whole blocks expected to bring the relative stderr under ``rse``, from
    the hit fraction, as the benchmark's mc-target workload sizes them."""
    frac = est.hits / est.samples
    if frac == 0.0:
        return 16 * est.samples
    need = 1.05 * (1.0 - frac) / (frac * rse**2)
    blocks = math.ceil(need / mc.BLOCK_SIZE)
    return max(blocks * mc.BLOCK_SIZE, est.samples + mc.BLOCK_SIZE)


def _to_target(body, seed, rse):
    est = mc_volume(body, mc.BLOCK_SIZE, seed)
    while not est.stderr <= rse * est.mean:
        est = mc_volume(body, _samples_for(est, rse), seed)
    return est


def bench_target(rounds, rse, seed):
    bodies = [body for kind in RelaxationKind for body in _bodies(kind)]
    round_s, op_ms, digest, samples = [], [], hashlib.sha256(), 0
    for r in range(rounds):
        t_round = time.perf_counter()
        for i, body in enumerate(bodies):
            t0 = time.perf_counter()
            est = _to_target(body, seed + i, rse)
            op_ms.append((time.perf_counter() - t0) * 1e3)
            if r == 0:
                digest.update(f"{est.hits},{est.samples},{est.mean!r},{est.stderr!r};".encode())
                samples += est.samples
        round_s.append(time.perf_counter() - t_round)
    return {
        "rse": rse,
        "ops_per_round": len(bodies),
        "round_s": round_s,
        "median_round_s": statistics.median(round_s),
        "median_op_ms": statistics.median(op_ms),
        "samples_per_round": samples,
        "msamples_per_s": samples / statistics.median(round_s) / 1e6,
        "digest": digest.hexdigest()[:16],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=6, help="timed blocks per body")
    parser.add_argument("--rounds", type=int, default=3, help="rounds of the target loop")
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    args = parser.parse_args()

    result = {
        "machine": {
            "nproc": os.cpu_count() or 1,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "bit_generator": type(mc._block_stream(0, 0).bit_generator).__name__,
            "kernel_backend": perspex.KERNEL_BACKEND,
        },
        "blocks": bench_blocks(args.blocks, SEED),
        "target": bench_target(args.rounds, TARGET_RSE, SEED),
    }
    # Linux reports ru_maxrss in KiB
    result["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    m = result["machine"]
    print(f"{m['nproc']} CPUs, numpy {m['numpy']}, {m['bit_generator']} draws, "
          f"kernel backend {m['kernel_backend']}")
    print(f"\nper 2**16-sample block, medians over {len(EXPONENTS)} exponents")
    print(f"{'body':12s} {'draw ms':>8s} {'kernel ms':>10s} {'block ms':>9s} {'hit frac':>9s} "
          f"{'mean g':>7s}")
    for name, row in result["blocks"].items():
        print(f"{name:12s} {row['draw_ms']:8.3f} {row['kernel_ms']:10.3f} "
              f"{row['block_ms']:9.3f} {row['hit_frac']:9.4f} {row['mean_fraction']:7.4f}")
    t = result["target"]
    print(f"\n{t['ops_per_round']} ops to relative stderr {t['rse']:g}: "
          f"round {t['median_round_s']:.3f} s (median of {len(t['round_s'])}), "
          f"op {t['median_op_ms']:.1f} ms, {t['msamples_per_s']:.1f} Msample/s, "
          f"digest {t['digest']}; peak RSS {result['ru_maxrss_mb']:.1f} MB")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
