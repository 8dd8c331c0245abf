"""One workload process of the benchmark.

    python3 perfbench/session.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``; ``run.py``
starts it.  The process imports the package, builds the seed's input pool
and warms up; that instant, on the system-wide monotonic clock, is reported
as ``ready`` so the parent can time set-up from its own spawn.  With
``--setup-only`` it stops there.  Otherwise it runs the ops as one
closed-loop caller, checks every output after the timed region, and prints
one JSON line of results.

With ``--trace 0`` ops run in pool order, each followed by one run of the
workload's reference task, until ``--seconds`` have passed.  With
``--trace 1`` one pass over the pool's first round is checked, a second runs
untraced and a third under the span tracer; the per-layer numbers come from
the spans of the third.  cli-small replays its commands in-process for the
untraced and traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import perspex
from perspex import cli, mc

import tracing
import workloads as wl


# Tail percentile per workload over the ops of a run: one of 50/75/90/95/99
# with at least ten ops beyond it in a run of BENCHMARK.json's length, even
# on a slow stretch of the host.  mc-target stays at p75: over eight
# 45-second runs its p90 spread up to twice as much.  The percentile is fixed
# so that a faster or slower program is compared at the same rank.
TAIL_PERCENTILE = {"newton-large": 90.0, "mc-target": 75.0, "cli-small": 75.0}

IMPORT_PROBES = 3

# Each op's time is divided by the median of the reference runs within this
# many ops of it: near enough to follow the host's speed from one stretch to
# the next, and five runs so that one slow reference does not move an op.
REF_NEIGHBOURS = 2


@dataclass(frozen=True)
class Workload:
    pool: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    digest: Callable[[Any], bytes]
    warm_up: Callable[[list], None]
    reference: Callable[[], object]  # fixed host-speed task, no perspex code
    round_size: int  # ops in one round of the pool; the traced run takes one


def _newton_digest(out) -> bytes:
    xi, volume = out
    return xi.tobytes() + np.float64(volume).tobytes()


def _mc_digest(est) -> bytes:
    return repr((est.hits, est.samples, est.mean, est.stderr)).encode()


def make_workload(name: str) -> Workload:
    if name == "newton-large":
        def warm_up(pool):
            for p in (1.5, 3.0):
                wl.newton_op(wl.NewtonInput(p, 0.0, 1.0, 16))

        return Workload(wl.newton_pool, wl.newton_op, wl.newton_check, _newton_digest, warm_up,
                        wl.reference_python, wl.NEWTON_ROUND)
    if name == "mc-target":
        def warm_up(pool):
            mc.mc_volume(wl.mc_body(pool[0]), 2 * mc.BLOCK_SIZE, 0, wl.WORKERS)

        return Workload(wl.mc_pool, lambda inp: wl.mc_op(inp, wl.WORKERS), wl.mc_check,
                        _mc_digest, warm_up, wl.reference_numpy, wl.MC_ROUND)
    if name == "cli-small":
        def warm_up(pool):
            wl.cli_op(pool[0])

        return Workload(wl.cli_pool, wl.cli_op, wl.cli_check,
                        lambda out: repr(out[:2]).encode(), warm_up,
                        wl.reference_process, wl.CLI_ROUND)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Record:
    index: int  # position in the pool
    seconds: float
    error: str | None  # set when the op raised
    digest: bytes | None


def run_op(work: Workload, pool, k: int):
    t0 = time.perf_counter()
    try:
        out = work.run(pool[k])
        error = None
    except Exception as exc:  # an op that raises is a failed op, never a crash
        out, error = None, f"raised {type(exc).__name__}"
    seconds = time.perf_counter() - t0
    return Record(k, seconds, error, None if error else work.digest(out)), out


def timed_loop(work: Workload, pool, seconds: float):
    """Closed loop over the pool until ``seconds`` have passed.

    Each op is followed by one timed run of the reference task, so the
    reference samples the host's speed over the same stretch as the ops."""
    records, first, refs = [], {}, []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        rec, out = run_op(work, pool, i % len(pool))
        records.append(rec)
        first.setdefault(rec.index, out)
        t0 = time.perf_counter()
        work.reference()
        refs.append(time.perf_counter() - t0)
        i += 1
        if time.perf_counter() >= deadline:
            return records, first, refs


def one_pass(work: Workload, pool, tracer=None):
    records, outs = [], {}
    for k in range(len(pool)):
        if tracer is not None:
            tracer.begin_op(k)
        rec, out = run_op(work, pool, k)
        records.append(rec)
        outs[k] = out
    return records, outs


def check_outputs(work: Workload, pool, records, first) -> tuple[list[str | None], bool]:
    """One verdict per record; False when a repeated input changed output."""
    verdict = {}
    for k, out in first.items():
        if out is None:
            continue
        try:
            verdict[k] = work.check(pool[k], out)
        except Exception as exc:  # a check that cannot run cannot pass the op
            verdict[k] = f"check raised {type(exc).__name__}: {exc}"
    reasons, deterministic = [], True
    for rec in records:
        if rec.error is not None:
            reasons.append(rec.error)
            continue
        if rec.digest != work.digest(first[rec.index]):
            deterministic = False
            reasons.append("output differs from an earlier run of the same input")
            continue
        reasons.append(verdict[rec.index])
    return reasons, deterministic


def nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(name: str, records, reasons, refs) -> tuple[dict, dict]:
    """Throughput and latency percentiles over the run's ops, each op's time
    in units of the reference time around it.

    The host's speed drifts by more than the bounds within minutes, and the
    reference task slows with it, so the ratio cancels the drift while a
    change to perspex moves the ops alone.  The raw figures go to the
    details."""
    pct = TAIL_PERCENTILE[name]
    k = REF_NEIGHBOURS
    rel = sorted(r.seconds / statistics.median(refs[max(0, i - k):i + k + 1])
                 for i, r in enumerate(records))
    ms = sorted(1e3 * r.seconds for r in records)
    busy = sum(r.seconds for r in records)
    ok = sum(why is None for why in reasons)
    metrics = {
        "ops_per_ref": (ok / sum(rel), "1/ref"),
        "op_ref_p50": (nearest_rank(rel, 50.0), "ref"),
        "op_ref_tail": (nearest_rank(rel, pct), "ref"),
        "ok_frac": (ok / len(records), "ratio"),
    }
    ref_q = statistics.quantiles(refs, n=4) if len(refs) > 1 else refs * 3
    detail = {
        "ops_per_s": ok / busy,
        "op_ms_p50": nearest_rank(ms, 50.0),
        "op_ms_tail": nearest_rank(ms, pct),
        "ref_ms_quartiles": [1e3 * q for q in ref_q],
        "tail_percentile": pct,
        "ops_beyond_tail": len(ms) - max(1, math.ceil(pct / 100.0 * len(ms))),
        "busy_s": busy,
    }
    return metrics, detail


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-small" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def _fresh_seconds(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Median wall of a fresh process that only imports ``perspex.cli``."""
    return statistics.median(
        _fresh_seconds(["-c", "import perspex.cli"]) for _ in range(IMPORT_PROBES)
    )


def cli_in_process(pool, tracer=None):
    """Replay CLI commands through ``perspex.cli.main`` in this process.

    Returns per-command (seconds, (exit code, stdout)) pairs."""
    out = []
    for k, inp in enumerate(pool):
        if tracer is not None:
            tracer.begin_op(k)
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(inp.argv))
            except Exception as exc:
                code = f"raised {type(exc).__name__}"
        out.append((time.perf_counter() - t0, (code, buf.getvalue())))
    return out


def layer_metrics(totals, extra) -> dict:
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    newton_calls = get("placement.newton", "calls")
    mc_samples = get("mc.volume", "work")
    kernel_samples = get("mc.membership", "work")
    kernel_busy = get("mc.membership", "busy_s")
    main_self = get("cli.main", "self_s")
    m = {
        "power.gradient_system.calls": (get("power.gradient_system", "calls"), "count"),
        "power.gradient_system.points": (get("power.gradient_system", "work"), "count"),
        "power.gradient_system.busy_s": (get("power.gradient_system", "busy_s"), "s"),
        "power.closed_form.calls": (get("power.closed_form", "calls"), "count"),
        "power.closed_form.busy_s": (get("power.closed_form", "busy_s"), "s"),
        "placement.newton.calls": (newton_calls, "count"),
        "placement.newton.iterations": (
            get("placement.newton", "children.power.gradient_system") - newton_calls, "count"),
        "placement.newton.self_s": (get("placement.newton", "self_s"), "s"),
        "placement.solve.calls": (get("placement.solve", "calls"), "count"),
        "placement.solve.busy_s": (get("placement.solve", "busy_s"), "s"),
        "placement.sweep.busy_s": (get("placement.sweep", "busy_s"), "s"),
        "underestimator.build.calls": (get("underestimator.build", "calls"), "count"),
        "underestimator.build.busy_s": (get("underestimator.build", "busy_s"), "s"),
        "underestimator.oracle.busy_s": (get("underestimator.oracle", "busy_s"), "s"),
        "mc.volume.calls": (get("mc.volume", "calls"), "count"),
        "mc.volume.busy_s": (get("mc.volume", "busy_s"), "s"),
        "mc.samples": (mc_samples, "count"),
        "mc.membership.calls": (get("mc.membership", "calls"), "count"),
        "mc.membership.busy_s": (kernel_busy, "s"),
        "mc.membership.msamples_per_s": (
            kernel_samples / kernel_busy / 1e6 if kernel_busy else 0.0, "Msample/s"),
        "mc.membership.bytes_computed": (24 * kernel_samples, "B"),
        "mc.other_s": (wl.WORKERS * get("mc.volume", "busy_s") - kernel_busy, "s"),
        "cli.main.busy_s": (get("cli.main", "busy_s"), "s"),
        "cli.self_s": (main_self, "s"),
    }
    m.update(extra)
    return m


def trace_run(name: str, work: Workload, pool, seed: int):
    """Checked pass, untraced pass, traced pass of the same ops, layer metrics.

    ``outputs_agree`` is False when tracing changed an output or, on
    mc-target, the first op counted different hits on 1 and ``wl.WORKERS``
    workers."""
    tracer = tracing.Tracer()
    extra = {"mc.fanout.speedup": (0.0, "ratio"), "mc.fanout.efficiency": (0.0, "ratio"),
             "cli.startup_s": (0.0, "s")}
    checked, first = one_pass(work, pool)
    reasons, deterministic = check_outputs(work, pool, checked, first)
    if name == "cli-small":
        cli_in_process(pool)  # first in-process calls pay one-time costs
        with tracing.patched(tracer):
            traced = cli_in_process(pool, tracer)
        plain = cli_in_process(pool)
        fresh = [None if first[k] is None else first[k][:2] for k in range(len(pool))]
        same = all(a == b == f for (_, a), (_, b), f in zip(plain, traced, fresh))
        base = sum(s for s, _ in plain)
        wall = sum(s for s, _ in traced)
        extra["cli.startup_s"] = (
            (sum(r.seconds for r in checked) - base) / len(pool), "s")
    else:
        untraced, _ = one_pass(work, pool)  # the checked pass paid one-time costs
        with tracing.patched(tracer):
            traced, _ = one_pass(work, pool, tracer)
        same = all(a.digest == b.digest == c.digest
                   for a, b, c in zip(checked, untraced, traced))
        base = sum(r.seconds for r in untraced)
        wall = sum(r.seconds for r in traced)
    if name == "mc-target":
        best, hits = {}, set()
        for w in (1, wl.WORKERS) * 2:
            t0 = time.perf_counter()
            hits.add(wl.mc_op(pool[0], w).hits)
            best[w] = min(best.get(w, math.inf), time.perf_counter() - t0)
        same = same and len(hits) == 1
        speedup = best[1] / best[wl.WORKERS]
        extra["mc.fanout.speedup"] = (speedup, "ratio")
        extra["mc.fanout.efficiency"] = (speedup / wl.WORKERS, "ratio")
    extra["cli.import_s"] = (import_seconds(), "s")
    extra["trace.overhead_frac"] = (wall / base - 1.0, "ratio")

    os.makedirs(".perfbench_out", exist_ok=True)
    tracer.dump(os.path.join(".perfbench_out", f"spans-{name}-{seed}.jsonl"))
    metrics = layer_metrics(tracing.layer_totals(tracer.spans), extra)
    detail = {"spans": len(tracer.spans), "outputs_agree": same}
    return checked, reasons, deterministic and same, metrics, detail


def workers_agree(pool, first) -> bool:
    """The first op's final call counts the same hits on one worker."""
    est = first.get(0)
    if est is None:
        return True
    again = mc.mc_volume(wl.mc_body(pool[0]), est.samples, pool[0].seed, 1)
    return again.hits == est.hits


def provenance(name: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    commit = None
    if os.path.exists(".git"):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.dirname(perspex.__file__)
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": perspex.KERNEL_BACKEND,
        "workers": wl.WORKERS,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = make_workload(args.workload)
    pool = work.pool(args.seed)
    work.warm_up(pool)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        records, reasons, correct, metrics, detail = trace_run(
            args.workload, work, pool[:work.round_size], args.seed)
    else:
        records, first, refs = timed_loop(work, pool, args.seconds)
        reasons, correct = check_outputs(work, pool, records, first)
        if args.workload == "mc-target":
            correct = correct and workers_agree(pool, first)
        metrics, detail = end_to_end(args.workload, records, reasons, refs)
        metrics["peak_rss_mb"] = (peak_rss_mb(args.workload), "MB")
        detail["outside_draws"] = wl.outside_draws(args.workload)

    failures: dict[str, int] = {}
    for why in reasons:
        if why is not None:
            key = why.split(":")[0]
            failures[key] = failures.get(key, 0) + 1
    print(json.dumps({
        "ready": ready,
        "correct": bool(correct),
        "attempted": len(records),
        "failed": sum(why is not None for why in reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {**detail, "failures": failures},
        "provenance": provenance(args.workload, args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
