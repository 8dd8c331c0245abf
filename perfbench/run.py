#!/usr/bin/env python3
"""Run one workload of the perspex benchmark and print its metrics.

    python3 perfbench/run.py --workload newton-large --seed 1 --seconds 20 --trace 0

Run from the root of a perspex checkout: the package is imported from
``src`` as it stands there.  Each workload runs in a fresh process
(``session.py``).  With ``--trace 0`` eight more fresh processes only set up,
and ``setup_s`` is the median set-up time of all nine.  The second-to-last
line of standard output holds the run's provenance and details; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("newton-large", "mc-target", "cli-small")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # whole run, set-up sessions included


class SessionFailed(RuntimeError):
    pass


def _session(cmd, env, start) -> dict:
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (spawned - start)))
    except subprocess.TimeoutExpired:
        raise SessionFailed(f"session did not finish within {DEADLINE_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise SessionFailed(f"session exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    # both clocks are the system-wide monotonic clock
    result["setup_s"] = result["ready"] - spawned
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "perspex", "__init__.py")):
        print("error: src/perspex not found; run from the root of a perspex checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PERSPEX_THREADS", None)
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    start = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_session(cmd + ["--setup-only"], env, start)["setup_s"])
        result = _session(cmd, env, start)
    except (SessionFailed, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    detail = result["detail"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        detail["setup_samples_s"] = setups
    print(json.dumps({"provenance": result["provenance"], "detail": detail}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
