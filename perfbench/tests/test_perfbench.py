"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Run from the root of the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import perspex  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

POOLS = {"newton-large": wl.newton_pool, "mc-target": wl.mc_pool, "cli-small": wl.cli_pool}


def _units(group):
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.fixture
def checkout_env(monkeypatch, tmp_path):
    """Run in a scratch directory with the package importable by children."""
    monkeypatch.setenv("PYTHONPATH", SRC)
    monkeypatch.delenv("PERSPEX_THREADS", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    pool = POOLS[name]
    assert pool(7) == pool(7)
    assert pool(7) != pool(8)
    assert len(pool(7)) == len(pool(8))


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.05", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == _units("end_to_end")
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def _tiny_pool(name):
    if name == "newton-large":
        return [wl.NewtonInput(3.0, 0.0, 1.0, 40), wl.NewtonInput(1.5, 0.25, 2.0, 30)]
    if name == "mc-target":
        return [replace(inp, p=3.0, lower=0.0) for inp in wl.mc_pool(3)[:2]]
    return [inp for inp in wl.cli_pool(3)[:5] if inp.command in ("volume", "compare")]


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_run_prints_every_layer_metric(name, checkout_env):
    work = session.make_workload(name)
    pool = _tiny_pool(name)
    records, reasons, correct, metrics, detail = session.trace_run(name, work, pool, 3)
    assert correct and detail["outputs_agree"]
    assert reasons == [None] * len(pool)
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    assert (checkout_env / ".perfbench_out" / f"spans-{name}-3.jsonl").is_file()
    if name == "newton-large":
        assert metrics["power.gradient_system.calls"][0] > 0
        assert metrics["placement.newton.calls"][0] == 2
        assert metrics["placement.solve.calls"][0] > 0
    elif name == "mc-target":
        assert metrics["mc.samples"][0] >= 2 * wl.MC_PILOT
        assert metrics["mc.membership.calls"][0] >= metrics["mc.volume.calls"][0]
        assert metrics["mc.fanout.speedup"][0] > 0
    else:
        assert metrics["cli.main.busy_s"][0] >= metrics["cli.self_s"][0] > 0


def test_patched_wraps_where_callers_look_and_restores():
    orig = perspex.placement.gradient_system
    orig_kernel = perspex.mc._kernel.count_hits
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert perspex.placement.gradient_system is not orig
        assert perspex.power.gradient_system is not orig
        assert perspex.mc._kernel.count_hits is not orig_kernel
        wl.newton_op(wl.NewtonInput(3.0, 0.0, 1.0, 8))
    assert perspex.placement.gradient_system is orig
    assert perspex.mc._kernel.count_hits is orig_kernel
    names = {s.name for s in tracer.spans}
    assert {"placement.newton", "power.gradient_system", "placement.solve",
            "power.closed_form"} <= names


def test_self_time_is_span_minus_union_of_children():
    spans = [
        tracing.Span("a", None, 1, 0, 0.0, 10.0),
        tracing.Span("b", 0, 1, 0, 1.0, 4.0),
        tracing.Span("c", 0, 2, 0, 3.0, 6.0),  # overlaps b on another thread
    ]
    totals = tracing.layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(5.0)
    assert totals["a"]["busy_s"] == pytest.approx(10.0)
    assert totals["a"]["children.b"] == 1


def _failed_fraction(name, work, pool, n_ops=4):
    records, first = [], {}
    for i in range(n_ops):
        rec, out = session.run_op(work, pool, i % len(pool))
        records.append(rec)
        first.setdefault(rec.index, out)
    reasons, deterministic = session.check_outputs(work, pool, records, first)
    metrics, _ = session.end_to_end(name, records, reasons, [1.0] * len(records))
    return 1.0 - metrics["ok_frac"][0], reasons, deterministic


def _planted(work, plant):
    return replace(work, run=lambda inp: plant(work.run(inp)))


def test_planted_wrong_breakpoints_are_counted():
    work = session.make_workload("newton-large")
    pool = _tiny_pool("newton-large")

    def nudge(out):
        xi, vol = out
        xi = xi.copy()
        xi[1:-1] += 1e-3 * (xi[-1] - xi[0]) / len(xi)
        return xi, vol

    frac, reasons, _ = _failed_fraction("newton-large", _planted(work, nudge), pool)
    assert frac == 1.0
    assert all(r.startswith("not stationary") for r in reasons)
    frac, _, _ = _failed_fraction("newton-large", work, pool)
    assert frac == 0.0


def test_planted_wrong_volume_is_counted():
    work = session.make_workload("newton-large")
    frac, reasons, _ = _failed_fraction(
        "newton-large", _planted(work, lambda out: (out[0], out[1] * (1 + 1e-6))),
        _tiny_pool("newton-large"))
    assert frac == 1.0
    assert all(r.startswith("closed form differs") for r in reasons)


def test_planted_wrong_estimate_is_counted():
    work = session.make_workload("mc-target")
    pool = [inp for inp in wl.mc_pool(3) if inp.kind == "plpr"][:1]
    pool = [replace(pool[0], p=3.0, lower=0.0)]
    frac, reasons, _ = _failed_fraction(
        "mc-target", _planted(work, lambda est: replace(est, mean=est.mean + 6 * est.stderr)),
        pool, n_ops=1)
    assert frac == 1.0 and reasons[0].startswith("estimate misses closed form")


def test_planted_wrong_cli_report_is_counted(checkout_env):
    work = session.make_workload("cli-small")
    pool = _tiny_pool("cli-small")[:1]
    assert pool[0].command in ("volume", "compare")

    def tamper(out):
        code, stdout, stderr = out
        report = json.loads(stdout)
        key = "volume" if "volume" in report else "ratio"
        report[key] = np.nextafter(report[key], np.inf)
        return code, json.dumps(report), stderr

    frac, reasons, _ = _failed_fraction("cli-small", _planted(work, tamper), pool, n_ops=1)
    assert frac == 1.0 and "differs from the library call" in reasons[0]


def test_nondeterministic_output_breaks_correct():
    work = session.make_workload("newton-large")
    calls = iter(range(100))
    flaky = _planted(work, lambda out: (out[0], out[1] * (1.0 + 1e-12 * next(calls))))
    _, _, deterministic = _failed_fraction("newton-large", flaky, _tiny_pool("newton-large"))
    assert not deterministic


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "newton-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_timing_metrics_are_in_units_of_the_nearby_reference():
    # the host runs twice as slow for the last three ops and their references
    seconds = (0.1, 0.2, 0.3, 0.2, 0.4, 0.6)
    refs = [0.1, 0.1, 0.1, 0.2, 0.2, 0.2]
    records = [session.Record(k, s, None, b"") for k, s in enumerate(seconds)]
    metrics, detail = session.end_to_end("cli-small", records, [None] * 6, refs)
    assert metrics["op_ref_p50"][0] == pytest.approx(2.0)
    assert metrics["op_ref_tail"][0] == pytest.approx(3.0)
    assert metrics["ops_per_ref"][0] == pytest.approx(6 / 12)
    assert detail["op_ms_p50"] == pytest.approx(200.0)


@pytest.mark.parametrize("name", ["mc-target", "cli-small"])
def test_outside_draws_census_counts_typed_failures(name):
    census = wl.outside_draws(name)
    assert census["inputs"] > 0
    assert census["failed"] == sum(census["reasons"].values()) <= census["inputs"]
