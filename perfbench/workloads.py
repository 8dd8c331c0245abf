"""Seeded inputs, operations and output checks of the three workloads.

Every input is a pure function of the workload seed.  Each pool is a
jittered grid: one point per cell of a fixed grid over the input properties
the program's cost and failures depend on, drawn uniformly in the middle
``JITTER`` share of its cell.  Different seeds give different inputs with
the same mix of costs and failure modes.  Drawing anywhere in the cell
instead spreads the time of a newton-large pass by about 20% between seeds,
because a few points land on either side of the boundary where Newton stops
converging and runs 200 iterations.  Cells are listed with the cheapest
property varying fastest, so any stretch of consecutive ops is a balanced
sample of the grid.  mc-target and cli-small repeat their grid in rounds,
each with fresh draws, so that a run's percentiles are taken over many
distinct inputs rather than over a few slow ones.

Every op of the timed loop is followed by a reference task that uses no
perspex code (``reference_*``).  The median time of the reference runs
nearest an op is the unit of that op's time, which cancels the host's
drifting speed.  ``outside_draws`` tries fixed inputs just outside the
draws, where the seed fails, so that the narrowed draws hide no defect.

Operations call the library through module attributes (``placement.
newton_optimize``, ``mc.mc_volume``, ...) at call time, so the tracer's
patches in :mod:`tracing` see them.  Checks return ``None`` for a correct
output and a short reason otherwise; they never run inside a timed op.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from perspex import mc, placement, power, underestimator
from perspex.power import PowerFn, RelaxationKind
from perspex.underestimator import Breakpoints, Interval

WORKLOADS = ("newton-large", "mc-target", "cli-small")

# The single caller never runs more Monte-Carlo threads than this.
WORKERS = min(2, os.cpu_count() or 1)

# Output-check tolerances, fixed here and independent of the solver's own.
STATIONARITY_BOUND = 1e-9  # max |residual| / (upper - lower)
CLOSED_FORM_RTOL = 1e-8  # closed form against fan triangulation
MC_SIGMAS = 5.0  # estimate against closed form, in reported stderrs

MC_TARGET_RSE = 3e-3  # relative stderr an mc-target op must reach
MC_PILOT = mc.BLOCK_SIZE
CLI_MC_SAMPLES = 200_000
SWEEP_N = 20
SWEEP_GRID = 200
CLI_P_MIN = 1.1
NEWTON_SIZES = (160, 450, 1250)  # log-spread over [100, 2000]
JITTER = 0.3
MC_ROUNDS = 8  # about one 50-second run's worth of ops
CLI_ROUNDS = 3

NEWTON_ROUND = 63  # grid cells per round
MC_ROUND = 50
CLI_ROUND = 10

_PL_KINDS = (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def reference_python() -> int:
    """Pure-Python integer loop: the interpreter-bound reference."""
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def reference_numpy() -> int:
    """Philox draws and elementwise powers on a fixed 4 x 64k-point block,
    single-threaded: the reference for the numpy-bound Monte-Carlo path.
    Spread over two threads like the ops, it varied with the scheduling of
    its own threads, and ten runs' ratios spread two to three times as much."""
    rng = np.random.Generator(np.random.Philox(key=12345))
    hits = 0
    for _ in range(4):
        u = rng.random((3, 65536))
        hits += int(np.count_nonzero(u[0] ** 2.5 + u[1] ** 1.7 <= u[2]))
    return hits


def reference_process() -> None:
    """A fresh interpreter that imports numpy: the start-up reference."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)


def _in_bin(rng, lo: float, hi: float, bins: int, k: int, log: bool = True,
            jitter: float = JITTER) -> float:
    """Draw in the middle ``jitter`` share of the k-th of ``bins`` equal
    (log-spaced when ``log``) bins of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    x = a + (b - a) / bins * (k + 0.5 + jitter * (rng.uniform() - 0.5))
    return math.exp(x) if log else x


# ---------------------------------------------------------------- newton-large


@dataclass(frozen=True)
class NewtonInput:
    p: float
    lower: float
    upper: float
    n: int


def newton_pool(seed: int) -> list[NewtonInput]:
    """Grid of n (``NEWTON_SIZES``) x p (6 log bins over [1.01, 8] plus
    p = 2) x lower (0, a ratio of upper, or a narrow interval far from zero).
    The sizes, and every point at p = 2, are fixed.  Whether Newton at
    p = 2 converges at once or runs 200 iterations for two seconds turns on
    rounding noise once n is large or the interval narrow, so jitter there
    switches a pass's slowest ops on and off between seeds.

    Upper takes one of four decades over [1e-2, 1e2] by a Latin-square
    rotation over the other three indices, and the ratio (1/8 to 7/8) and
    the narrow relative width (1e-2.5 to 1e-5.5) step with that decade, so
    all of them span their range without multiplying the cells."""
    rng = _rng(seed, "newton-large")
    pool = []
    for jn, ip, ml in itertools.product(range(3), range(7), range(3)):
        ku = (jn + ip + 3 * ml) % 4
        jitter = 0.0 if ip == 6 else JITTER
        upper = _in_bin(rng, 1e-2, 1e2, 4, ku, jitter=jitter)
        n = NEWTON_SIZES[jn]
        p = 2.0 if ip == 6 else _in_bin(rng, 1.01, 8.0, 6, ip)
        if ml == 0:
            lower = 0.0
        elif ml == 1:
            lower = upper * _in_bin(rng, 0.0, 1.0, 4, ku, log=False, jitter=jitter)
        else:
            lower = upper * (1.0 - 10.0 ** -_in_bin(rng, 2.0, 6.0, 4, ku, log=False,
                                                     jitter=jitter))
        pool.append(NewtonInput(p, lower, upper, n))
    return pool


def newton_op(inp: NewtonInput):
    pf = PowerFn(inp.p, Interval(inp.lower, inp.upper))
    bp, _ = placement.newton_optimize(pf, inp.n)
    return bp.xi, power.volume_power_closed_form(pf, bp)


def check_placement(pf: PowerFn, xi: np.ndarray, volume: float | None) -> str | None:
    """Ordered interior, scale-free stationarity and, when given, the closed
    form against fan triangulation."""
    iv = pf.interval
    if not (xi[0] == iv.lower and xi[-1] == iv.upper and (np.diff(xi) > 0.0).all()):
        return "breakpoints not strictly ordered inside the interval"
    bp = Breakpoints(iv, xi)
    if bp.n >= 2:
        res = power.gradient_system(pf, bp).residual
        stat = float(np.abs(res).max()) / iv.width
        if not stat <= STATIONARITY_BOUND:
            return f"not stationary: max|residual|/width = {stat:.3g}"
    if volume is not None:
        return _check_triangulation(pf, bp, volume)
    return None


def _check_triangulation(pf: PowerFn, bp: Breakpoints, volume: float) -> str | None:
    try:
        ref = underestimator.volume_pl_perspective(
            underestimator.build_underestimator(pf.oracle(), bp)
        )
    except Exception as exc:  # the reference itself failed: unverifiable
        return f"reference volume raised: {type(exc).__name__}"
    if not abs(volume - ref) <= CLOSED_FORM_RTOL * abs(ref):
        return f"closed form differs from triangulation: {volume!r} vs {ref!r}"
    return None


def newton_check(inp: NewtonInput, out) -> str | None:
    xi, volume = out
    return check_placement(PowerFn(inp.p, Interval(inp.lower, inp.upper)), xi, volume)


# ------------------------------------------------------------------- mc-target


@dataclass(frozen=True)
class McInput:
    kind: str
    p: float
    lower: float
    upper: float
    n: int  # equally spaced pieces, used by the piecewise-linear kinds
    seed: int


def mc_pool(seed: int) -> list[McInput]:
    """``MC_ROUNDS`` rounds of a grid of p (4 log bins over [1.25, 8] plus
    p = 2) x kind (5) x lower (0 or about 0.15 of upper); upper (over
    [1, 100]) and n (2 to 64 equal pieces) are drawn freely since the hit
    fraction does not depend on them.

    Exponents below 1.25 and lower/upper above 0.3 give hit fractions under
    1%, where a hit-or-miss op at the target stderr runs for seconds.  Upper
    stays at 1 or more: below it, ``build_underestimator``'s absolute slope
    gap guard raises ``DegenerateTangents`` for large p and many pieces (see
    the README's seed baseline), and every op of a workload must succeed."""
    rng = _rng(seed, "mc-target")
    pool = []
    cells = itertools.product(range(5), RelaxationKind, range(2))
    for _, (ip, kind, ml) in itertools.product(range(MC_ROUNDS), cells):
        p = 2.0 if ip == 4 else _in_bin(rng, 1.25, 8.0, 4, ip)
        upper = 10.0 ** rng.uniform(0.0, 2.0)
        lower = 0.0 if ml == 0 else upper * _in_bin(rng, 0.0, 0.3, 1, 0, log=False)
        n = int(rng.integers(2, 65))
        pool.append(McInput(kind.value, p, lower, upper, n, int(rng.integers(2**63))))
    return pool


def mc_body(inp: McInput):
    kind = RelaxationKind(inp.kind)
    pf = PowerFn(inp.p, Interval(inp.lower, inp.upper))
    bp = Breakpoints.equally_spaced(pf.interval, inp.n) if kind in _PL_KINDS else None
    return mc.make_body(kind, pf, bp)


def samples_for(est) -> int:
    """Whole blocks expected to bring the relative stderr under the target."""
    frac = est.hits / est.samples
    if frac == 0.0:
        return 16 * est.samples
    need = 1.05 * (1.0 - frac) / (frac * MC_TARGET_RSE**2)
    blocks = math.ceil(need / mc.BLOCK_SIZE)
    return max(blocks * mc.BLOCK_SIZE, est.samples + mc.BLOCK_SIZE)


def mc_op(inp: McInput, workers: int):
    """Pilot call, then calls sized from the last estimate until the target
    relative stderr is met; every call counts towards the op."""
    body = mc_body(inp)
    est = mc.mc_volume(body, MC_PILOT, inp.seed, workers)
    while not est.stderr <= MC_TARGET_RSE * est.mean:
        est = mc.mc_volume(body, samples_for(est), inp.seed, workers)
    return est


def mc_reference(kind: RelaxationKind, pf: PowerFn, bp: Breakpoints | None):
    """Closed-form volume of a body, or None where the package has none."""
    if kind is RelaxationKind.PL_PR:
        return power.volume_power_closed_form(pf, bp)
    if kind is RelaxationKind.PL_E_NR:
        return power.volume_pl_extended_naive(pf.oracle(), bp)
    if pf.p != 2.0:
        return None
    if kind is RelaxationKind.NR:
        return power.volume_naive_quadratic(pf.interval)
    if kind is RelaxationKind.PR:
        return power.volume_perspective_quadratic(pf.interval)
    return power.volume_extended_naive_quadratic(pf.interval)


def check_estimate(kind: RelaxationKind, pf: PowerFn, bp, est) -> str | None:
    if not 0 <= est.hits <= est.samples:
        return f"hits out of range: {est.hits} of {est.samples}"
    ref = mc_reference(kind, pf, bp)
    if ref is not None and not abs(est.mean - ref) <= MC_SIGMAS * est.stderr:
        return f"estimate misses closed form: {est.mean!r} +- {est.stderr:.3g} vs {ref!r}"
    return None


def mc_check(inp: McInput, est) -> str | None:
    if not est.stderr <= MC_TARGET_RSE * est.mean:
        return f"relative stderr above target: {est.stderr / est.mean:.3g}"
    kind = RelaxationKind(inp.kind)
    pf = PowerFn(inp.p, Interval(inp.lower, inp.upper))
    bp = Breakpoints.equally_spaced(pf.interval, inp.n) if kind in _PL_KINDS else None
    return check_estimate(kind, pf, bp, est)


# ------------------------------------------------------------------- cli-small


@dataclass(frozen=True)
class CliInput:
    command: str
    argv: tuple[str, ...]


def _domain_args(p, lower, upper):
    return ("--p", repr(p), "--l", repr(lower), "--u", repr(upper))


def cli_pool(seed: int) -> list[CliInput]:
    """``CLI_ROUNDS`` rounds of ten commands on unit-scale intervals, as in
    the README's CLI examples: one of each kind with lower 0, then one of
    each with lower/upper near 0.5.  Exponents start at 1.1: nearer 1, and
    with lower/upper near 0.9, the solver raises ``MonotonicityViolated``
    (see the README's seed baseline), and every op of a workload must
    succeed.
    The solver across four decades of scale is newton-large's job."""
    rng = _rng(seed, "cli-small")
    pool = []
    for r in (0, 1) * CLI_ROUNDS:
        upper = _in_bin(rng, 0.5, 2.0, 1, 0)
        lower = 0.0 if r == 0 else upper * _in_bin(rng, 0.4, 0.6, 1, 0, log=False)
        pieces = str(int(round(_in_bin(rng, 2, 50, 1, 0))))

        p = _in_bin(rng, CLI_P_MIN, 8.0, 2, r)
        pool.append(CliInput("volume", ("volume", *_domain_args(p, lower, upper),
                                        "--equal", pieces, "--relax", ("plpr", "plenr")[r])))

        p = _in_bin(rng, CLI_P_MIN, 8.0, 2, 1 - r)
        pool.append(CliInput("optimize", ("optimize", *_domain_args(p, lower, upper),
                                          "--n", pieces)))

        grid = [_in_bin(rng, CLI_P_MIN, 8.0, SWEEP_GRID, k) for k in range(SWEEP_GRID)]
        pool.append(CliInput("sweep", ("sweep", "--l", repr(lower), "--u", repr(upper),
                                       "--n", str(SWEEP_N),
                                       "--p-grid", ",".join(map(repr, grid)))))

        gap = 10.0 ** -_in_bin(rng, 2.0, 6.0, 2, r, log=False)
        pool.append(CliInput("compare", ("compare", "--l", repr(lower), "--u", repr(upper),
                                         "--gap", repr(gap), "--equal", pieces)))

        if r == 0:
            kind, p = RelaxationKind.PL_PR, _in_bin(rng, 1.25, 8.0, 1, 0)
        else:
            kind, p = RelaxationKind.PR, 2.0  # its closed form exists at p = 2 only
        # One worker: every command, like the reference, runs on one thread,
        # so a busy second CPU does not slow the tail alone.  The fan-out is
        # mc-target's job.
        argv = ["mc", *_domain_args(p, lower, upper), "--relax", kind.value, "--check",
                "--samples", str(CLI_MC_SAMPLES), "--seed", str(int(rng.integers(2**32))),
                "--workers", "1"]
        if kind in _PL_KINDS:
            argv += ["--equal", pieces]
        pool.append(CliInput("mc", tuple(argv)))
    return pool


def _sweep_row(p: float, ratio: float, upper: float) -> str | None:
    pf = PowerFn(p, Interval(ratio * upper, upper))
    bp, _ = placement.newton_optimize(pf, SWEEP_N)
    return check_placement(pf, bp.xi, None)


def _body(inp: McInput) -> None:
    mc_body(inp)


def outside_draws(name: str) -> dict | None:
    """Fixed inputs just outside a workload's draws, where the seed fails.

    mc-target and cli-small draw only where every op succeeds; this census
    runs beside each of their runs, untimed, so the defects the draws step
    around stay in every result."""
    if name == "mc-target":
        inputs = [McInput(kind.value, p, 0.0, u, n, 0) for kind in _PL_KINDS
                  for p in (4.0, 6.0, 8.0) for u in (0.01, 0.03, 0.1, 0.3) for n in (8, 32, 64)]
        attempt = _body
    elif name == "cli-small":
        inputs = [(float(p), ratio, upper) for ratio in (0.5, 0.9) for upper in (0.5, 2.0)
                  for p in np.geomspace(1.01, 8.0, 40)]
        attempt = lambda inp: _sweep_row(*inp)
    else:
        return None
    reasons: dict[str, int] = {}
    for inp in inputs:
        try:
            why = attempt(inp)
        except Exception as exc:  # a typed failure is what the census counts
            why = type(exc).__name__
        if why is not None:
            key = why.split(":")[0]
            reasons[key] = reasons.get(key, 0) + 1
    return {"inputs": len(inputs), "failed": sum(reasons.values()), "reasons": reasons}


def cli_op(inp: CliInput):
    """One fresh CLI process; the package must be importable from it."""
    proc = subprocess.run(
        [sys.executable, "-m", "perspex.cli", *inp.argv],
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _argv_power(argv):
    return PowerFn(float(_opt(argv, "--p")), Interval(float(_opt(argv, "--l")), float(_opt(argv, "--u"))))


def cli_check(inp: CliInput, out) -> str | None:
    """Exit code 0, a report that parses, numbers equal to the same
    in-process library call, and the library-level checks on top."""
    code, stdout, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    argv = inp.argv
    try:
        if inp.command == "sweep":
            rows = list(csv.reader(io.StringIO(stdout)))[1:]
            report = [[float(v) for v in row] for row in rows]
        else:
            report = json.loads(stdout)
    except ValueError as exc:
        return f"report does not parse: {exc}"
    return _CLI_CHECKS[inp.command](argv, report)


def _check_volume(argv, report):
    pf = _argv_power(argv)
    kind = RelaxationKind(_opt(argv, "--relax"))
    bp = Breakpoints.equally_spaced(pf.interval, int(_opt(argv, "--equal")))
    want = mc_reference(kind, pf, bp)
    if report["volume"] != want or report["xi"] != bp.xi.tolist():
        return f"volume report differs from the library call: {report['volume']!r} vs {want!r}"
    if kind is RelaxationKind.PL_PR:
        return _check_triangulation(pf, bp, want)
    return None


def _check_optimize(argv, report):
    pf = _argv_power(argv)
    n = int(_opt(argv, "--n"))
    if pf.p == 2.0:
        bp, vol = placement.optimize_quadratic(pf.interval, n)
    else:
        bp, _ = placement.newton_optimize(pf, n)
        vol = power.volume_power_closed_form(pf, bp)
    if report["xi"] != bp.xi.tolist() or report["volume"] != vol:
        return "optimize report differs from the library call"
    return check_placement(pf, bp.xi, vol)


def _check_sweep(argv, report):
    iv = Interval(float(_opt(argv, "--l")), float(_opt(argv, "--u")))
    grid = [float(g) for g in _opt(argv, "--p-grid").split(",")]
    if len(report) != len(grid):
        return f"sweep rows missing: {len(report)} for {len(grid)} exponents"
    for p, row in zip(grid, report):
        pf = PowerFn(p, iv)
        bp, _ = placement.newton_optimize(pf, SWEEP_N)
        if row != [p, *bp.interior.tolist()]:
            return f"sweep row differs from the library call: p={p!r}"
        bad = check_placement(pf, bp.xi, None)
        if bad is not None:
            return f"sweep row {bad}"
    return None


def _check_compare(argv, report):
    iv = Interval(float(_opt(argv, "--l")), float(_opt(argv, "--u")))
    n1, n2, ratio = power.refinement_thresholds(iv, float(_opt(argv, "--gap")))
    bp = Breakpoints.equally_spaced(iv, int(_opt(argv, "--equal")))
    table = {
        "pr": power.volume_perspective_quadratic(iv),
        "plpr": power.volume_quadratic(bp),
        "nr": power.volume_naive_quadratic(iv),
        "enr": power.volume_extended_naive_quadratic(iv),
        "plenr": power.volume_pl_extended_naive(PowerFn(2.0, iv).oracle(), bp),
    }
    if (report["n1"], report["n2"], report["ratio"], report["table"]) != (n1, n2, ratio, table):
        return "compare report differs from the library call"
    return None


def _check_mc(argv, report):
    pf = _argv_power(argv)
    kind = RelaxationKind(_opt(argv, "--relax"))
    bp = (
        Breakpoints.equally_spaced(pf.interval, int(_opt(argv, "--equal")))
        if kind in _PL_KINDS else None
    )
    est = mc.mc_volume(mc.make_body(kind, pf, bp), int(_opt(argv, "--samples")),
                       int(_opt(argv, "--seed")), int(_opt(argv, "--workers")))
    got = (report["mean"], report["stderr"], report["hits"], report["samples"])
    if got != (est.mean, est.stderr, est.hits, est.samples):
        return "mc report differs from the library call"
    return check_estimate(kind, pf, bp, est)


_CLI_CHECKS = {
    "volume": _check_volume,
    "optimize": _check_optimize,
    "sweep": _check_sweep,
    "compare": _check_compare,
    "mc": _check_mc,
}
