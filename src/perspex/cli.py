"""Command-line front end.

Subcommands: ``volume`` (closed-form volumes per relaxation), ``optimize``
(volume-minimizing breakpoints), ``sweep`` (optimal placements across an
exponent grid, plot-ready CSV), ``compare`` (piece-count thresholds and the
quadratic five-way volume table), ``mc`` (seeded Monte-Carlo estimates with
optional analytic cross-check).

Reports go to standard output (or ``--out PATH``) as JSON with stable key
order or as flat key/value CSV; numbers use shortest round-trip decimals.
Exit codes: 0 success, 2 input error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .errors import DomainError, MaxIterExceeded, PerspexError
from .mc import KERNEL_BACKEND, make_body, mc_volume
from .placement import newton_optimize, optimize_quadratic, sweep_optimal_points
from .power import (
    _QUADRATIC_EPS,
    PowerFn,
    RelaxationKind,
    closed_form_volume,
    gradient_system,
    refinement_thresholds,
    volume_extended_naive_quadratic,
    volume_naive_quadratic,
    volume_perspective_quadratic,
    volume_pl_extended_naive,
    volume_power_closed_form,
    volume_quadratic,
)
from .underestimator import Breakpoints, Interval, build_underestimator, fan_triangle_areas


def _interval(args) -> Interval:
    return Interval(args.lower, args.upper)


def _power(args) -> PowerFn:
    return PowerFn(args.p, _interval(args))


def _parse_xi(text: str, iv: Interval) -> Breakpoints:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"could not parse --xi value {text!r}") from None
    if not values:
        raise DomainError("--xi must list at least one point")
    if len(values) >= 2 and values[0] == iv.lower and values[-1] == iv.upper:
        return Breakpoints(iv, np.array(values))
    if values[0] == iv.lower or values[-1] == iv.upper:
        raise DomainError("a full --xi list must match --l and --u exactly")
    return Breakpoints.from_interior(iv, np.array(values))


def _resolve_breakpoints(args, pf: PowerFn):
    """Exactly one of --xi/--equal/--optimize, or none at all.

    Returns the breakpoints and, for optimizer-produced ones, a summary of
    the solver run for the report.
    """
    if args.xi is not None:
        return _parse_xi(args.xi, pf.interval), None
    if args.equal is not None:
        return Breakpoints.equally_spaced(pf.interval, args.equal), None
    if args.optimize is not None:
        if abs(pf.p - 2.0) < _QUADRATIC_EPS:
            bp, _ = optimize_quadratic(pf.interval, args.optimize)
            return bp, {"iterations": 0, "direction": "stationary-at-start"}
        bp, trace = newton_optimize(pf, args.optimize)
        return bp, {"iterations": trace.iterations, "direction": trace.direction}
    return None, None


def _check_breakpoints(kind: RelaxationKind, bp) -> None:
    """The piecewise-linear relaxations need breakpoints; the others take none."""
    needs_bp = kind in (RelaxationKind.PL_PR, RelaxationKind.PL_E_NR)
    if needs_bp and bp is None:
        raise DomainError(f"{kind.value} needs breakpoints (--xi, --equal or --optimize)")
    if not needs_bp and bp is not None:
        raise DomainError(f"{kind.value} takes no breakpoints")


def _flatten(report: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, f"{path}."))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                rows.append((f"{path}.{i}", item))
        else:
            rows.append((path, value))
    return rows


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("key", "value"))
    for key, value in _flatten(report):
        writer.writerow((key, "" if value is None else value))
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_volume(args) -> dict:
    pf = _power(args)
    kind = RelaxationKind.from_tag(args.relax)
    bp, trace_summary = _resolve_breakpoints(args, pf)
    _check_breakpoints(kind, bp)

    vol = closed_form_volume(kind, pf, bp)
    if vol is None:
        raise DomainError(
            f"no closed form for {kind.value} at p={pf.p}; use the mc subcommand"
        )

    report = {
        "command": "volume",
        "p": pf.p,
        "lower": pf.interval.lower,
        "upper": pf.interval.upper,
        "relaxation": kind.value,
        "xi": None if bp is None else bp.xi.tolist(),
        "volume": vol,
    }
    if trace_summary is not None:
        report["trace"] = trace_summary
    if kind is RelaxationKind.PL_PR and args.areas:
        est = build_underestimator(pf.oracle(), bp)
        report["triangle_areas"] = fan_triangle_areas(est).tolist()
    if kind is RelaxationKind.PL_PR and bp.n >= 2:
        report["gradient_norm"] = float(np.abs(gradient_system(pf, bp).grad).max())
    if args.check:
        est = mc_volume(
            make_body(kind, pf, bp), args.samples, args.seed, args.workers
        )
        report["mc_check"] = {
            "samples": est.samples,
            "seed": est.seed,
            "mean": est.mean,
            "stderr": est.stderr,
            "sigma_distance": abs(vol - est.mean) / est.stderr if est.stderr > 0 else 0.0,
        }
    return report


def cmd_optimize(args) -> dict:
    pf = _power(args)
    if abs(pf.p - 2.0) < _QUADRATIC_EPS:
        bp, vol = optimize_quadratic(pf.interval, args.n)
        sys_ = gradient_system(pf, bp) if args.n >= 2 else None
        iterations, direction = 0, "stationary-at-start"
        residual = float(np.abs(sys_.residual).max()) if sys_ is not None else 0.0
        grad_norm = float(np.abs(sys_.grad).max()) if sys_ is not None else 0.0
    else:
        bp, trace = newton_optimize(pf, args.n, tol=args.tol, max_iter=args.max_iter)
        vol = volume_power_closed_form(pf, bp)
        iterations, direction = trace.iterations, trace.direction
        residual = trace.residual_norms[-1]
        grad_norm = float(np.abs(gradient_system(pf, bp).grad).max())
    return {
        "command": "optimize",
        "p": pf.p,
        "lower": pf.interval.lower,
        "upper": pf.interval.upper,
        "n": args.n,
        "xi": bp.xi.tolist(),
        "volume": vol,
        "iterations": iterations,
        "direction": direction,
        "residual_norm": residual,
        "gradient_norm": grad_norm,
    }


def cmd_sweep(args):
    iv = _interval(args)
    try:
        grid = [float(tok) for tok in args.p_grid.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"could not parse --p-grid value {args.p_grid!r}") from None
    result = sweep_optimal_points(iv, args.n, grid)
    if args.format == "json":
        return {
            "command": "sweep",
            "lower": iv.lower,
            "upper": iv.upper,
            "n": result.n,
            "p": result.p.tolist(),
            "xi": result.interior.tolist(),
        }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p"] + [f"xi_{i}" for i in range(1, result.n)])
    for p, row in zip(result.p, result.interior):
        writer.writerow([p] + list(row))
    return buf.getvalue()


def cmd_compare(args) -> dict:
    iv = _interval(args)
    if abs(args.p - 2.0) >= _QUADRATIC_EPS:
        raise DomainError("compare reports the quadratic table; only p=2 is supported")
    n1, n2, ratio = refinement_thresholds(iv, args.gap)
    n = args.equal
    bp = Breakpoints.equally_spaced(iv, n)
    pf = PowerFn(2.0, iv)
    return {
        "command": "compare",
        "p": 2.0,
        "lower": iv.lower,
        "upper": iv.upper,
        "gap": args.gap,
        "n1": n1,
        "n2": n2,
        "ratio": ratio,
        "n": n,
        "table": {
            "pr": volume_perspective_quadratic(iv),
            "plpr": volume_quadratic(bp),
            "nr": volume_naive_quadratic(iv),
            "enr": volume_extended_naive_quadratic(iv),
            "plenr": volume_pl_extended_naive(pf.oracle(), bp),
        },
    }


def cmd_mc(args) -> dict:
    pf = _power(args)
    kind = RelaxationKind.from_tag(args.relax)
    bp, _ = _resolve_breakpoints(args, pf)
    _check_breakpoints(kind, bp)
    body = make_body(kind, pf, bp)
    est = mc_volume(body, args.samples, args.seed, args.workers)
    report = {
        "command": "mc",
        "p": pf.p,
        "lower": pf.interval.lower,
        "upper": pf.interval.upper,
        "relaxation": kind.value,
        "xi": None if bp is None else bp.xi.tolist(),
        "samples": est.samples,
        "seed": est.seed,
        "backend": KERNEL_BACKEND,
        "mean": est.mean,
        "stderr": est.stderr,
        "hits": est.hits,
        "box_volume": est.box_volume,
    }
    if args.check:
        ref = closed_form_volume(kind, pf, bp)
        if ref is None:
            report["analytic"] = None
            report["note"] = "no analytic reference"
        else:
            report["analytic"] = ref
            report["sigma_distance"] = (
                abs(ref - est.mean) / est.stderr if est.stderr > 0 else 0.0
            )
    return report


def _add_interval(sp) -> None:
    sp.add_argument("--l", dest="lower", type=float, required=True, help="lower endpoint")
    sp.add_argument("--u", dest="upper", type=float, required=True, help="upper endpoint")


def _add_domain(sp, p_default=None) -> None:
    sp.add_argument(
        "--p", type=float, required=p_default is None, default=p_default,
        help="exponent of the power function, p > 1",
    )
    _add_interval(sp)


def _add_breakpoints(sp) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument(
        "--xi",
        help="comma-separated interior breakpoints, or a full list matching --l/--u exactly",
    )
    group.add_argument("--equal", type=int, metavar="N", help="N equally spaced pieces")
    group.add_argument(
        "--optimize", type=int, metavar="N", help="N pieces at the volume-minimizing placement"
    )


def _add_output(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


def _add_mc(sp) -> None:
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=None, help="0 = one per CPU")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perspex",
        description="Volumes and optimal linearization points for perspective "
        "relaxations of convex power functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("volume", help="closed-form volume of one relaxation")
    _add_domain(sp)
    _add_breakpoints(sp)
    sp.add_argument("--relax", default="plpr", help="nr | pr | plpr | enr | plenr")
    sp.add_argument("--areas", action="store_true", help="include per-triangle base areas")
    sp.add_argument("--check", action="store_true", help="cross-check against Monte Carlo")
    _add_mc(sp)
    _add_output(sp)
    sp.set_defaults(run=cmd_volume)

    sp = sub.add_parser("optimize", help="volume-minimizing breakpoints")
    _add_domain(sp)
    sp.add_argument("--n", type=int, required=True, help="number of pieces")
    sp.add_argument("--tol", type=float, default=None, help="residual tolerance")
    sp.add_argument("--max-iter", type=int, default=200)
    _add_output(sp)
    sp.set_defaults(run=cmd_optimize)

    sp = sub.add_parser("sweep", help="optimal placements across an exponent grid")
    _add_interval(sp)
    sp.add_argument("--n", type=int, required=True, help="number of pieces")
    sp.add_argument("--p-grid", required=True, help="comma-separated increasing exponents")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--out", metavar="PATH")
    sp.set_defaults(run=cmd_sweep)

    sp = sub.add_parser("compare", help="piece-count thresholds and quadratic volume table")
    _add_domain(sp, p_default=2.0)
    sp.add_argument("--gap", type=float, required=True, help="volume gap tolerance")
    sp.add_argument("--equal", type=int, default=2, metavar="N", help="pieces for the table")
    _add_output(sp)
    sp.set_defaults(run=cmd_compare)

    sp = sub.add_parser("mc", help="seeded Monte-Carlo volume estimate")
    _add_domain(sp)
    _add_breakpoints(sp)
    sp.add_argument("--relax", default="plpr", help="nr | pr | plpr | enr | plenr")
    sp.add_argument("--check", action="store_true", help="compare against the closed form")
    _add_mc(sp)
    _add_output(sp)
    sp.set_defaults(run=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.run(args)
        text = result if isinstance(result, str) else _render(result, args.format)
        _emit(text, args.out)
    except MaxIterExceeded as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except PerspexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
