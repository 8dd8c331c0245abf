"""Span tracing of perspex's layers from outside the package.

:class:`Tracer` wraps public functions of the package and records one span
per call: name, start, end, parent span, thread and op id.  Spans stay in
memory until :meth:`Tracer.dump` writes them once at the end of a run.

:func:`patched` installs the wrappers by replacing every module attribute of
the loaded ``perspex`` modules that refers to a target function, so calls
are traced wherever callers look the name up: ``perspex.placement.
gradient_system`` as seen by the Newton loop, ``perspex.cli.newton_optimize``
as seen by the CLI, the loaded Monte-Carlo kernel's ``count_hits`` as seen by
``perspex.mc``, and so on.  No file under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from dataclasses import dataclass

from perspex import cli, mc, placement, power, underestimator


@dataclass
class Span:
    name: str
    parent: int | None
    thread: int
    op: int
    start: float = 0.0
    end: float = 0.0
    work: float = 0.0  # points, samples: a count of the work the call was given


def _points(args, kwargs):
    return args[1].n - 1  # gradient_system(pf, bp): interior points


def _mc_samples(args, kwargs):
    return kwargs["samples"] if "samples" in kwargs else args[1]


def _kernel_samples(args, kwargs):
    return args[1].size  # count_hits(kind, xs, ys, zs, ...)


# span name -> (owner, attribute, work extractor over (args, kwargs))
TARGETS = {
    "power.gradient_system": (power, "gradient_system", _points),
    "power.closed_form": (power, "volume_power_closed_form", None),
    "placement.newton": (placement, "newton_optimize", None),
    "placement.solve": (placement, "solve_tridiagonal", None),
    "placement.sweep": (placement, "sweep_optimal_points", None),
    "underestimator.build": (underestimator, "build_underestimator", None),
    "underestimator.oracle": (power.PowerFn, "oracle", None),
    "mc.volume": (mc, "mc_volume", _mc_samples),
    "mc.membership": (mc._kernel, "count_hits", _kernel_samples),
    "cli.main": (cli, "main", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the one running op ``op``.

        Spans opened on other threads (the Monte-Carlo workers) with no open
        span of their own take the op thread's innermost span as parent.
        """
        self.op = op
        self._op_stack = self._stack()

    def wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._op_stack[-1] if tracer._op_stack else None
            span = Span(name, parent, threading.get_ident(), tracer.op)
            if work is not None:
                span.work = work(args, kwargs)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s.__dict__}) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "perspex" or name.startswith("perspex."))]
    undo = []
    try:
        for name, (owner, attr, work) in TARGETS.items():
            orig = getattr(owner, attr)
            wrapped = tracer.wrap(name, orig, work)
            for holder in {id(o): o for o in [owner, *modules]}.values():
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapped)
        yield tracer
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds (sum of span durations), work,
    self seconds (each span minus the union of its children), and child
    counts per child name."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "work": 0.0, "self_s": 0.0})
        kids = children.get(i, [])
        dur = s.end - s.start
        agg["calls"] += 1
        agg["busy_s"] += dur
        agg["work"] += s.work
        agg["self_s"] += dur - _union_length((spans[k].start, spans[k].end) for k in kids)
        for k in kids:
            key = "children." + spans[k].name
            agg[key] = agg.get(key, 0) + 1
    return out
