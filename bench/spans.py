"""Timing of calls into the program, with optional spans.

A Recorder times every call the benchmark makes into dvrate and runs the
benchmark's own checks on its output. Time spent in checks is not program
time. With a Tracer attached, each call also becomes a span (name, start,
end, parent, attributes); spans stay in memory until the run writes them.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def total(self, name: str, **match) -> float:
        """Summed duration of the spans called `name` whose attributes match."""
        return sum(s["end"] - s["start"] for s in self.select(name, **match))

    def select(self, name: str, **match) -> list:
        return [s for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]


def _wall(thunk) -> float:
    t0 = perf_counter()
    thunk()
    return perf_counter() - t0


class Recorder:
    """Counts attempted and failed operations and times the program.

    `op_s` holds the wall time of each call that counts as an operation of
    the workload (a solve, an estimator or simulate call, a CLI process);
    `program_s` is the time spent inside the program, those calls and the
    uncounted ones (ChainSpec builds, traced probes) together.

    With `paired`, which needs a tracer, every call runs twice, once bare
    and once inside its span, the two in alternating order, each timed from
    outside; `overhead` collects (traced - bare) / bare per call.
    """

    def __init__(self, tracer: Tracer | None = None, paired: bool = False):
        self.tracer = tracer
        self.paired = paired
        self.attempted = 0
        self.failed = 0
        self.op_s = []
        self.program_s = 0.0
        self.overhead = []

    def _traced(self, name: str, thunk, attrs):
        with self.tracer.span(name, **attrs) as s:
            out = thunk()
        return out, s["end"] - s["start"]

    def _paired(self, name: str, thunk, attrs):
        bare_first = len(self.overhead) % 2 == 0
        bare = _wall(thunk) if bare_first else None
        t0 = perf_counter()
        out, dt = self._traced(name, thunk, attrs)
        traced = perf_counter() - t0
        if not bare_first:
            bare = _wall(thunk)
        self.overhead.append((traced - bare) / bare)
        return out, dt

    def _run(self, name: str, thunk, attrs):
        """thunk()'s output and the seconds it spent in the program."""
        if self.tracer is None:
            t0 = perf_counter()
            out = thunk()
            return out, perf_counter() - t0
        if self.paired:
            return self._paired(name, thunk, attrs)
        return self._traced(name, thunk, attrs)

    def call(self, name: str, thunk, check=None, counted=True, **attrs):
        """Run thunk(); return its result, or None when it raised or its
        output failed `check` (a function of the output returning problems)."""
        self.attempted += 1
        try:
            out, dt = self._run(name, thunk, attrs)
        except Exception:  # counted as a failed operation; the run goes on
            self.failed += 1
            print(f"[bench] {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self.program_s += dt
        if counted:
            self.op_s.append(dt)
        problems = check(out) if check is not None else []
        if problems:
            self.failed += 1
            print(f"[bench] {name} {attrs}: {'; '.join(problems[:3])}", file=sys.stderr)
            return None
        return out

    def annotate(self, **attrs):
        """Add attributes to the span of the latest call, when tracing."""
        if self.tracer is not None:
            self.tracer.spans[-1].update(attrs)


def result(recorders, metrics: dict) -> dict:
    """The run's result line: correct only when no call raised or failed a
    check."""
    failed = sum(r.failed for r in recorders)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in recorders),
        "failed": failed,
        "metrics": metrics,
    }
