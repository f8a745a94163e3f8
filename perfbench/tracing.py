"""Spans around calls into resilp's layers, recorded from outside the package.

:class:`Tracer` keeps spans in memory.  :meth:`Tracer.installed` wraps each
public function in :data:`TARGETS` under the name its caller looks it up
by, and puts every original attribute back on exit.  A target that is
missing is skipped and listed in ``Tracer.missing``; a target never called
leaves its layer's counts at 0.  Spans are timed in CPU time of the
thread, the clock the runner measures end-to-end times with.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from typing import Dict, Iterable, List, Optional

from stats import percentile

# (module, class or None, attribute, span name)
TARGETS = (
    ("resilp.cli", None, "resiliency_from_dict", "parse"),
    ("resilp.setcover", "RdscpInstance", "from_dict", "parse"),
    ("resilp.closest_string", None, "instance_from_dict", "parse"),
    ("resilp.scheduling", "SchedulingInstance", "from_dict", "parse"),
    ("resilp.bribery", "BriberyInstance", "from_dict", "parse"),
    ("resilp.setcover", None, "encode", "encode"),
    ("resilp.closest_string", None, "encode", "encode"),
    ("resilp.scheduling", None, "encode", "encode"),
    ("resilp.bribery", None, "encode", "encode"),
    ("resilp.cli", None, "check_resiliency", "engine.check"),
    ("resilp.engine", None, "enumerate_scenarios", "engine.enumerate"),
    ("resilp.engine", None, "substitute", "engine.substitute"),
    ("resilp.engine", None, "solve_feasibility", "ilp.solve"),
)


class Span:
    __slots__ = ("trace", "sid", "parent", "name", "start", "end", "child", "error", "note")

    def __init__(self, trace, sid, parent, name, start):
        self.trace = trace
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0  # time covered by direct child spans
        self.error = False
        self.note = None  # layer-specific count, see _note

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_dict(self) -> dict:
        return {
            "trace": self.trace, "id": self.sid, "parent": self.parent,
            "name": self.name, "start": self.start, "end": self.end,
            "child": self.child, "error": self.error, "note": self.note,
        }


def _note(name: str, result):
    """What a span records about its result, beyond its timing."""
    if name == "encode":
        return {
            "vars": len(getattr(result, "x_vars", ())) + len(getattr(result, "z_vars", ())),
            "rows": sum(len(getattr(result, f, ())) for f in ("rows_x", "rows_xz", "rows_z")),
        }
    if name == "ilp.solve":
        return {"feasible": result is not None}
    return None


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.trace = ""
        self.missing: List[str] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(self.trace, len(self.spans), parent, name, time.thread_time())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.thread_time()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.duration

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None):
        """A root or inner span around a block of the benchmark's own code."""
        if trace is not None:
            self.trace = trace
        span = self.open(name)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self.close(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self.close(span)
            span.note = _note(name, result)
            return result

        return traced

    def _wrap_iter(self, name: str, fn):
        """The call and every ``next()`` on the iterator it returns are
        spans; a ``next()`` that yields an item is noted."""
        call = self._wrap(name, fn)

        def timed(it):
            while True:
                span = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException:
                    span.error = True
                    raise
                finally:
                    self.close(span)
                span.note = {"item": True}
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed(iter(call(*args, **kwargs)))

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple] = TARGETS):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for modname, clsname, attr, name in targets:
                owner = importlib.import_module(modname)
                if clsname is not None:
                    owner = getattr(owner, clsname, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                    continue
                wrap = self._wrap_iter if name == "engine.enumerate" else self._wrap
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(wrap(name, raw.__func__))
                else:
                    new = wrap(name, raw)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def layer_metrics(spans: Iterable[Span], passes: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` whole passes.

    Busy times and counts are per pass, so counts repeat exactly between
    runs; per-call latencies and ratios pool every call.
    """
    by: Dict[str, List[Span]] = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)

    def busy(name):
        return sum(s.duration for s in by.get(name, ())) / passes

    def calls(name):
        return len(by.get(name, ())) / passes

    def errors(name):
        return sum(s.error for s in by.get(name, ())) / passes

    def noted(name, key):
        return sum((s.note or {}).get(key, 0) for s in by.get(name, ())) / passes

    scenarios = noted("engine.enumerate", "item")
    solves = calls("ilp.solve")
    solve_ms = [s.duration * 1e3 for s in by.get("ilp.solve", ())]
    main_self_ms = [s.self_time * 1e3 for s in by.get("cli.main", ())]
    return {
        "cli.main_self_ms": statistics.median(main_self_ms) if main_self_ms else 0.0,
        "parse.busy_s": busy("parse"),
        "parse.calls": calls("parse"),
        "parse.errors": errors("parse"),
        "encode.busy_s": busy("encode"),
        "encode.calls": calls("encode"),
        "encode.vars": noted("encode", "vars"),
        "encode.rows": noted("encode", "rows"),
        "engine.check_self_s": sum(s.self_time for s in by.get("engine.check", ())) / passes,
        "engine.enumerate_busy_s": busy("engine.enumerate"),
        "engine.scenarios": scenarios,
        "engine.substitute_busy_s": busy("engine.substitute"),
        "engine.substitute_calls": calls("engine.substitute"),
        "engine.solves_per_scenario": solves / scenarios if scenarios else 0.0,
        "engine.errors": errors("engine.check"),
        "ilp.solve_busy_s": busy("ilp.solve"),
        "ilp.solve_calls": solves,
        "ilp.solve_ms_p50": percentile(solve_ms, 0.5) if solve_ms else 0.0,
        "ilp.solve_ms_p90": percentile(solve_ms, 0.9) if solve_ms else 0.0,
        "ilp.feasible_ratio": noted("ilp.solve", "feasible") / solves if solves else 0.0,
    }
