"""Call tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces every public function of `mixedcirc.*`, at every
module-level binding it has (``ramanujan_sum`` is bound in ``numthy`` and in
``spectrum``, for example), with a timing wrapper; `uninstall()` puts the
original objects back.  A callable that wraps a package function, such as a
`functools.lru_cache` of one, counts as that function and is wrapped too.  Each wrapped function keeps aggregated counters in
memory (calls, total ns, self ns), so kernels called millions of times cost a
counter update rather than a record.  Functions named in `span_names` also
record one span per call (name, start, end, parent span), for the coarse entry
points only.  Nothing is written while tracing; `dump()` writes it all at the
end of the run.  The wrapper of `verify_numeric`, which returns
(ok, phase, |1 - |U||), also keeps the largest residual in `max_residual`.

Self time is a call's duration minus the durations of the wrapped calls made
inside it.  A wrapper adds cost in two places: inside its own measured
interval (the call into the function and the closing clock read), which
would inflate the callee's self time, and outside it (the bookkeeping),
which would land in the caller's.  `calibrate()` measures both on a no-op,
and `self_s()` subtracts them per call and per child call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass

_now = time.perf_counter_ns
RESIDUAL_FUNCTION = "verify_numeric"


@dataclass
class Stat:
    """Aggregated counters for one function."""

    module: str
    name: str
    calls: int = 0
    items: int = 0  # values yielded, for generator functions
    total_ns: int = 0
    self_ns: int = 0
    child_calls: int = 0  # wrapped calls made directly inside this one

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]


class Tracer:
    """Wraps the package's public functions and aggregates their timings."""

    def __init__(self, package: str = "mixedcirc", span_names: frozenset[str] = frozenset()):
        self.package = package
        self.span_names = span_names
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._frames: list[list[int]] = [[0, 0]]  # [child ns, child calls]; root sentinel
        self._span_stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self.max_residual = 0.0

    def _traceable(self, obj) -> bool:
        """A function of the package, or a callable whose `__wrapped__` chain
        ends in one."""
        if inspect.isclass(obj) or not callable(obj):
            return False
        inner = inspect.unwrap(obj)
        return inspect.isfunction(inner) and (
            inner.__module__ == self.package or inner.__module__.startswith(self.package + ".")
        )

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (
                modname == self.package or modname.startswith(self.package + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not self._traceable(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn):
        inner = inspect.unwrap(fn)
        qualname = f"{inner.__module__}.{inner.__name__}"
        stat = self.stats.setdefault(qualname, Stat(inner.__module__, inner.__name__))
        frames = self._frames
        spans = self.spans
        span_stack = self._span_stack
        is_span = inner.__name__ in self.span_names
        keeps_residual = inner.__name__ == RESIDUAL_FUNCTION

        def enter():
            frames.append([0, 0])
            if is_span:
                span_stack.append(len(spans))
                spans.append((len(spans), qualname, 0, 0, span_stack[-2]))
            return _now()

        def leave(t0):
            dur = _now() - t0
            child_ns, child_calls = frames.pop()
            stat.total_ns += dur
            stat.self_ns += dur - child_ns
            stat.child_calls += child_calls
            parent = frames[-1]
            parent[0] += dur
            parent[1] += 1
            if is_span:
                sid = span_stack.pop()
                spans[sid] = (sid, qualname, t0, t0 + dur, spans[sid][4])

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(t0)
                        return
                    except BaseException:
                        leave(t0)
                        raise
                    leave(t0)
                    stat.items += 1
                    yield item

        else:

            def wrapper(*args, **kwargs):
                stat.calls += 1
                t0 = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(t0)
                if keeps_residual:
                    self.max_residual = max(self.max_residual, result[2])
                return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):  # keep an lru_cache's methods reachable
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def calibrate(self, calls: int = 20000) -> tuple[float, float]:
        """Measure the wrapper's cost inside and outside its interval, in ns.

        Inside: the self time a wrapped no-op records per call.  Outside: the
        rest of what wrapping adds to the caller's wall time per call.  The
        fastest of five trials is kept.
        """

        def noop():
            return None

        best = (float("inf"), float("inf"))
        for _ in range(5):
            probe = Tracer(self.package)
            wrapped = probe._wrap(noop)
            t0 = _now()
            for _ in range(calls):
                noop()
            bare = _now() - t0
            t0 = _now()
            for _ in range(calls):
                wrapped()
            added = (_now() - t0 - bare) / calls
            inner = next(iter(probe.stats.values())).self_ns / calls
            if added < sum(best):
                best = (inner, max(added - inner, 0.0))
        self.inner_ns, self.outer_ns = best
        return best

    def stat(self, module: str, name: str) -> Stat:
        return self.stats.get(f"{self.package}.{module}.{name}") or Stat(module, name)

    def self_s(self, stat: Stat) -> float:
        """A function's self time with the wrappers' own cost removed."""
        # a generator is entered once per value and once more to finish
        overhead = (stat.calls + stat.items) * self.inner_ns + stat.child_calls * self.outer_ns
        return max(stat.self_ns - overhead, 0.0) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self.stats.values():
            out[st.layer] = out.get(st.layer, 0.0) + self.self_s(st)
        return out

    def dump(self, path) -> None:
        """Write counters and spans as one JSON document."""
        doc = {
            "wrapper_inner_ns": self.inner_ns,
            "wrapper_outer_ns": self.outer_ns,
            "functions": {
                q: {
                    "calls": s.calls,
                    "items": s.items,
                    "total_ns": s.total_ns,
                    "self_ns": s.self_ns,
                    "child_calls": s.child_calls,
                }
                for q, s in sorted(self.stats.items())
                if s.calls
            },
            "spans": [
                {"id": i, "name": n, "start_ns": a, "end_ns": b, "parent": p}
                for i, n, a, b, p in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
