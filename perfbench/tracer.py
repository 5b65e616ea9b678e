"""Outside-in tracing of ``starsurf``: wraps module functions, no source edits.

``Tracer.install`` replaces a function in every ``starsurf`` module namespace
that holds it (``from .geometry import point_location`` makes one alias per
importing module), so calls are seen whichever module makes them.  Three
kinds of wrapper, cheapest last:

- ``span``: a span (id, parent id, pass id, name, start, end) is kept in
  memory, plus call count and self time;
- ``timed``: call count and self time only, for functions called hundreds of
  thousands of times per pass, where a span each would swamp memory;
- ``count``: call count only, for tiny leaves (integrand evaluations).

Only calls made while a pass is open (``begin_pass`` .. ``end_pass``) are
timed and kept as spans; calls outside a pass run as if untraced.  Self time
is a call's duration minus the time covered by traced calls made from inside
it.  ``child_calls[(parent, name)]`` counts calls by their
nearest traced caller, which gives ratios such as panel calls per top-level
panel call, and ``point_location`` calls made by the carrier search.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

PACKAGE = "starsurf"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.child_calls: Counter = Counter()
        self.results: Counter = Counter()
        self.pass_id = 0
        self._next_id = 1
        # frames: [name, start, time covered by children, span id]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self, plan):
        """plan: iterable of (qualified name, kind[, result counter])."""
        for entry in plan:
            qualified, kind = entry[0], entry[1]
            on_result = entry[2] if len(entry) > 2 else None
            module_name, attr = qualified.rsplit(".", 1)
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            wrapper = self._wrap(qualified, kind, original, on_result)
            wrapper.__wrapped__ = original  # keeps e.g. cache_clear reachable
            for mod in [m for n, m in sys.modules.items()
                        if n == PACKAGE or n.startswith(PACKAGE + ".")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def _wrap(self, name, kind, fn, on_result):
        calls = self.calls
        if kind == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        if kind not in ("span", "timed"):
            raise ValueError(f"unknown wrapper kind {kind!r}")
        keep_span = kind == "span"
        stack, self_s, child_calls = self._stack, self.self_s, self.child_calls
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:  # outside a pass
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = parent[3]
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, perf(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                parent[2] += duration
                child_calls[(parent[0], name)] += 1
                if keep_span:
                    self.spans.append((span_id, parent[3], self.pass_id, name,
                                       frame[1], end))
            if on_result is not None:
                self.results[on_result[0]] += on_result[1](result)
            return result
        return traced

    # ------------------------------------------------------------- passes

    def call(self, name, fn, *args, **kwargs):
        """Trace one call made by the benchmark itself, as a span."""
        return self._wrap(name, "span", fn, None)(*args, **kwargs)

    def begin_pass(self, name: str):
        """Open the root span of a pass; every span of the pass shares its id."""
        if self._stack:
            raise RuntimeError("a pass is already open")
        self.pass_id += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, span_id])

    def end_pass(self) -> float:
        name, start, _covered, span_id = self._stack.pop()
        if self._stack:
            raise RuntimeError("unbalanced spans at the end of a pass")
        end = time.perf_counter()
        self.spans.append((span_id, 0, self.pass_id, name, start, end))
        return end - start

    def snapshot(self) -> dict:
        """Counters accumulated so far, as plain data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "child_calls": {f"{p}>{c}": n for (p, c), n in self.child_calls.items()},
            "results": dict(self.results),
        }

    def reset_counters(self):
        for counter in (self.calls, self.self_s, self.child_calls, self.results):
            counter.clear()


def check_spans(spans) -> list[str]:
    """Nesting problems in a span list: each span lies inside its parent,
    and a child shares its parent's pass id.  Empty when all is well."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for span_id, parent_id, pass_id, name, start, end in spans:
        if not name or end < start:
            problems.append(f"span {span_id} ({name!r}) is malformed")
        if parent_id == 0:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {span_id} ({name}) has no parent {parent_id}")
        elif parent[2] != pass_id:
            problems.append(f"span {span_id} ({name}) left its pass {parent[2]}")
        elif not (parent[4] <= start and end <= parent[5]):
            problems.append(f"span {span_id} ({name}) is outside its parent "
                            f"{parent_id} ({parent[3]})")
    return problems
