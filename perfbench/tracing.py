"""Spans, self times and `-X importtime` parsing for the benchmark.

A `Tracer` lives in the launched CLI process. It wraps public functions of
`anonet` so that each call records a span (name, start, end, parent) and
wraps the protocol callables (`transition`, `output`, `quiescent`) so that
each call adds to a per-module counter and to the enclosing span's
`callable_s`. Spans are kept in memory and written out once, at exit.

The functions below the class are pure and run in the benchmark's parent
process: `self_times` and `parse_importtime`.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        # "<module>.<kind>@<innermost span>" -> [calls, seconds]
        self.calls: dict[str, list] = {}

    def wrap(self, name, fn, attrs=None, probe=None):
        """Return `fn` recording one span per call.

        `attrs(result)` adds fields from the result to the span; `probe()` is
        called before and after the call and both readings are stored.
        """
        def traced(*args, **kwargs):
            parent = self.stack[-1]["id"] if self.stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent, "callable_s": 0.0}
            self.spans.append(span)
            self.stack.append(span)
            if probe is not None:
                span["before"] = probe()
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self.stack.pop()
            if probe is not None:
                span["after"] = probe()
            if attrs is not None:
                span.update(attrs(result))
            return result

        return traced

    def wrap_callable(self, module, kind, fn):
        """Return `fn` counting its calls and time, charged to the innermost span."""
        clock = self.clock
        calls = self.calls
        stack = self.stack

        def timed(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            owner = stack[-1] if stack else None
            key = f"{module}.{kind}@{owner['name'] if owner else ''}"
            entry = calls.get(key)
            if entry is None:
                entry = calls[key] = [0, 0.0]
            entry[0] += 1
            entry[1] += dt
            if owner is not None:
                owner["callable_s"] += dt
            return result

        return timed

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": self.calls}


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children, minus
    the time spent in protocol callables charged to it.

    Only direct children are subtracted: a grandchild lies inside its parent,
    so subtracting it again would count it twice. Spans come from one thread,
    so the children of a span follow one another and never overlap.
    """
    own = {s["id"]: s["end"] - s["start"] - s.get("callable_s", 0.0) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def parse_importtime(text: str) -> list:
    """Parse `python -X importtime` output into a forest of import nodes.

    Each node is (name, self_us, cumulative_us, children). A module's line is
    printed when its import finishes, after the lines of the imports nested in
    it, which are indented two more spaces. Lines not from importtime are
    skipped.
    """
    pending: list = []  # (depth, node), in order of completion
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        raw = fields[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        children.reverse()
        pending.append((depth, (name, self_us, cum_us, children)))
    return [node for _, node in pending]


def package_import_s(forest, package: str) -> float:
    """Seconds spent importing `package`: the sum of the cumulative times of
    the outermost nodes that belong to it."""
    total = 0
    stack = list(forest)
    while stack:
        name, _, cum_us, children = stack.pop()
        if name == package or name.startswith(package + "."):
            total += cum_us
        else:
            stack.extend(children)
    return total / 1e6
