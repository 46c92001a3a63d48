"""Spans recorded from outside the library.

The tracer replaces a function in the namespace that looks it up (for
example `tbsg.index.build_knng`) with a wrapper that records a span around
each call, and puts the original back afterwards. Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import time
from pathlib import Path


class Tracer:
    """Spans (trace, name, start_ns, end_ns, parent) in call order.

    `trace` names the build or query a span belongs to; `parent` is the
    position of the enclosing span, or -1 for a root.
    """

    def __init__(self):
        self.spans: list = []
        self.trace = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def call(self, name: str, fn, args=(), kwargs=None, observe=None):
        """Run fn(*args, **kwargs) inside a span; observe(args, result) sees the call."""
        parent = self._stack[-1] if self._stack else -1
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append(slot)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[slot] = (self.trace, name, start, end, parent)
        if observe is not None:
            observe(args, result)
        return result

    def wrap(self, namespace, attr: str, name: str, observe=None) -> None:
        """Record a span around every call of namespace.attr; a missing
        entry point is noted as absent instead."""
        fn = getattr(namespace, attr, None)
        if fn is None:
            self.absent.append(name)
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        setattr(namespace, attr, traced)
        self._restore.append((namespace, attr, fn))

    def unwrap(self) -> None:
        while self._restore:
            namespace, attr, fn = self._restore.pop()
            setattr(namespace, attr, fn)

    def seconds(self, name: str, trace_prefix: str = "") -> float:
        """Summed duration of the spans with this name."""
        return sum(
            s[3] - s[2] for s in self.spans if s[1] == name and s[0].startswith(trace_prefix)
        ) / 1e9

    def count(self, name: str, trace_prefix: str = "") -> int:
        return sum(1 for s in self.spans if s[1] == name and s[0].startswith(trace_prefix))

    def write(self, path: Path) -> None:
        t0 = min((s[2] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,trace,name,start_ns,end_ns,parent\n")
            fh.writelines(
                f"{i},{s[0]},{s[1]},{s[2] - t0},{s[3] - t0},{s[4]}\n"
                for i, s in enumerate(self.spans)
            )
