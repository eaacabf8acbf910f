"""In-memory span tracer that wraps schmidtkit's public functions.

Tracing is installed only in a traced run, from the benchmark's own
files: every public function of every schmidtkit module is replaced by a
wrapper at each name a caller looks it up by (the package namespace and
every module that imports it), so ``multipartite.spectra`` and
``bipartite.spectra`` both land on the one span ``bipartite.spectra``.
Private helpers stay unwrapped, so their time counts as self time of the
public function that called them.

A span is (name, start, end, parent, op_id, raised).  Spans are kept in
a list and written out once, when the run ends.  Self time is a span's
duration minus the time its child spans cover; spans nest strictly in
one thread, so that cover is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("state", "linalg", "bipartite", "multipartite", "partition",
           "compose", "purify", "fixtures", "io", "cli")

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []
        self._hooks: dict = {}
        self._patched: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        raised = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, raised)
        hook = self._hooks.get(name)
        if hook is not None:
            hook(args, kwargs, result, self.spans[idx])
        return result

    def on_return(self, name: str, hook) -> None:
        """Run hook(args, kwargs, result, span) after each normal return."""
        self._hooks[name] = hook

    def install(self) -> None:
        """Wrap every public schmidtkit function at every name it is bound to."""
        package = importlib.import_module("schmidtkit")
        modules = [package] + [importlib.import_module(f"schmidtkit.{m}")
                               for m in MODULES]
        wrappers: dict = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("schmidtkit.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, raised, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})
        for s, cover in zip(self.spans, covered):
            row = out[s[NAME]]
            dur = s[END] - s[START]
            row["calls"] += 1
            row["raised"] += int(s[RAISED])
            row["total_s"] += dur
            row["self_s"] += dur - cover
        return dict(out)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0,
                    "end": s[END] - t0, "parent": s[PARENT], "op": s[OP],
                    "raised": s[RAISED]}) + "\n")
