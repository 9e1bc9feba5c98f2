"""Spans recorded around the calls into continuum_cascade's layers.

Used only in a traced child (see child.py).  Each public function of a
traced module is replaced, at the module attribute through which callers
look it up, by a wrapper that records one span per call:
(name, start, end, parent, count).  `parent` is the index of the enclosing
span (-1 at the root) and `count` is an optional per-call counter read from
the call's arguments or result (grid cells, snapshot bytes, file bytes, ...).
Spans stay in memory and are written out once, when the traced command has
returned.  Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

# Modules whose public functions are wrapped.  A function is named by the
# module that defines it, so graphs.sample_height (imported by name from
# simulate) records as "simulate.sample_height".
TRACED_MODULES = ("recursion", "fronts", "simulate", "graphs", "output")

# Per-value helpers: wrapping them would time the tracer, not the layer.
UNTRACED = {"output.fmt"}


def _snapshot_bytes(args, result):
    return sum(
        s.values.nbytes + (s.complement.nbytes if s.complement is not None else 0)
        for s in result.snapshots
    )


def _file_bytes(args, result):
    return os.path.getsize(result)


# name -> function(args, result) giving the span's counter
COUNTERS = {
    "recursion.iterate_step": lambda args, result: len(args[0].values),
    "recursion.run_recursion": _snapshot_bytes,
    "simulate.sample_height": lambda args, result: int(result is None),
    "output.RunWriter.write_csv": _file_bytes,
    "output.RunWriter.write_manifest": _file_bytes,
}


class Recorder:
    """In-memory span list plus the stack of currently open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the traced modules, plus cli.main."""
        for mod_name in TRACED_MODULES:
            module = getattr(package, mod_name)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith(package.__name__ + "."):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                if name not in UNTRACED:
                    setattr(module, attr, self.wrap(fn, name))
        writer = package.output.RunWriter
        for attr in ("write_csv", "write_manifest"):
            setattr(writer, attr, self.wrap(getattr(writer, attr), f"output.RunWriter.{attr}"))
        package.cli.main = self.wrap(package.cli.main, "cli.main")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
