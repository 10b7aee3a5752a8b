"""Spans around finevo's public functions, installed from outside the package.

Every public module-level function of a layer module is wrapped once, and
the wrapper is bound in its defining module and under every name another
finevo module imported it as, so calls through either name are recorded.
``Transformation.__mul__`` only gets a call counter: a span per product
would cost more than the product.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("semigroup", "limits", "measure", "cliques", "analysis", "simulate",
          "stats", "report", "transform", "cli")

# Sizes read off a call's argument or result, summed per pass under a name.
SIZES = {
    "semigroup.generate": ("semigroup.elements", lambda args, out: len(out)),
    "cliques.compute_W": ("cliques.W_mu", lambda args, out: len(out.W_mu)),
    "report.report_to_json": ("report.bytes", lambda args, out: len(out.encode())),
    "limits.solve_stationary": ("limits.solve_states", lambda args, out: len(args[0])),
    "limits.float_limit_oracle": ("limits.float_limit_oracle.iterations",
                                  lambda args, out: out.iterations),
}


class Tracer:
    """Records spans (name, start, end, parent, command id) and counts in memory.

    Spans live in flat arrays, one entry per call, so that the hundreds of
    thousands of spans of a replication loop stay small.
    """

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.commands = []
        self.stack = []
        self.counts = defaultdict(int)
        self._undo = []
        self.reset()

    def span(self, name, fn):
        size = SIZES.get(name)
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.command.append(self.command_id)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self.stack.pop()
            if size:
                self.counts[size[0]] += size[1](args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every public function of every layer; ``uninstall`` undoes it."""
        modules = {layer: importlib.import_module(f"finevo.{layer}")
                   for layer in LAYERS}
        for layer, module in modules.items():
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self.span(f"{layer}.{attr}", fn)
                for other in modules.values():
                    for name, value in vars(other).copy().items():
                        if value is fn:
                            self._undo.append((other, name, fn))
                            setattr(other, name, wrapper)

        transformation = modules["transform"].Transformation
        mul = transformation.__mul__
        counts = self.counts

        def counted_mul(a, b):
            counts["transform.mul.calls"] += 1
            return mul(a, b)

        self._undo.append((transformation, "__mul__", mul))
        transformation.__mul__ = counted_mul

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def command_span(self, label, fn, *args):
        """Run fn(*args) as the root span of one command."""
        self.command_id = len(self.commands)
        self.commands.append(label)
        return self.span(f"command.{label}", fn)(*args)

    def reset(self):
        """Drop recorded spans and counts (wrappers stay valid)."""
        self.commands = []
        self.command_id = -1
        self.name, self.parent, self.command = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.counts.clear()

    def summary(self) -> dict:
        """Per-function self and total time, per-layer self time, calls and sizes."""
        duration = [b - a for a, b in zip(self.start, self.end)]
        inner = [0.0] * len(duration)
        for parent, d in zip(self.parent, duration):
            if parent >= 0:
                inner[parent] += d
        out = defaultdict(float)
        for name_id, d, covered in zip(self.name, duration, inner):
            name = self.names[name_id]
            own = d - covered
            out[f"{name}.self_s"] += own
            out[f"{name}.total_s"] += d
            out[f"{name}.calls"] += 1
            out[f"{name.split('.', 1)[0]}.self_s"] += own
        out.update(self.counts)
        return dict(out)

    def write(self, path):
        """Write the recorded spans as JSON columns; times in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "commands": self.commands,
                "name": self.name.tolist(),
                "start_ns": [round((t - t0) * 1e9) for t in self.start],
                "end_ns": [round((t - t0) * 1e9) for t in self.end],
                "parent": self.parent.tolist(),
                "command": self.command.tolist(),
            }, fh)
