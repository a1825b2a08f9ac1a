"""Spans recorded from outside the package, around its public entry points.

`rebind` points every module-level name bound to one function object at a
replacement.  That matters because `em`, `aim`, `cli`, `likelihoods` and
`evaluate` import the inference and fitter functions by name: patching the
defining module alone would miss their calls.

A `Tracer` keeps spans (name, start, end, parent span, unit id) in memory.
Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def package_modules(extra=()) -> list:
    """The loaded coarsebn modules plus `extra` (benchmark modules)."""
    mods = [
        m for name, m in sys.modules.items()
        if name == "coarsebn" or name.startswith("coarsebn.")
    ]
    return mods + list(extra)


def rebind(old, new, modules) -> list[tuple]:
    """Bind `new` wherever a module-level name is bound to `old`.

    Returns the undo list for `unbind`.
    """
    undo = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                undo.append((mod, name, old))
    return undo


def unbind(undo: list[tuple]) -> None:
    for mod, name, old in reversed(undo):
        setattr(mod, name, old)


class Tracer:
    """Timing wrappers for a fixed list of (module, function, span name).

    `hooks` maps a span name to (before(args), after(tracer, args, result,
    token)) callables that add to `counts`.  Spans and counts made while
    `unit` is None (outside any unit) are left out of the totals.
    """

    def __init__(self, targets, modules, hooks=None):
        self.targets = targets
        self.modules = modules
        self.hooks = hooks or {}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.unit = None
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        before, after = self.hooks.get(name, (None, None))

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            token = before(args) if before else None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.unit)
            if after and self.unit is not None:
                after(self, args, out, token)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for module, attr, name in self.targets:
                fn = getattr(module, attr)
                undo += rebind(fn, self._wrap(fn, name), self.modules)
            yield self
        finally:
            unbind(undo)

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name, over spans inside units: total s, self s, calls."""
        child = defaultdict(float)
        for name, t0, t1, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        for idx, (name, t0, t1, parent, unit) in enumerate(self.spans):
            if unit is None:
                continue
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[idx]
            calls[name] += 1
        return total, self_s, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "unit"],
                    "spans": self.spans,
                },
                fh,
            )
