"""Call counts and self time per public function of a package, from outside it.

``Tracer`` wraps every public callable that a layer module defines (for a
class, its constructor) and rebinds each wrapper, by object identity, in the
namespace of every module of the package, so ``from .x import f`` copies are
traced too. Leaving the ``with`` block restores every binding.

Self time is the time spent inside a call minus the time spent in the traced
calls it makes. A layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    """Context manager that records ``(layer, name) -> [calls, self seconds]``.

    ``layers`` are module names inside ``package``. A layer or a function that
    does not exist is skipped, so its counters read zero. ``clock`` lets a
    test substitute a scripted clock.
    """

    def __init__(self, package: str, layers, clock=time.perf_counter):
        self.package = package
        self.layers = tuple(layers)
        self.stats: dict = {}
        self._clock = clock
        self._stack: list = []
        self._undo: list = []

    def counts(self, layer: str, name: str) -> tuple:
        """(calls, self seconds) of one function; zeros if it was never traced."""
        return tuple(self.stats.get((layer, name), (0, 0.0)))

    def layer_self_s(self, layer: str) -> float:
        return sum(s for (lay, _), (_, s) in self.stats.items() if lay == layer)

    def __enter__(self):
        replacements = {}
        for layer in self.layers:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ModuleNotFoundError:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    init = obj.__dict__.get("__init__")
                    if init is not None:
                        self._undo.append((obj, "__init__", init))
                        setattr(obj, "__init__", self._wrap(layer, name, init))
                elif callable(obj):
                    replacements[id(obj)] = self._wrap(layer, name, obj)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if id(obj) in replacements:
                    self._undo.append((mod, name, obj))
                    namespace[name] = replacements[id(obj)]
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        return False

    def _wrap(self, layer: str, name: str, fn):
        record = self.stats.setdefault((layer, name), [0, 0.0])
        stack = self._stack
        clock = self._clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                record[0] += 1
                record[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return functools.wraps(fn)(traced)
