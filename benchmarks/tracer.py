"""Per-layer spans recorded from outside the program.

The tracer replaces every public function of the jcmagnus layer modules (each
function a module defines under a name without a leading underscore) and numpy's
``svd``/``eigh`` with timing wrappers, in every module that holds a reference
to them, so ``from .x import f`` bindings are covered too.  Each wrapped call
is a span; a span's self time is its duration minus the time of the spans it
caused.  Spans are aggregated in memory per function as
``[calls, busy_s, self_s]``.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "jcmagnus"
LAYERS = ("hilbert", "jc_model", "magnus", "propagator", "observables", "cli")
LINALG_FUNCTIONS = ("svd", "eigh")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.returns: list[tuple[str, object]] = []
        self.capture: set[str] = set()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        keep = key in self.capture
        returns = self.returns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if keep:
                returns.append((key, result))
            return result

        return span

    def _targets(self) -> list[tuple[str, object, list]]:
        """(key, original, modules holding it) for every traced function."""
        import numpy.linalg

        modules = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((f"{layer}.{name}", fn, modules))
        # numpy.linalg.norm calls svd through the implementing module's globals
        # (numpy.linalg._linalg in numpy 2, numpy.linalg.linalg before)
        impl = getattr(numpy.linalg, "_linalg", None) or getattr(numpy.linalg, "linalg")
        linalg_modules = [numpy.linalg, impl]
        for name in LINALG_FUNCTIONS:
            targets.append((f"linalg.{name}", getattr(numpy.linalg, name), linalg_modules))
        return targets

    def install(self) -> None:
        for key, original, modules in self._targets():
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def layer_self(self) -> dict[str, float]:
        """Self seconds summed per layer (the part of the key before the first dot)."""
        out: dict[str, float] = {}
        for key, (_, _, self_s) in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def get(self, key: str) -> tuple[int, float, float]:
        calls, busy, self_s = self.stats.get(key, (0, 0.0, 0.0))
        return calls, busy, self_s
