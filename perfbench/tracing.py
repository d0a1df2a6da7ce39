"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function of each layer module
with a timing wrapper, wherever a `shadowprune` module holds it by name
(the modules import each other's functions by name, so patching only
the defining module would miss most calls).  Spans nest on a stack: a
span's self time is its duration minus the time of the spans it
caused, summed per layer as `<layer>.self_s`.  Totals per function are
inclusive.  `uninstall` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "pipeline", "imgcore", "threshold", "pooling", "features", "svm", "synth")


def _package_modules():
    """Every module of the package; any of them may hold a layer's function."""
    package = importlib.import_module("shadowprune")
    return [importlib.import_module(f"shadowprune.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


class Tracer:
    """Span totals, layer self times and counts, kept in memory."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.to_gray_peak_mb = 0.0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    def _span_name(self, layer: str, name: str, args, kwargs) -> str:
        if (layer, name) == ("svm", "train"):
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            return f"svm.train_{cfg.kernel if cfg is not None else 'linear'}"
        return f"{layer}.{name}"

    def _wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            span = self._span_name(layer, name, args, kwargs)
            frame = [0.0]
            self._stack.append(frame)
            peak = (layer, name) == ("imgcore", "to_gray") and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if peak:
                    self.to_gray_peak_mb = max(
                        self.to_gray_peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.seconds[span] += elapsed
                self.seconds[f"{layer}.self"] += elapsed - frame[0]
                self.counts[f"{span}_calls"] += 1
            if (layer, name) == ("imgcore", "decode_image"):
                self.counts["imgcore.mpix_decoded"] += result.height * result.width / 1e6
            return result

        return traced

    def install(self) -> None:
        owners = {f"shadowprune.{layer}": layer for layer in LAYERS}
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                if obj not in self._wrappers:
                    layer = owners[obj.__module__]
                    self._wrappers[obj] = self._wrap(layer, obj.__name__, obj)
                self._patched.append((module, name, obj))
                setattr(module, name, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()
