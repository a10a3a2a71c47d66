"""Per-layer timing of kummerlcp from outside the program.

The tracer replaces the public functions of each layer module, and the
public methods of the curve classes, with timing wrappers.  Because the
modules import each other's functions by name, every module attribute that
holds an original function is replaced, and `uninstall` puts every one back.

For each wrapped function it records calls, total time (outermost calls
only, so recursion is not counted twice) and self time (total minus the time
of wrapped calls made inside it).  A few counts are taken from the call's
arguments at the same boundary; they are listed in COUNTERS.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("field", "poly", "curve", "semigroup", "nonspecial", "rrspace",
          "linalg", "codes", "lcp", "cli")

# Classes whose public methods are wrapped, and the prefix their metrics get.
# KummerCurve's methods are the curve layer's own entry points (the fiber
# scan, place enumeration), so they are named curve.<method>.
METHOD_CLASSES = {
    ("curve", "KummerCurve"): "curve",
    ("curve", "CurveFunction"): "curve.CurveFunction",
}

# Functions left unwrapped: each is called hundreds of thousands of times per
# round with a body of a few microseconds, and a wrapper would add more time
# than it measures.  Their time shows as self time of their callers.
UNWRAPPED = frozenset({
    "semigroup.stratum_shift",
    "semigroup.t_val",
    "semigroup.gap_count",
    "poly.normalize",
    "poly.degree",
    "poly.eval_at",
    "curve.f_at",
    "curve.signed_multiplicity",
    "curve.fiber",
})


def _cells(args, kwargs, result):
    shape = getattr(args[1], "shape", None) if len(args) > 1 else None
    return shape[0] * shape[1] if shape is not None and len(shape) == 2 else 0


def _symbols(args, kwargs, result):
    code, messages = args[0], args[1]
    return len(messages) * code.N


def _words(args, kwargs, result):
    code = args[0]
    if not getattr(result, "exact", False) or code.k == 0:
        return 0
    return code.field.q ** code.k - 1


# metric name -> (wrapped function, count taken from (args, kwargs, result))
COUNTERS = {
    "linalg.rank.cells": ("linalg.rank", _cells),
    "codes.encode_messages.symbols": ("codes.encode_messages", _symbols),
    "codes.min_distance.words": ("codes.min_distance", _words),
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class LayerTracer:
    """Install with `install()`, read with `snapshot()`, clear with `reset()`."""

    def __init__(self, package: str = "kummerlcp"):
        self.package = package
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per active call: [child time]
        self._patches: list[tuple[object, str, object]] = []
        self._counters_by_fn: dict[str, list[tuple[str, object]]] = {}
        for metric, (fn, count) in COUNTERS.items():
            self._counters_by_fn.setdefault(fn, []).append((metric, count))

    # -- bookkeeping -----------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self) -> None:
        for st in self.stats.values():
            st.calls, st.total, st.self_time, st.depth = 0, 0.0, 0.0, 0
        self.counts = {}

    def snapshot(self) -> dict[str, float]:
        """Flat metrics: <fn>.s, <fn>.self_s, <fn>.calls and the counters."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.s"] = st.total
            out[f"{name}.self_s"] = st.self_time
            out[f"{name}.calls"] = st.calls
        out.update(self.counts)
        return out

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        counters = self._counters_by_fn.get(name, ())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += dt - frame[0]
                if stat.depth == 0:
                    stat.total += dt
                if stack:
                    stack[-1][0] += dt
            for metric, count in counters:
                self.add(metric, count(args, kwargs, result))
            return result

        return wrapper

    def _targets(self, modules):
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    yield f"{short}.{attr}", mod, attr, obj, True
            for (owner, cls_name), prefix in METHOD_CLASSES.items():
                if owner != short:
                    continue
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                        yield f"{prefix}.{attr}", cls, attr, obj, False

    def install(self) -> None:
        if self._patches:
            return
        modules = {short: importlib.import_module(f"{self.package}.{short}") for short in LAYERS}
        every_module = [importlib.import_module(self.package), *modules.values()]
        for name, owner, attr, fn, shared in self._targets(modules):
            if name in UNWRAPPED:
                continue
            wrapper = self._wrap(name, fn)
            holders = every_module if shared else [owner]
            for mod in holders:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches = []
