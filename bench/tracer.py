"""Span tracer for the benchmark's traced run.

The tracer wraps functions from the benchmark's side: it never edits the
library. Every binding of a wrapped function is replaced, because modules
import each other's functions by name (``contiguity`` and ``qlan`` hold their
own ``lebesgue_decompose``), and default arguments hold function objects too
(``presets.spin_overlap_family(g=sqrt_scaling)``). ``np.linalg.eigh`` and
``np.linalg.eigvalsh`` are wrapped as the kernel boundary.

Spans are aggregated in memory per op kind as they close: calls, inclusive
and self time per span name, self time per layer, time entered from another
layer, and counts of selected events nested under each span name.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("matcore", "lebesgue", "contiguity", "gaussian", "qlan", "presets", "cli")
KERNEL = "lapack"
EIGENSOLVES = ("np.linalg.eigh", "np.linalg.eigvalsh")
# Events counted under every distinct span name on the stack when they start.
NESTED_EVENTS = frozenset(EIGENSOLVES + (
    "lebesgue.lebesgue_decompose",
    "matcore.unitary_exp",
    "matcore.check_hermitian",
))
# Private functions that are layer boundaries in their own right.
EXTRA_PRIVATE = {"lebesgue": ("_as_positive_operator",)}
WRAPPED_METHODS = {"lebesgue": (("DensityMatrix", "__init__"),)}


def _is_in(value, by_id: dict) -> bool:
    return id(value) in by_id and by_id[id(value)] is value


class KindStats:
    """Aggregated spans of every op of one kind."""

    def __init__(self) -> None:
        self.ops = 0
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, incl s, self s]
        self.layer_self = defaultdict(float)
        self.layer_entered = defaultdict(float)  # inclusive time entered from another layer
        self.nested = defaultdict(int)  # (ancestor name, event name) -> count

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def incl(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def under(self, ancestor: str, event: str) -> int:
        return self.nested.get((ancestor, event), 0)


class Tracer:
    def __init__(self) -> None:
        self.by_kind: dict[str, KindStats] = defaultdict(KindStats)
        self.current: KindStats | None = None
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.current = self.by_kind[kind]
        self.current.ops += 1

    def _wrap(self, name: str, layer: str, fn):
        stack = self._stack
        tracer = self
        counted = name in NESTED_EVENTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.current
            if stats is None:
                return fn(*args, **kwargs)
            if counted:
                seen = set()
                for frame in stack:
                    if frame[0] not in seen:
                        seen.add(frame[0])
                        stats.nested[(frame[0], name)] += 1
            frame = [name, layer, 0.0, 0.0]
            stack.append(frame)
            frame[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[2]
                stack.pop()
                own = dur - frame[3]
                span = stats.spans[name]
                span[0] += 1
                span[1] += dur
                span[2] += own
                stats.layer_self[layer] += own
                if stack:
                    parent = stack[-1]
                    parent[3] += dur
                    if parent[1] != layer:
                        stats.layer_entered[layer] += dur
                else:
                    stats.layer_entered[layer] += dur

        wrapper.__traced_original__ = fn
        return wrapper

    # -- installation -------------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every binding of the traced functions; raise if one is missed."""
        mods = {layer: sys.modules[f"qleb.{layer}"] for layer in LAYERS}
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            extra = EXTRA_PRIVATE.get(layer, ())
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and value.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    originals[id(value)] = value
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", layer, value)
            for cls_name, meth in WRAPPED_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(f"{layer}.{cls_name}", layer, getattr(cls, meth)))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            self._set(np.linalg, attr, self._wrap(f"np.linalg.{attr}", KERNEL, fn))

        qleb_mods = [m for n, m in list(sys.modules.items())
                     if n == "qleb" or n.startswith("qleb.")]
        for mod in qleb_mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    self._set(mod, attr, wrappers[id(value)])
        for fn in originals.values():
            for attr in ("__defaults__", "__kwdefaults__"):
                defaults = getattr(fn, attr)
                if not defaults:
                    continue
                values = defaults.values() if isinstance(defaults, dict) else defaults
                if not any(_is_in(v, originals) for v in values):
                    continue
                if isinstance(defaults, dict):
                    new = {k: wrappers.get(id(v), v) for k, v in defaults.items()}
                else:
                    new = tuple(wrappers.get(id(v), v) for v in defaults)
                self._set(fn, attr, new)
        self._check_complete(qleb_mods, originals)

    def _check_complete(self, qleb_mods, originals) -> None:
        missed = []
        for mod in qleb_mods:
            for attr, value in vars(mod).items():
                if _is_in(value, originals):
                    missed.append(f"{mod.__name__}.{attr}")
        for fn in originals.values():
            for default in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
                if _is_in(default, originals):
                    missed.append(f"default of {fn.__module__}.{fn.__name__}")
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left unwrapped bindings: {missed}")

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)
        self.current = None
