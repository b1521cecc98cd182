"""In-memory spans around calls into repverify's layers, installed from outside.

`install` replaces every public function of the layer modules (and the public
methods of the `qlinalg` matrix and subspace classes) with a wrapper that
records one span per call: name, start, end and the enclosing span.  Modules
that imported a function by name (`generic` takes `rank` from `qlinalg`,
`harness` takes `build_config` from `reps`, ...) get the wrapper too, so a
call from one layer into another is a child span of the caller.  Nothing in
`src/` is edited.

A layer's self time is the summed duration of its spans minus the part of
each span its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("qlinalg", "reps", "generic", "brascamp_lieb", "discretized", "oppenheim", "harness")

# Public methods worth a span: arithmetic and elimination, not O(1) accessors.
CLASS_METHODS = {
    "qlinalg.Mat": (
        "from_rows", "from_cols", "zeros", "identity", "diagonal", "transpose",
        "__add__", "__sub__", "__neg__", "scale", "__matmul__", "apply", "hstack", "vstack",
    ),
    "qlinalg.RowSpan": ("reduce", "contains", "add"),
    "qlinalg.Subspace": ("from_columns", "contains_vector", "contains_subspace"),
}


class Tracer:
    """Spans kept in flat arrays; `enabled` lets probes bypass recording."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.enabled = True
        self._rep_config = None

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        tracer = self
        base_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            nid = base_id
            if args and isinstance(args[0], tracer._rep_config):
                nid = tracer._id(f"{name}.n{args[0].n}")
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def mark(self) -> int:
        """Index of the next span, to split set-up spans from batch spans."""
        return len(self.start)

    # --- derived views ---------------------------------------------------------

    def spans_of(self, prefix: str, since: int = 0) -> list[int]:
        """Indices of spans named `prefix` or `prefix.n<k>`, from `since` on."""
        ids = {i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".n")}
        return [i for i in range(since, len(self.start)) if self.name[i] in ids]

    def durations(self, prefix: str, since: int = 0) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.spans_of(prefix, since)]

    def child_time(self, idx: int, prefix: str) -> float:
        """Time spent in direct children of span `idx` named `prefix`."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(idx + 1, len(self.start))
            if self.parent[i] == idx and self.names[self.name[i]].startswith(prefix)
        )

    def self_times(self, since: int = 0) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self time (s) and span count over spans from `since` on."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(since, n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for i in range(since, n):
            layer = layer_of[self.name[i]]
            self_s[layer] += own[i]
            calls[layer] += 1
        return self_s, calls

    def dump(self, path: str) -> None:
        spans = [
            [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public callables and rebind them where imported."""
    modules = {layer: importlib.import_module(f"repverify.{layer}") for layer in LAYERS}
    tracer._rep_config = modules["reps"].RepConfig
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                continue
            if getattr(fn, "__module__", None) != mod.__name__ or inspect.isgeneratorfunction(fn):
                continue
            replaced[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for qual, methods in CLASS_METHODS.items():
        layer, cls_name = qual.split(".")
        cls = getattr(modules[layer], cls_name)
        for meth in methods:
            raw = inspect.getattr_static(cls, meth)
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", raw))
    # Rebind every name that points at an original, in every repverify module.
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repverify" or mod_name.startswith("repverify.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
