"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of every module of the
package, the public methods of ``KGraph`` and ``Degree``, and the
``KGraph.is_finite`` property (other properties are attribute reads and
stay unwrapped), then rebinds every module-level name that refers to a
wrapped function.  ``groupoid`` imports ``shift_on`` by
name, for example, so patching ``action.shift_on`` alone would miss its
calls.

Spans are aggregated in memory by (parent span, span): call count, total
time, and time covered by child spans.  A span's self time is its total
minus its child time.  Exceptions leaving a span are counted by type.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from types import FunctionType, ModuleType

LAYERS = (
    "degree",
    "kgraph",
    "catalog",
    "alignment",
    "pspace",
    "action",
    "groupoid",
    "spielberg",
    "cli",
)
TRACED_CLASSES = {"kgraph": ("KGraph",), "degree": ("Degree",)}
ROOT = "bench"


class Tracer:
    def __init__(self):
        # a frame is [span name, time covered by its children, notes]
        self.stack: list[list] = [[ROOT, 0.0, None]]
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total_s, child_s]
        self.errors: dict[tuple[str, str], int] = {}
        self.jobs: list[dict] = []
        self.basis_checked = 0
        self.basis_candidates = 0

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        stack, edges, errors, clock = self.stack, self.edges, self.errors, time.perf_counter
        after = self._after.get(name)

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                errors[key] = errors.get(key, 0) + 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
            if after is not None:
                after(self, parent, frame, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def run_job(self, label: str, call):
        """Run one job as a root-level span and keep it individually."""
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.jobs.append({"job": label, "start": start, "end": time.perf_counter()})

    # Sizes of the enumerations check_basis_property scans, taken from its
    # own calls, give the base of pspace.basis.useful_ratio.
    def _note_size(self, parent, frame, result):
        if parent[0] == "pspace.check_basis_property":
            if parent[2] is None:
                parent[2] = {}
            seq = result.filters if frame[0] == "pspace.enumerate_filters" else result.morphisms
            parent[2][frame[0]] = len(seq)

    def _note_basis(self, parent, frame, result):
        sizes = frame[2] or {}
        n = sizes.get("kgraph.enumerate_morphisms", 0)
        k1 = n + n * (n - 1) // 2  # singletons and pairs
        k2 = 1 + n  # empty set and singletons
        self.basis_candidates += k1 * k2 * sizes.get("pspace.enumerate_filters", 0)
        self.basis_checked += result["checked"]

    _after = {
        "pspace.enumerate_filters": _note_size,
        "kgraph.enumerate_morphisms": _note_size,
        "pspace.check_basis_property": _note_basis,
    }

    # -- installation ----------------------------------------------------

    def install(self, package: str) -> None:
        """Wrap every layer of `package` (already imported) in place."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if _is_public_function(obj, mod):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                self._install_methods(layer, getattr(mod, cls_name))
        for mod in _package_modules(package):
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)

    def _install_methods(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, FunctionType):
                setattr(cls, attr, self.wrap(name, raw))
            elif isinstance(raw, property) and (layer, attr) == ("kgraph", "is_finite"):
                setattr(cls, attr, property(self.wrap(name, raw.fget), doc=raw.__doc__))

    # -- reading ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, n), rec in self.edges.items() if n == name)

    def inclusive_s(self, name: str) -> float:
        """Total time of the outermost spans of `name` (recursion counted once)."""
        return sum(rec[1] for (p, n), rec in self.edges.items() if n == name and p != name)

    def layer_calls(self, layer: str) -> int:
        return sum(rec[0] for (_, n), rec in self.edges.items() if n.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        return sum(
            rec[1] - rec[2] for (_, n), rec in self.edges.items() if n.startswith(layer + ".")
        )

    def error_count(self, name: str, exc_name: str) -> int:
        return self.errors.get((name, exc_name), 0)

    def dump(self) -> dict:
        """Everything recorded, for writing out when the run ends."""
        return {
            "jobs": self.jobs,
            "spans": [
                {"parent": p, "span": n, "calls": c, "total_s": t, "self_s": t - ch}
                for (p, n), (c, t, ch) in sorted(self.edges.items())
            ],
            "errors": [
                {"span": n, "exception": e, "count": c} for (n, e), c in sorted(self.errors.items())
            ],
        }


def _is_public_function(obj, mod: ModuleType) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
        and not obj.__name__.startswith("_")
    )


def _package_modules(package: str) -> list[ModuleType]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
