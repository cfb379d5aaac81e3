"""Spans recorded from outside the program, around calls into its layers.

``install`` wraps every function named in the ``__all__`` of a package
module, at every global binding in the package that points at it, so
calls between modules are caught as well as calls from the harness.  It
also wraps ``json.dumps`` as ``pretzelrep.cli`` sees it.  A name that a
refactor removes is simply not wrapped; a new or renamed public function
is recorded under its new name.  Nothing here fails because a name is
missing.

A span is [name, start, end, parent index, request id, count]; the
request id is the index of the command in its pass.  Spans stay in
memory until the pass ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
import types
from functools import update_wrapper

JSON_ENCODE = "cli.json_encode"
WRITE = "cli.write"


def _crossings(code) -> int:
    return len(getattr(code, "crossings", ()))


# per-span counts taken from a function's result
COUNTS = {"linktrace.pretzel_diagram": _crossings}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(result)
            return result

        return update_wrapper(traced, fn)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, total seconds and count."""
        table: dict[str, dict] = {}
        for (name, start, end, _, _, count), own in zip(self.spans, self.self_times()):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += end - start
            row["count"] += count
        return table

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, request, count in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request,
                                         "count": count}) + "\n")

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def package_modules(package) -> list:
    """The package and its public submodules, imported."""
    found = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            found.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return found


def public_functions(modules) -> dict[int, tuple[str, object]]:
    """id -> (span name, function) for each function in an ``__all__``.

    The name is "<module>.<name in __all__>", taken from the module that
    defines the function when it lists it, else the first that does.
    """
    found: dict[int, tuple[str, object]] = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name, None)
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in found or fn.__module__ == module.__name__:
                found[id(fn)] = (f"{short}.{name}", fn)
    return found


def install(tracer: Tracer, package, cli) -> list[tuple]:
    """Wrap the package's public functions; returns what ``restore`` undoes."""
    modules = package_modules(package)
    wrappers = {key: tracer.wrap(name, fn, COUNTS.get(name))
                for key, (name, fn) in public_functions(modules).items()}
    encode = tracer.wrap(JSON_ENCODE, json.dumps)
    patched = []
    for module in modules:
        for key, value in list(vars(module).items()):
            replacement = wrappers.get(id(value))
            if module is cli and value is json:
                replacement = types.ModuleType("json")
                vars(replacement).update(vars(json))
                replacement.dumps = encode
            elif module is cli and value is json.dumps:
                replacement = encode
            if replacement is not None:
                patched.append((module, key, value))
                setattr(module, key, replacement)
    return patched


def restore(patched: list[tuple]) -> None:
    for module, key, value in reversed(patched):
        setattr(module, key, value)
