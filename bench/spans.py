"""Span recording around catlog's public functions, from outside catlog.

A span is (name, parent span, start, end, raised). Spans live in flat
arrays while the trial runs and are written to one file at its end;
`aggregate` turns that file into per-function and per-module call
counts, self times and error counts. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# the modules of src/catlog that do work; `errors` only defines types
LAYERS = ("arith", "series", "catalan", "paths", "trees", "multisets",
          "verify", "serialize", "render", "cli")
# cli's other public functions are dispatch targets of main; leaving them
# unwrapped keeps argparse, routing and file I/O in cli.main's self time
ONLY = {"cli": ("main",)}
# class methods traced besides __post_init__ (reported as <Class>.validate)
METHODS = {"Series": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "log", "exp")}
# functions whose returned list lengths are summed
ITEMS = ("paths.enumerate_ornaments",)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.raised = bytearray()
        self.items: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.raised)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.raised.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int, raised: bool = False) -> None:
        self.end[i] = time.perf_counter_ns()
        self.raised[i] = raised
        self._stack.pop()

    def wrap(self, name: str, fn, count_items: bool = False):
        open_, close, items = self.open, self.close, self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(i, True)
                raise
            close(i)
            if count_items:
                items[name] += len(out)
            return out

        return traced

    def write(self, path) -> None:
        header = {"names": self.names, "count": len(self.raised), "items": dict(self.items)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
            fh.write(self.raised)


def install(rec: Recorder, package) -> None:
    """Wrap the public functions and traced methods of each layer module,
    and point every binding of an original in the package (module
    globals, class attributes, dict values such as verify.SUITES) at its
    wrapper. cli is the last layer, so it is first imported when every
    other layer is wrapped and its conversion table captures wrappers."""
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        wrapped = {}
        classes = []
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                if attr in ONLY.get(layer, (attr,)):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = rec.wrap(name, obj, name in ITEMS)
            elif inspect.isclass(obj):
                classes.append(obj)
                if "__post_init__" in vars(obj):
                    fn = vars(obj)["__post_init__"]
                    wrapped[fn] = rec.wrap(f"{layer}.{attr}.validate", fn)
                for meth in METHODS.get(attr, ()):
                    fn = vars(obj)[meth]
                    wrapped[fn] = rec.wrap(f"{layer}.{attr}.{meth}", fn)
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for space in [vars(m) for m in modules]:
            for attr, obj in list(space.items()):
                if _is_original(obj, wrapped):
                    space[attr] = wrapped[obj]
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if _is_original(val, wrapped):
                            obj[key] = wrapped[val]
        for cls in classes:
            for attr, obj in list(vars(cls).items()):
                if _is_original(obj, wrapped):
                    setattr(cls, attr, wrapped[obj])


def _is_original(obj, wrapped) -> bool:
    try:
        return obj in wrapped
    except TypeError:  # unhashable values are never functions
        return False


def aggregate(path) -> dict:
    """Per span name: calls, self_s and errors; the ITEMS counts; and call
    counts per (parent name, child name) pair."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        name, parent, start, end = array("H"), array("l"), array("q"), array("q")
        for arr in (name, parent, start, end):
            arr.fromfile(fh, n)
        raised = fh.read(n)
    names = header["names"]
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    errors = defaultdict(int)
    nested = defaultdict(int)  # (parent name, child name) -> calls
    for i in range(n):
        nm = names[name[i]]
        calls[nm] += 1
        self_ns[nm] += end[i] - start[i] - child[i]
        errors[nm] += raised[i]
        if parent[i] >= 0:
            nested[(names[name[parent[i]]], nm)] += 1
    return {
        "calls": dict(calls),
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "errors": dict(errors),
        "items": header["items"],
        "nested": nested,
    }
