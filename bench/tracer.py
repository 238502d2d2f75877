"""Span tracer that wraps a package's public functions from the outside.

``Tracer.install`` replaces every public function, generator function and
method defined in the given layer modules with a wrapper that records a
span (name, start, end, parent span, job id).  The wrapper is
put in place at every module attribute and every module-level dict of the
package that refers to the original, so calls made through
``from .x import f`` bindings and dispatch tables are traced too.
``uninstall`` puts the originals back.  Nothing in the package is edited.
Properties are left alone: they are called per sample point, and their
time is charged to the caller.

Spans are kept in flat arrays in memory and written out by ``save``.  A
span's self time is its duration minus the durations of its direct
children; summed per layer, self times partition the traced wall time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, package: str, layers: tuple[str, ...], split: dict | None = None):
        """``split`` maps a span name to a function of the call's arguments
        returning a suffix; the span is then recorded as ``name[suffix]``."""
        self.package = package
        self.layers = layers
        self.split = split or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.is_call = array("b")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int, stack: list[int], call: bool = True) -> int:
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.is_call.append(call)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int, stack: list[int]):
        self.end[idx] = time.perf_counter()
        stack.pop()

    def wrap(self, name: str, fn):
        """A traced stand-in for fn.  For a generator function every
        resumption is one more span (with is_call false), so time spent by
        the consumer between items is not charged to the generator."""
        nid = self._id(name)
        split = self.split.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                stack = tracer._stack()
                idx = tracer._open(nid, stack)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, stack)
                while True:
                    idx = tracer._open(nid, stack, call=False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, stack)
                    yield item
            wrapper = gen_wrapper
        elif split is not None:
            def split_wrapper(*args, **kwargs):
                stack = tracer._stack()
                idx = tracer._open(tracer._id(f"{name}[{split(*args, **kwargs)}]"), stack)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, stack)
            wrapper = split_wrapper
        else:
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                idx = tracer._open(nid, stack)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, stack)
        return functools.wraps(fn)(wrapper)

    # -- installing ---------------------------------------------------------

    def _set(self, container, key, value, is_dict: bool):
        old = container[key] if is_dict else getattr(container, key)
        self._patches.append((container, key, old, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replace = {}  # id of original -> (original, wrapper); holds the originals alive
        for layer in self.layers:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == self.package or name.startswith(self.package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)][1], is_dict=False)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in replace:
                            self._set(obj, key, replace[id(val)][1], is_dict=True)

    def _install_class(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", obj),
                          is_dict=False)

    def uninstall(self):
        while self._patches:
            container, key, old, is_dict = self._patches.pop()
            if is_dict:
                container[key] = old
            else:
                setattr(container, key, old)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n).copy()
        end = np.frombuffer(self.end, dtype=float, count=n).copy()
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).copy(),
            "is_call": np.frombuffer(self.is_call, dtype=np.int8, count=n).astype(bool),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32, count=n).copy(),
            "start": start,
            "end": end,
        }

    def save(self, path: Path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent],
                        minlength=len(duration))
    return duration - child
