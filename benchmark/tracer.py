"""Span tracer that measures library layers from outside.

The tracer replaces a library function at every name it is looked up under
(module attributes and class attributes) with a wrapper that records one
span per call: name, parent span, start and end.  Spans are kept in flat
arrays and reduced when the run ends; a layer's self time is its span's
duration minus the durations of its direct children.

Only calls made while a root span is open (``with tracer.root("op")``) are
recorded, so the benchmark's own input generation and checking stay out of
the figures.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._raised: list[BaseException] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name: str):
        """Open a span that enables recording of the calls made inside."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def innermost(self) -> str:
        return self.names[self.span_name[self.stack[-1]]]

    def _note_raised(self, exc: BaseException, counter: str) -> None:
        """Count an exception once, at the innermost span it leaves, even
        when an outer layer re-raises it wrapped in a new exception."""
        chain = exc
        while chain is not None:
            if any(chain is seen for seen in self._raised):
                return
            chain = chain.__cause__ or chain.__context__
        self._raised.append(exc)
        self.counters[counter] += 1

    def wrap(self, name: str, fn, on_result=None, raises=()):
        """A recording wrapper around fn.

        on_result(counters, result) runs after each recorded call;
        raises is a sequence of (exception class, counter name).
        """
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                for cls, counter in raises:
                    if isinstance(exc, cls):
                        self._note_raised(exc, counter)
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return wrapper

    def counted(self, fn, suffix: str):
        """Wrap a callable the benchmark passes into the library: its calls
        count as ``<innermost span>.<suffix>`` and get spans of their own,
        named ``workload.field``, so the library layer that calls it keeps
        only its own time."""
        nid = self._name_id("workload.field")

        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            self.counters[f"{self.innermost()}.{suffix}"] += 1
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, name: str, package: str, **kwargs) -> None:
        """Replace fn under every module attribute of the package that is
        bound to it, so callers see the wrapper wherever they look it up."""
        wrapper = self.wrap(name, fn, **kwargs)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, **kwargs) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr,
                      classmethod(self.wrap(name, raw.__func__, **kwargs)))
        else:
            self._set(cls, attr, self.wrap(name, raw, **kwargs))

    def patch_counter(self, cls, attr: str, parent: str, counter: str) -> None:
        """Count calls of a method made directly inside the parent span,
        without recording a span (for hot leaves such as exact norms)."""
        raw = cls.__dict__[attr]
        pid = self._name_id(parent)

        def wrapper(*args, **kwargs):
            if self.stack and self.span_name[self.stack[-1]] == pid:
                self.counters[counter] += 1
            return raw(*args, **kwargs)

        self._set(cls, attr, functools.wraps(raw)(wrapper))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name when the
        name nests inside itself, so it is never double counted.
        """
        a = self.arrays()
        count = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        parent_name = np.where(has_parent,
                               a["name"][np.maximum(a["parent"], 0)], -1)
        # a direct self-nesting is the only kind the wrapped layers produce
        outermost = parent_name != a["name"]
        calls = np.bincount(a["name"], minlength=count)
        incl = np.bincount(a["name"], weights=np.where(outermost, dur, 0.0),
                           minlength=count)
        own = np.bincount(a["name"], weights=self_time, minlength=count)
        return {name: {"calls": int(calls[i]), "total_s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}
