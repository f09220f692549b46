"""In-memory spans recorded around calls into the program, from outside.

:class:`SpanRecorder` keeps one span per wrapped call — name, start, end
and the index of the enclosing span — in flat arrays, and writes nothing
until asked. :class:`Patcher` installs wrappers on the program's public
functions and methods and removes them again; the program itself carries
no tracing code.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Called with ``(args, kwargs, result)`` after a wrapped call returns.
ResultHook = Callable[[tuple, dict, Any], None]
#: Called with ``(args, kwargs)`` to name a span per call.
LabelFn = Callable[[tuple, dict], str]


class SpanRecorder:
    """Spans of one single-threaded pass, plus named counters.

    Wrapped calls nest, so the parent of a span is the span open when it
    started. ``counters`` holds counts and byte totals that wrappers or
    result hooks accumulate at the same boundaries.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._by_name: Dict[int, List[int]] = {}
        self._indexed = 0
        self.counters: Counter = Counter()

    def _intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span directly; returns its index (``end`` NaN = open)."""
        self.name_id.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.name_id) - 1

    def open(self, name: str) -> int:
        """Start a span now, inside the innermost open one; returns its index."""
        index = self.add(name, 0.0, float("nan"), self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        self.start[index] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        """End the span opened as ``index`` (spans close innermost first)."""
        self.end[index] = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    def indices(self, name: str) -> List[int]:
        """Indices of every finished span called ``name``."""
        if self._indexed != len(self.name_id):
            self._by_name = {}
            for i, ident in enumerate(self.name_id):
                if self.end[i] == self.end[i]:  # NaN marks a span still open
                    self._by_name.setdefault(ident, []).append(i)
            self._indexed = len(self.name_id)
        return self._by_name.get(self._ids.get(name, -1), [])

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [self.end[i] - self.start[i] for i in self.indices(name)]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.durations(name))

    def has_ancestor(self, index: int, name: str) -> bool:
        """Whether a span called ``name`` encloses span ``index``."""
        ident = self._ids.get(name)
        parent = self.parent[index]
        while parent >= 0:
            if self.name_id[parent] == ident:
                return True
            parent = self.parent[parent]
        return False

    def total_within(self, name: str, ancestor: str) -> float:
        """Summed duration of ``name`` spans enclosed by an ``ancestor`` span."""
        return sum(
            self.end[i] - self.start[i]
            for i in self.indices(name)
            if self.has_ancestor(i, ancestor)
        )

    def outermost_total(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another one."""
        return sum(
            self.end[i] - self.start[i]
            for i in self.indices(name)
            if not self.has_ancestor(i, name)
        )

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its children cover.

        Child intervals are clipped to the parent and merged before they
        are subtracted, so a self time is never negative, even if a child
        was recorded as starting early or ending late.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for i, parent in enumerate(self.parent):
            if parent >= 0 and self.end[i] == self.end[i]:
                children.setdefault(parent, []).append((self.start[i], self.end[i]))
        out = []
        for i in range(len(self.name_id)):
            start, end = self.start[i], self.end[i]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(i, ())):
                lo = max(child_start, cursor)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(max(0.0, (end - start) - covered))
        return out

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        selfs = self.self_times()
        return sum(selfs[i] for i in self.indices(name))


class Tracing:
    """Routes wrapped calls to the recorder of the current pass.

    ``recorder`` may be swapped between passes, and set to ``None`` to
    let wrapped calls run without recording.
    """

    def __init__(self) -> None:
        self.recorder: Optional[SpanRecorder] = None

    def span(
        self,
        fn: Callable,
        name: str,
        *,
        label: Optional[LabelFn] = None,
        on_result: Optional[ResultHook] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records one span."""
        tracing = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = tracing.recorder
            if recorder is None:
                return fn(*args, **kwargs)
            index = recorder.open(label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def count(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so each call only bumps counter ``name``."""
        tracing = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = tracing.recorder
            if recorder is not None:
                recorder.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


class Patcher:
    """Replaces functions and methods of loaded modules, reversibly."""

    def __init__(self, package: str = "repro") -> None:
        self.package = package
        self._undo: List[Tuple[Any, str, Any]] = []

    def function(self, module: str, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.attr`` everywhere the package bound it by name."""
        original = getattr(sys.modules[module], attr)
        wrapped = wrap(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name == self.package or name.startswith(self.package + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
