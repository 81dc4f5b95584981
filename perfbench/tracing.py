"""Spans around calls into the program's layers, installed from outside.

The traced run wraps public functions and methods of the program with
:class:`Tracer` spans for the life of one ``with tracer.installed(...)``
block and restores the originals on exit. Nothing in ``src/`` changes.
A span records its name, start, end, thread and parent (the innermost
open span on the same thread), so a layer's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(owner, attribute, span name, counter hook)``. ``owner`` is a
#: dotted module path, or ``module:Class`` for a method. The hook gets
#: ``(tracer, result, args)`` after each call and adds layer counters.
Target = Tuple[str, str, str, Optional[Callable[..., None]]]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    """Keeps spans and counters in memory for one traced run."""

    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, time.perf_counter(),
                    parent=stack[-1] if stack else None)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.children_s += span.duration
            with self._lock:
                self.spans.append(span)

    def wrap(self, fn: Callable, name: str,
             hook: Optional[Callable[..., None]]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result, args)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, targets: List[Target]) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for owner, attr, name, hook in targets:
                holder = _resolve(owner)
                original = holder.__dict__[attr]
                undo.append((holder, attr, original))
                setattr(holder, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    # -- summaries ------------------------------------------------------
    def layer(self, name: str) -> Dict[str, float]:
        """Calls, inclusive total and self total of one span name.

        ``total_s`` counts only the outermost span of a nest of the same
        name, so a recursive layer is not counted twice.
        """
        calls = total = self_total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            calls += 1
            self_total += span.self_s
            if not has_ancestor(span, (name,)):
                total += span.duration
        return {"calls": calls, "total_s": total, "self_s": self_total}

    def names(self) -> List[str]:
        return sorted({span.name for span in self.spans})


def has_ancestor(span: Span, names: Tuple[str, ...]) -> bool:
    """Whether any enclosing span on the same thread has one of ``names``."""
    parent = span.parent
    while parent is not None:
        if parent.name in names:
            return True
        parent = parent.parent
    return False


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    holder = importlib.import_module(module)
    return getattr(holder, cls) if cls else holder
