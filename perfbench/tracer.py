"""In-memory span recorder and the wrappers that feed it.

A span is one call across a layer boundary: its name, start, end, parent
span and op id (an experiment id or a spec hash, inherited by every span
beneath it).  Every thread keeps its own parent stack, because served jobs
run on server threads while the client waits on the main thread.  Spans
stay in memory until the run ends.

Wrappers are installed by replacing a class attribute or a module-level
name *where it is looked up* and are always removed again, so the untraced
passes of a run execute the library exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "op", "thread", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, op, thread, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.op = op
        self.thread = thread
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [
            self.id, self.parent, self.name, self.op, self.thread,
            self.start, self.end, self.attrs,
        ]


class Tracer:
    """Records spans; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, op: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        # All spans of one op share its id: an enclosing op wins.
        if parent is not None and parent.op is not None:
            op = parent.op
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            op,
            threading.get_ident(),
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Span]:
        span = self.start(name, op)
        try:
            yield span
        finally:
            self.finish(span)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


class Patches:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        op: Optional[Callable[..., Optional[str]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span named ``name`` around ``owner.attribute``.

        ``op(*args, **kwargs)`` names the span's op id; ``after(span,
        result, *args, **kwargs)`` annotates it once the call returned,
        outside the timed interval.
        """
        original = owner.__dict__[attribute]
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.start(name, op(*args, **kwargs) if op else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.finish(span)
                span.attrs["error"] = True
                raise
            tracer.finish(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        self.replace(owner, attribute, wrapper)

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, value)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
