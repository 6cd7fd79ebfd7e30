"""Span recorder for the traced benchmark run.

The benchmark wraps the program's layer entry points from outside (see
``workloads.Instrumented``): each wrapped call records a span — name, start,
end, parent span, and the root span of its thread — in memory.  Spans are
written out as JSON lines when the run ends.  Self time of a span is its
duration minus the time its direct children cover, which is how the
per-layer ``nn.*`` numbers separate attention from the FFN around it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Callable, List, Optional


class Span:
    """One recorded call.  ``root`` is the id of the outermost open span
    of the same thread when this one started (its own id for a root)."""

    __slots__ = ("id", "parent", "root", "name", "start", "end", "thread",
                 "child_time", "args")

    def __init__(self, sid: int, parent: Optional["Span"], name: str,
                 thread: int) -> None:
        self.id = sid
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else sid
        self.name = name
        self.thread = thread
        self.start = time.perf_counter()
        self.end = self.start
        self.child_time = 0.0
        self.args: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory span store plus the method-patching helper.

    Wrapped calls record spans only inside :meth:`recording`, so the
    benchmark's own set-up, warm-up and output checks, which run the same
    code, never show up as layer time."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else None, name,
                    threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` (the innermost open one) and store it."""
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_time += span.duration
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def recording(self):
        """Record spans for the duration of the ``with`` block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` block as span ``name`` (when recording)."""
        if not self.enabled:
            yield None
            return
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    # -- instrumentation --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``note(span, args, kwargs, result)`` may attach counters to the
        span (``span.args``).  :meth:`restore` puts every original back."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------------

    def select(self, name: str, roots: Optional[set] = None) -> List[Span]:
        """Spans called ``name``, optionally only under the given roots."""
        return [s for s in self.spans if s.name == name
                and (roots is None or s.root in roots)]

    def root_ids(self, name: str) -> set:
        """Ids of root spans called ``name``."""
        return {s.id for s in self.spans if s.name == name and s.parent is None}

    def total(self, name: str, roots: Optional[set] = None,
              self_time: bool = False) -> float:
        """Summed duration (or self time) of spans called ``name``."""
        return sum(s.self_time if self_time else s.duration
                   for s in self.select(name, roots))

    def coverage(self) -> float:
        """Share of root-span time that their direct children cover."""
        roots = [s for s in self.spans if s.parent is None]
        covered = sum(s.child_time for s in roots)
        total = sum(s.duration for s in roots)
        return covered / total if total > 0 else 0.0

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times in microseconds from
        the first span's start)."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "root": s.root,
                    "name": s.name, "thread": s.thread,
                    "start_us": round((s.start - origin) * 1e6, 1),
                    "dur_us": round(s.duration * 1e6, 1),
                    "self_us": round(s.self_time * 1e6, 1),
                    **({"args": s.args} if s.args else {}),
                }) + "\n")
