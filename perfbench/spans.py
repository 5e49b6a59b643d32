"""An in-memory span recorder that traces a program from the outside.

The recorder replaces the attribute a caller resolves — a class attribute
for methods, a module global for functions — with a wrapper that records
one span per call: name, start, end, parent span and op id.  Spans stay in
memory until the run ends and are written out once.

Parent links come from one stack shared by all threads.  That is sound
only because the benchmark drives the program from a single closed-loop
client: at any moment exactly one thread is inside traced code (the
service's worker thread runs a handler while the client thread waits on
it), so the top of the stack is always the caller's span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Name of the root span the benchmark opens around each op.
OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    op_id: "int | None"


class SpanRecorder:
    """Collects spans; patches entry points and restores them."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        #: Per-span counts attached by wrappers (e.g. values returned).
        self.counts: "dict[int, float]" = {}
        self.enabled = True
        self._stack: "list[int]" = []
        self._lock = threading.Lock()
        self._op_id: "int | None" = None
        self._patches: "list[tuple[Any, str, Any]]" = []

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, name: str) -> "int | None":
        if not self.enabled:
            return None
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, parent, self._op_id)
            )
            self._stack.append(index)
            return index

    def _close(self, index: "int | None") -> None:
        if index is None:
            return
        end = time.perf_counter()
        with self._lock:
            self.spans[index].end = end
            # Pop through any span a raising callee left open.
            while self._stack:
                if self._stack.pop() == index:
                    break

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The root span of one benchmark op."""
        self._op_id = op_id
        index = self._open(OP)
        try:
            yield
        finally:
            self._close(index)
            self._op_id = None

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run benchmark-side work (checks, probes) without recording."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # -- wrapping -------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: "Callable[[Any], float] | None" = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` per call.  ``count`` maps
        the return value to a number stored with the span."""
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index = recorder._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(index)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if count is not None and index is not None:
                recorder.counts[index] = float(count(result))
            return result

        return traced

    def wrap_context(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """``fn`` returning a context manager; the span covers the whole
        ``with`` block (enter to exit), not just the call."""
        recorder = self

        @functools.wraps(fn)
        @contextlib.contextmanager
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            index = recorder._open(name)
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                recorder._close(index)

        return traced

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op_id,
                }
                if index in self.counts:
                    record["count"] = self.counts[index]
                stream.write(json.dumps(record) + "\n")


def union_length(intervals: "list[tuple[float, float]]") -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: "list[Span]") -> "list[float]":
    """Each span's duration minus the part of it its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [
        (span.end - span.start) - union_length(children.get(index, []))
        for index, span in enumerate(spans)
    ]
