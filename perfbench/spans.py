"""Spans around the program's public entry points, for the traced run.

:class:`Tracer` keeps every span in memory (name, start, end, parent span,
query id) and is summarised once the run ends. Spans are recorded by
wrappers this module installs around public methods and module functions
of the program (:meth:`Tracer.wrap`), so the program itself is unchanged;
:meth:`Tracer.restore` puts the originals back.

Parents: a span's parent is the innermost open span of its own thread.
A span opened on a thread with no open span (a shard fan-out pool thread)
is parented to the innermost open span of the client thread, which is
blocked waiting for it; the benchmark drives one client thread, so that
span is the fan-out that caused it.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (overlapping children count once). Its
*time* is the sum of the durations of its outermost spans (a span nested
in a span of the same name is not counted twice).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# span record: [name, start_ns, end_ns, parent_index, query_id]
Span = List[Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.query_id = 0
        self._local = threading.local()
        self._client_stack: Optional[List[int]] = None
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_client(self) -> None:
        """Mark the calling thread as the client whose open span adopts
        spans started on other threads."""
        self._client_stack = self._stack()

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = -1
            if stack is self._client_stack:
                # A top-level call of the client starts a new query.
                self.query_id += 1
        record = [name, time.perf_counter_ns(), 0, parent, self.query_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[[Any], str]",
        *,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` may be a function of the bound instance (for per-tier
        names). ``before(args, kwargs)`` runs ahead of the call and its
        return value is passed to ``after(token, args, kwargs, result)``;
        both run inside the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args[0]) if callable(name) else name
            index = tracer.begin(label)
            try:
                token = before(args, kwargs) if before is not None else None
                result = original(*args, **kwargs)
                if after is not None:
                    after(token, args, kwargs, result)
                return result
            finally:
                tracer.end(index)

        self._install(owner, attr, traced)

    def wrap_counter(
        self, owner: Any, attr: str, after: Callable[..., None]
    ) -> None:
        """Call ``after(args, kwargs, result)`` after every call, with no
        span (for entry points too hot to time one by one)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, kwargs, result)
            return result

        self._install(owner, attr, counted)

    def _install(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)
        if own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:  # inherited: drop the override to uncover it again
            self._restore.append(lambda: delattr(owner, attr))

    def write(self, path, count: int) -> None:
        """Write the first ``count`` spans as JSON lines
        ``[name, start_ns, end_ns, parent_index, query_id]``."""
        import json

        with open(path, "w") as out:
            for span in self.spans[:count]:
                out.write(json.dumps(span) + "\n")

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- summary --------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``time_ns`` (outermost spans) and
        ``self_ns`` (duration minus covered child time)."""
        children: Dict[int, List[Tuple[int, int]]] = {}
        for span in self.spans:
            if span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if end == 0:
                continue
            entry = out.setdefault(
                name, {"calls": 0, "time_ns": 0, "self_ns": 0}
            )
            entry["calls"] += 1
            duration = end - start
            if parent < 0 or self.spans[parent][0] != name:
                entry["time_ns"] += duration
            covered = covered_ns(start, end, children.get(index, ()))
            entry["self_ns"] += duration - covered
        return out


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total
