"""Spans recorded from outside the broker.

:class:`Tracer` replaces a method on one *instance* (never on its
class) with a wrapper that records a span around each call: name,
start, end, parent span and the trace id of the operation that caused
it.  Spans stay in memory until :meth:`Tracer.write` dumps them, and
:func:`summarize` folds them into per-name call counts, total time and
self time (a span's duration minus the time its direct children cover).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: (name, start_ns, end_ns, parent index or -1, trace id, tag)
Span = Tuple[str, int, int, int, int, object]


class Tracer:
    """In-memory span recorder with instance-level method wrappers."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.trace_id = -1
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object, bool]] = []

    # -- spans ----------------------------------------------------------------

    def begin(self) -> int:
        """Open a span; returns its index (close it with :meth:`end`)."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def end(
        self, index: int, name: str, start: int, tag: object = None
    ) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (
            name, start, perf_counter_ns(), parent, self.trace_id, tag
        )

    # -- wrappers -------------------------------------------------------------

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        tag: Optional[Callable[[object], object]] = None,
    ) -> None:
        """Record a ``name`` span around every ``obj.method(...)`` call.

        ``tag(result)`` is stored with the span, so counts and ratios
        are taken where the work happens.
        """
        had_own = method in vars(obj)
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            index = self.begin()
            start = perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(
                    index,
                    name,
                    start,
                    tag(result) if tag is not None and result is not None
                    else None,
                )
            return result

        # ``object.__setattr__`` also reaches frozen dataclasses (the
        # threshold policy is one); the class itself is never touched.
        object.__setattr__(obj, method, traced)
        self._installed.append((obj, method, original, had_own))

    def is_wrapped(self, obj: object) -> bool:
        return any(target is obj for target, *_ in self._installed)

    def unwrap_all(self) -> None:
        """Restore every wrapped method, newest first."""
        for obj, method, original, had_own in reversed(self._installed):
            if had_own:
                object.__setattr__(obj, method, original)
            else:
                object.__delattr__(obj, method)
        self._installed.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, trace_id, tag = span
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "trace": trace_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "tag": tag,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


@dataclass
class NameSummary:
    """What all spans of one name did, per root kind."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    tags: List[object] = field(default_factory=list)
    #: Calls that had no child span at all (e.g. a cache hit).
    leaf_calls: int = 0


def summarize(
    spans: List[Optional[Span]],
) -> Dict[Tuple[str, str], NameSummary]:
    """Per (root span name, span name) counts, total and self time."""
    child_ns = [0] * len(spans)
    children = [0] * len(spans)
    root_of = [-1] * len(spans)
    for index, span in enumerate(spans):
        if span is None:
            continue
        _, start, end, parent, _, _ = span
        if parent >= 0:
            child_ns[parent] += end - start
            children[parent] += 1
    # Parents are opened before their children, so one forward pass
    # resolves every span's root.
    for index, span in enumerate(spans):
        if span is None:
            continue
        parent = span[3]
        root_of[index] = index if parent < 0 else root_of[parent]
    out: Dict[Tuple[str, str], NameSummary] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _, _, tag = span
        root = spans[root_of[index]]
        key = (root[0] if root is not None else "", name)
        summary = out.setdefault(key, NameSummary())
        summary.calls += 1
        summary.total_ns += end - start
        summary.self_ns += end - start - child_ns[index]
        if children[index] == 0:
            summary.leaf_calls += 1
        if tag is not None:
            summary.tags.append(tag)
    return out
