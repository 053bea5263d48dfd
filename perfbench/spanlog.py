"""In-memory spans recorded around the benchmark's calls into ``repro``.

The program's own tracer (``repro.obs``) stays uninstalled: every span
here is opened in the benchmark's code, around a public call, so a
layer's number is the self time of the span wrapped around its call.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    unit: Optional[str]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans of one run; parents are tracked per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, unit: Optional[str] = None) -> Iterator[None]:
        parent = getattr(self._local, "current", None)
        if unit is None and parent is not None:
            unit = parent[1]
        span_id = next(self._ids)
        self._local.current = (span_id, unit)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._local.current = parent
            with self._lock:
                self.spans.append(Span(span_id,
                                       parent[0] if parent else None,
                                       unit, name, start, end))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's time."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        result = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for child in sorted(children.get(s.id, []),
                                key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[s.id] = s.duration - covered
        return result

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


class NullSpanLog:
    """Tracing off: the same interface, recording nothing."""

    enabled = False

    def span(self, name: str, unit: Optional[str] = None):
        return contextlib.nullcontext()
