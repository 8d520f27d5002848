"""In-memory spans recorded around the benchmark's calls into mel_ray.

Each span has a name, start, end, the span that caused it and the trace it
belongs to (one trace per traced iteration).  Spans are kept in memory and
written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    trace_id: str
    span_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, cpu_clock: Callable[[], float]):
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, trace_id: str, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(trace_id, len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        c0 = self.cpu_clock()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.cpu_s = self.cpu_clock() - c0
            self._stack.pop()

    def children(self, root: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == root.span_id]

    def coverage(self, root: Span) -> float:
        """Share of the root span's wall time covered by its child spans."""
        return sum(c.wall_s for c in self.children(root)) / root.wall_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=1))
