"""In-memory span tracer of the benchmark (stdlib only).

Spans are recorded by the benchmark around its own calls into the
library's public functions; nothing inside ``repro`` is instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the enclosing span, ``root`` its request."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    root: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Records nested spans in memory; :meth:`write` dumps them at the end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[Tuple[int, int]] = []  # (span_id, root)
        self._next_id = 0
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent, root = self._stack[-1] if self._stack else (None, span_id)
        self._stack.append((span_id, root))
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, root))

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part of it its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return {
            s.span_id: s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
            for s in self.spans
        }

    def totals(self) -> Dict[str, Tuple[float, float, int]]:
        """Per span name: ``(total duration, total self time, count)``."""
        selfs = self.self_times()
        out: Dict[str, Tuple[float, float, int]] = {}
        for s in self.spans:
            dur, own, count = out.get(s.name, (0.0, 0.0, 0))
            out[s.name] = (dur + s.duration, own + selfs[s.span_id], count + 1)
        return out

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in completion order."""
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
