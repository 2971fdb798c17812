"""Statistics helpers of the end-to-end benchmark (stdlib only).

Kept free of ``repro`` imports so the helpers can be unit-tested without
the library and cannot be bent by a change to it.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail latency may be reported at, lowest first.  A fixed
#: ladder keeps the reported percentile the same from run to run.
PERCENTILE_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank percentile of ascending values: ``(value, samples beyond it)``."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sequence")
    # Round before ceil so 99.9% of 10000 is rank 9990, not 9991.
    index = max(0, math.ceil(round(percentile * n / 100.0, 9)) - 1)
    return float(sorted_values[index]), n - 1 - index


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10
) -> Optional[Tuple[float, float, int]]:
    """Highest ladder percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value, sample_count)``, or ``None`` when even the
    median has fewer than ``min_beyond`` samples above it.
    """
    ordered = sorted(values)
    for percentile in reversed(PERCENTILE_LADDER):
        if not ordered:
            break
        value, beyond = nearest_rank(ordered, percentile)
        if beyond >= min_beyond:
            return percentile, value, len(ordered)
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (``statistics.quantiles``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def merge_alarms(alarms: Sequence[int], min_gap: int) -> List[int]:
    """Keep the earliest alarm of every run whose alarms are < ``min_gap`` apart."""
    merged: List[int] = []
    for alarm in sorted(int(a) for a in alarms):
        if not merged or alarm - merged[-1] >= min_gap:
            merged.append(alarm)
    return merged


def match_counts(
    alarms: Sequence[int], truth: Sequence[int], tolerance: int
) -> Tuple[int, int, int]:
    """``(tp, fp, fn)`` after matching each true change to one alarm.

    A change at ``c`` is matched by the closest unused alarm ``a`` with
    ``|a − c| ≤ tolerance``; changes are taken in time order.
    """
    used: set = set()
    tp = 0
    for change in sorted(truth):
        candidates = [
            a for a in alarms if a not in used and abs(a - change) <= tolerance
        ]
        if candidates:
            used.add(min(candidates, key=lambda a: (abs(a - change), a)))
            tp += 1
    return tp, len(alarms) - tp, len(truth) - tp


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    """F1 of match counts; 1.0 when there was nothing to find and nothing raised."""
    denominator = 2 * tp + fp + fn
    return 1.0 if denominator == 0 else 2.0 * tp / denominator


class OpenLoop:
    """Fixed-period open-loop schedule with lateness accounting.

    Request ``i`` is due at ``start + i × period`` whatever happened to the
    requests before it; :meth:`wait` sleeps until it is due and records how
    late the generator actually released it.  Latency is measured from the
    due time, so a stall is charged to every request it delays.
    """

    def __init__(
        self,
        start: float,
        period: float,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.start = start
        self.period = period
        self._clock = clock
        self._sleep = sleep
        self.lateness: Dict[int, float] = {}

    def due(self, i: int) -> float:
        """When request ``i`` is due."""
        return self.start + i * self.period

    def wait(self, i: int) -> float:
        """Sleep until request ``i`` is due; return the release time."""
        now = self._clock()
        if now < self.due(i):
            self._sleep(self.due(i) - now)
            now = self._clock()
        self.lateness[i] = max(0.0, now - self.due(i))
        return now

    def release(self, i: int, n: int) -> range:
        """Wait for request ``i``, then release it with every later one already due.

        A single-threaded generator cannot release requests while the
        system is busy; those that fell due meanwhile go out together.
        """
        now = self.wait(i)
        j = i + 1
        while j < n and self.due(j) <= now:
            self.lateness[j] = now - self.due(j)
            j += 1
        return range(i, j)

    def latency(self, i: int, done: float) -> float:
        """Time from request ``i``'s due time to ``done``."""
        return done - self.due(i)

    @property
    def late_max(self) -> float:
        """Largest lateness seen so far (seconds)."""
        return max(self.lateness.values(), default=0.0)
