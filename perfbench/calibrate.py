"""Host-speed calibration kernel of the benchmark.

On a shared VM the same computation runs 30-50% slower from one minute
to the next, and every workload slows together.  The benchmark therefore
runs this fixed kernel right before and after every timed ``detect()``
or stream round and reports those times in *reference-host* units:

    normalised = raw × REFERENCE_S / (mean of the kernel times around the unit)

The kernel mixes what the workloads spend their time on — small HiGHS
LPs, NumPy array arithmetic and interpreted Python loops — and imports
nothing from ``repro``, so no change to the library can move it
directly.  A change that leaves work running after its calls (spinning
threads, a busy worker pool) does slow it and so flatters the normalised
times; raw times are reported beside them, and ``aa.py`` warns when the
two disagree.  ``setup_s`` stays raw: the kernel does not track the cost
of a fresh interpreter's imports.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

#: Median kernel time on the 2-vCPU host where the benchmark was defined.
REFERENCE_S = 0.100
#: Kernel runs timed when a calibrator is made, before the run's first
#: library call, after one untimed pass that warms SciPy and NumPy.
QUIET_RUNS = 4
#: A run warns when its kernel ran this much slower between library calls
#: than before them.  That flatters normalised times by a third, beyond
#: every timing bound; host drift alone reached 0.46 in 120 A/A runs.
SLOWDOWN_WARN = 0.5


class Calibrator:
    """A fixed, seeded kernel; :meth:`run` times one pass of it.

    ``quiet`` holds the :data:`QUIET_RUNS` passes timed on construction
    after the warm-up pass, ``samples`` every pass timed after that.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        m = n = 8
        a_eq = np.zeros((m + n, m * n))
        for i in range(m):
            a_eq[i, i * n : (i + 1) * n] = 1.0
        for j in range(n):
            a_eq[m + j, j::n] = 1.0
        self._a_eq = a_eq
        self._lps: List[Tuple[np.ndarray, np.ndarray]] = []
        for _ in range(36):
            supply, demand = rng.random(m), rng.random(n)
            b_eq = np.concatenate([supply / supply.sum(), demand / demand.sum()])
            self._lps.append((rng.random(m * n), b_eq))
        self._matrix = rng.normal(size=(300, 300))
        self.samples: List[float] = []
        for _ in range(1 + QUIET_RUNS):
            self.run()
        self.quiet, self.samples = self.samples[1:], []

    def run(self) -> float:
        start = time.perf_counter()
        for cost, b_eq in self._lps:
            linprog(cost, A_eq=self._a_eq, b_eq=b_eq, method="highs")
        acc = 0
        for i in range(90_000):
            acc += i % 7
        y = self._matrix
        for _ in range(6):
            y = np.tanh(y @ self._matrix * 0.01)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def normalise(raw: float, before: float, after: float) -> float:
    """``raw`` in reference-host units, from the kernel times around it."""
    return raw * REFERENCE_S / ((before + after) / 2.0)


def slowdown(quiet: Sequence[float], during: Sequence[float]) -> float:
    """How much slower the kernel ran between library calls than before them.

    Work the library leaves running after its calls slows the kernel and
    so flatters the normalised times; host drift within a run moves this
    too, but less than :data:`SLOWDOWN_WARN`.
    """
    return statistics.median(during) / statistics.median(quiet) - 1.0


def nearest_median(samples: Sequence[Tuple[float, float]], at: float, k: int = 5) -> float:
    """Median kernel time of the ``k`` ``(timestamp, time)`` samples nearest ``at``.

    For units too close together to be bracketed by their own kernel runs:
    a median of neighbours is robust to one slow kernel run and to gaps
    where the kernel was skipped.
    """
    nearest = sorted(samples, key=lambda sample: abs(sample[0] - at))[:k]
    return statistics.median(value for _, value in nearest)
