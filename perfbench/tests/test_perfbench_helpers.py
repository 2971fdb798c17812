"""Unit tests of the end-to-end benchmark's own helpers (no library needed).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import aa  # noqa: E402
import stats  # noqa: E402
from calibrate import nearest_median, normalise, slowdown  # noqa: E402
from spans import Tracer, covered  # noqa: E402


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


# ---------------------------------------------------------------------- #
# Tail percentile: the highest ladder percentile with ten samples beyond
# ---------------------------------------------------------------------- #
def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(10))) is None
    # 20 samples: p50 is rank 10, leaving exactly ten beyond it.
    assert stats.tail_percentile(list(range(20))) == (50.0, 9.0, 20)
    # 19 samples leave only nine beyond the median.
    assert stats.tail_percentile(list(range(19))) is None


@pytest.mark.parametrize(
    "n, percentile",
    [(40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_picks_highest_percentile_that_fits(n, percentile):
    q, value, count = stats.tail_percentile([float(i) for i in range(n)])
    assert (q, count) == (percentile, n)
    beyond = sum(1 for i in range(n) if i > value)
    assert beyond >= 10


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert stats.tail_percentile(values) == stats.tail_percentile(sorted(values))


# ---------------------------------------------------------------------- #
# F1 matching with tolerance
# ---------------------------------------------------------------------- #
def test_merge_keeps_earliest_of_each_run():
    assert stats.merge_alarms([50, 51, 52, 56, 100, 101], 5) == [50, 56, 100]


def test_match_within_tolerance():
    assert stats.match_counts([52, 100], [50, 100], tolerance=2) == (2, 0, 0)
    assert stats.match_counts([53, 100], [50, 100], tolerance=2) == (1, 1, 1)
    # Early alarms count too, within the same tolerance.
    assert stats.match_counts([48], [50], tolerance=2) == (1, 0, 0)


def test_each_alarm_confirms_one_change():
    # One alarm between two close changes matches only one of them.
    assert stats.match_counts([10], [9, 11], tolerance=2) == (1, 0, 1)


def test_f1_from_counts():
    assert stats.f1_from_counts(2, 0, 0) == 1.0
    assert stats.f1_from_counts(1, 1, 1) == 0.5
    assert stats.f1_from_counts(0, 3, 0) == 0.0
    assert stats.f1_from_counts(0, 0, 0) == 1.0


# ---------------------------------------------------------------------- #
# Span self time
# ---------------------------------------------------------------------- #
def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        clock.now += 1.0
        with tracer.span("child"):
            clock.now += 2.0
            with tracer.span("grandchild"):
                clock.now += 0.5
        clock.now += 1.5
        with tracer.span("child"):
            clock.now += 1.0
    by_name = tracer.totals()
    # Children cover [1, 3.5] and [5, 6] of the root's [0, 6].
    assert by_name["root"] == pytest.approx((6.0, 2.5, 1))
    assert by_name["child"] == pytest.approx((3.5, 3.0, 2))
    assert by_name["grandchild"] == pytest.approx((0.5, 0.5, 1))
    root = next(s for s in tracer.spans if s.name == "root")
    assert all(s.root == root.span_id for s in tracer.spans)
    assert root.parent is None


def test_self_time_counts_overlapping_children_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        clock.now += 4.0
    root = tracer.spans[0]
    # Two children recorded over the same interval (e.g. concurrent work).
    tracer.spans.append(type(root)(10, "a", 1.0, 3.0, root.span_id, root.span_id))
    tracer.spans.append(type(root)(11, "b", 2.0, 3.0, root.span_id, root.span_id))
    assert tracer.self_times()[root.span_id] == pytest.approx(2.0)


# ---------------------------------------------------------------------- #
# Open loop: due times and lateness
# ---------------------------------------------------------------------- #
def test_open_loop_sleeps_until_due():
    clock = FakeClock(0.0)
    loop = stats.OpenLoop(1.0, 0.5, clock=clock, sleep=clock.sleep)
    assert loop.release(0, 10) == range(0, 1)
    assert clock.now == 1.0 and loop.lateness[0] == 0.0
    assert loop.due(3) == pytest.approx(2.5)


def test_open_loop_releases_overdue_requests_together():
    clock = FakeClock(0.0)
    loop = stats.OpenLoop(0.0, 1.0, clock=clock, sleep=clock.sleep)
    loop.release(0, 10)
    clock.now = 3.25  # the system was busy through ticks 1-3
    released = loop.release(1, 10)
    assert released == range(1, 4)
    assert [loop.lateness[i] for i in released] == pytest.approx([2.25, 1.25, 0.25])
    assert loop.late_max == pytest.approx(2.25)
    assert loop.latency(1, 4.0) == pytest.approx(3.0)
    assert clock.slept == []


def test_open_loop_stops_at_last_request():
    clock = FakeClock(100.0)
    loop = stats.OpenLoop(0.0, 1.0, clock=clock, sleep=clock.sleep)
    assert loop.release(0, 3) == range(0, 3)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    # statistics.quantiles' default (exclusive) method gives q1=8, q3=12.
    assert stats.quartile_spread([7, 9, 10, 11, 13]) == pytest.approx(0.4)


# ---------------------------------------------------------------------- #
# Host-speed normalisation
# ---------------------------------------------------------------------- #
def test_normalise_scales_to_reference_kernel_time():
    # A unit bracketed by kernel runs at twice the reference time halves.
    assert normalise(4.0, 0.2, 0.2) == pytest.approx(2.0)


def test_nearest_median_ignores_one_slow_kernel_run_and_far_samples():
    samples = [(0.0, 0.1), (1.0, 0.1), (2.0, 0.9), (3.0, 0.1), (4.0, 0.1), (50.0, 0.5)]
    assert nearest_median(samples, 2.1) == pytest.approx(0.1)
    assert nearest_median(samples[:2], 9.0) == pytest.approx(0.1)


def test_slowdown_compares_kernel_during_run_with_before():
    assert slowdown([0.1, 0.1, 0.5], [0.15, 0.15, 0.1]) == pytest.approx(0.5)
    assert slowdown([0.1], [0.08]) == pytest.approx(-0.2)


# ---------------------------------------------------------------------- #
# A/A verdicts
# ---------------------------------------------------------------------- #
def test_agree_checks_medians_in_both_directions():
    a = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert aa.agree(a, [v * 1.2 for v in a], 0.25)
    assert not aa.agree(a, [v * 1.3 for v in a], 0.25)
    # A side B 30% *better* is as much a disagreement as 30% worse.
    assert not aa.agree(a, [v * 0.7 for v in a], 0.25)


def test_agree_checks_every_spread():
    a = [100.0, 100.0, 100.0, 100.0, 100.0]
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert stats.quartile_spread(wide) > 0.25
    assert not aa.agree(a, wide, 0.25)
    assert not aa.agree(wide, a, 0.25)


# ---------------------------------------------------------------------- #
# Clean-up: no process the run started outlives it
# ---------------------------------------------------------------------- #
STOP_CHILDREN_PROBE = """
import multiprocessing, os
from multiprocessing import resource_tracker, shared_memory
import run

block = shared_memory.SharedMemory(create=True, size=16)
block.close()
block.unlink()
tracker = resource_tracker._resource_tracker._pid
worker = multiprocessing.Process(target=multiprocessing.Event().wait, daemon=True)
worker.start()
run.stop_children()
assert not worker.is_alive()
assert resource_tracker._resource_tracker._pid is None
try:
    os.kill(tracker, 0)
except ProcessLookupError:
    print("stopped")
"""


def test_stop_children_ends_workers_and_the_resource_tracker():
    # In a child interpreter, so this test's own resource tracker is untouched.
    done = subprocess.run(
        [sys.executable, "-c", STOP_CHILDREN_PROBE],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "stopped"
