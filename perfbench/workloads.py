"""The benchmark's three workloads, their correctness gates and traced replicas.

Each ``run_*`` function takes the workload seed, the seconds to measure
and whether to trace, and returns an :class:`Outcome`.  Untraced runs
time whole public calls (``detect()``, ``submit()``/``drain()``); traced
runs replicate those calls from the library's public parts, record spans
around each part, and must reproduce the untraced outputs exactly.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import configs
import stats
from calibrate import REFERENCE_S, SLOWDOWN_WARN, Calibrator, nearest_median, normalise, slowdown
from spans import Tracer
from repro import BagChangePointDetector, OnlineBagDetector
from repro.core.results import ScorePoint
from repro.core.score_engine import ScoreEngine
from repro.core.scores import WindowDistances
from repro.core.thresholding import AdaptiveThreshold
from repro.datasets import make_mixture_stream
from repro.datasets.registry import make_dataset
from repro.emd.orchestrator import RetryPolicy, ShardOrchestrator
from repro.emd.sharding import EngineSettings, ShardPlan
from repro.exceptions import SolverError
from repro.service.snapshots import snapshot_path
from repro.signatures import SignatureBuilder

clock = time.perf_counter
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Fresh interpreters timed for ``setup_s`` before a run's timed loop, and
#: as many again after it.
SETUP_REPEATS = 3

#: Per-layer metrics reported by every traced run, with their units, as
#: listed in BENCHMARK.json.  A layer a workload does not exercise reports 0.
PER_LAYER_UNITS: Dict[str, str] = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]
}


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    extra: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    gates: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def gate(self, name: str, passed: bool, detail: str) -> None:
        self.gates.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.gates)


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def point_key(p) -> tuple:
    return (p.time, p.score, p.interval.lower, p.interval.upper, p.gamma, p.alert)


def same_points(a: Sequence, b: Sequence) -> bool:
    """Bit-for-bit equality of two score-point lists (NaN equals NaN)."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        ka, kb = point_key(pa), point_key(pb)
        if ka[0] != kb[0] or ka[5] != kb[5]:
            return False
        if not all(_same_float(x, y) for x, y in zip(ka[1:5], kb[1:5])):
            return False
    return True


def band_pairs(n: int, span: int) -> int:
    """Pairs (i, j) with i < j < i + span among n signatures."""
    return sum(min(span - 1, n - 1 - i) for i in range(n))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, scratch: Path, tag: str) -> List[float]:
    """``setup_s`` samples in seconds, each from a fresh interpreter.

    Called before and after a run's timed loop: the host's speed drifts
    over tens of seconds, and samples from both ends of a run average over
    that drift where samples taken back to back do not.  Raw, not
    host-normalised: the calibration kernel does not track the cost of a
    fresh interpreter's imports.
    """
    child = Path(__file__).resolve().with_name("setup_child.py")
    src = Path.cwd() / "src"
    samples = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(child), workload, str(seed), str(src), str(scratch / f"setup-{tag}{i}")],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def route_counts(engine, expected_pairs: int, outcome: Outcome, stacking: bool) -> Dict[str, float]:
    """Solver-route counts from the engine's public counters, with the invariant."""
    pairs = engine.n_evaluations
    fast = engine.n_fast_path
    stacked = engine.n_linprog_batched + engine.n_sinkhorn_batched
    single = pairs - fast - stacked
    solved = pairs - fast
    # No public counter exists for per-pair solves, so pairs_single is
    # derived and fast + stacked + single == pairs holds when it is not
    # negative; pairs must also equal what the benchmark submitted.
    outcome.gate(
        "route_counts",
        pairs == expected_pairs and min(fast, stacked, single) >= 0,
        f"pairs={pairs} (expected {expected_pairs}) fast={fast} stacked={stacked} single={single}",
    )
    frac = stacked / solved if solved else 0.0
    if stacking and stacked == 0:
        outcome.notes.append(
            f"STACKING: 0% of {solved} non-fast pairs were stacked although the "
            "workload requests stacked solves"
        )
    return {
        "emd.pairs": float(pairs),
        "emd.pairs_fast": float(fast),
        "emd.pairs_stacked": float(stacked),
        "emd.pairs_single": float(single),
        "emd.stacked_frac": frac,
    }


def alarm_counts(points: Sequence, truth: Sequence[int], tau_test: int) -> Tuple[int, int, int]:
    """``(tp, fp, fn)`` of alarms merged by ``min_gap = τ′``, tolerance ``τ′``."""
    alarms = stats.merge_alarms([p.time for p in points if p.alert], tau_test)
    return stats.match_counts(alarms, truth, tolerance=tau_test)


def nan_points(points: Sequence) -> int:
    return sum(1 for p in points if math.isnan(p.score))


@dataclass
class Timings:
    """A run's timed samples (seconds): host-normalised and raw, and raw set-up."""

    latencies: List[float]
    raw_latencies: List[float]
    bags_per_s: float
    raw_bags_per_s: float
    setup: List[float]
    cal: Calibrator


def base_metrics(outcome: Outcome, t: Timings, f1: float, n_bags: int) -> None:
    """The end-to-end metrics; times but ``setup_s`` are in reference-host units (calibrate.py)."""
    n = len(t.latencies)
    outcome.metrics["latency_p50_ms"] = (stats.median(t.latencies) * 1000.0, "ms", n)
    outcome.metrics["bags_per_s"] = (t.bags_per_s, "1/s", n_bags)
    outcome.metrics["alarm_f1"] = (f1, "frac", 1)
    outcome.metrics["setup_s"] = (stats.median(t.setup), "s", len(t.setup))
    tail = stats.tail_percentile(t.latencies)
    if tail is not None:
        q, value, count = tail
        outcome.extra["latency_tail_ms"] = (value * 1000.0, "ms", count)
        outcome.notes.append(f"latency_tail_ms is p{q:g} of {count} samples")
    outcome.extra["raw_latency_p50_ms"] = (stats.median(t.raw_latencies) * 1000.0, "ms", n)
    outcome.extra["raw_bags_per_s"] = (t.raw_bags_per_s, "1/s", n_bags)
    outcome.extra["host.calib_ms"] = (stats.median(t.cal.samples) * 1000.0, "ms", len(t.cal.samples))
    slow = slowdown(t.cal.quiet, t.cal.samples)
    outcome.extra["host.kernel_slowdown"] = (slow, "frac", len(t.cal.samples))
    if slow > SLOWDOWN_WARN:
        outcome.notes.append(
            f"WARNING: the calibration kernel ran {slow:.0%} slower between library calls than "
            "before them; work left running after the calls flatters the normalised times, "
            "so compare the raw_* lines"
        )


# ---------------------------------------------------------------------- #
# Offline workloads
# ---------------------------------------------------------------------- #
def hist_inputs(seed: int) -> Tuple[List[np.ndarray], List[int]]:
    """120 2-D bags of ~400 points; the mean shifts by 0.8 at t = 60."""
    rng = np.random.default_rng([seed, 2])
    n, change = 120, 60
    bags = [
        rng.normal(0.0 if t < change else 0.8, 1.0, size=(400 + int(rng.integers(-40, 41)), 2))
        for t in range(n)
    ]
    return bags, [change]


def _orchestrator(cfg, n: int) -> ShardOrchestrator:
    """The orchestrator ``detect()`` builds for a sharded config (defaults otherwise)."""
    return ShardOrchestrator(
        ShardPlan.build(n, cfg.window_span, cfg.n_shards or configs.SHARDS),
        EngineSettings.from_config(cfg),
        policy=RetryPolicy.from_config(cfg),
        mode="process",
        n_workers=cfg.n_workers or configs.n_workers(),
    )


def _retries(orchestrator: ShardOrchestrator) -> int:
    return orchestrator.n_retries + orchestrator.n_timeouts + orchestrator.n_stragglers_redispatched


def replicate_detect(cfg, bags: Sequence[np.ndarray], tracer: Tracer, state: dict) -> list:
    """``detect()`` rebuilt from its public parts, with a span per part."""
    with tracer.span("detect"):
        rng = np.random.default_rng(cfg.random_state)
        builder = SignatureBuilder(
            cfg.signature_method,
            n_clusters=cfg.n_clusters,
            bins=cfg.bins,
            histogram_range=cfg.histogram_range,
            random_state=rng,
        )
        arrays = [np.asarray(bag, dtype=float) for bag in bags]
        with tracer.span("signatures"):
            signatures = builder.build_sequence(arrays)
        with tracer.span("emd.band"):
            if cfg.n_shards is not None:
                orchestrator = _orchestrator(cfg, len(signatures))
                band = orchestrator.run(signatures)
            else:
                engine = EngineSettings.from_config(cfg).make_engine()
                band = engine.banded_matrix(signatures, cfg.window_span)
        score_engine = ScoreEngine(cfg, rng=rng)
        threshold = AdaptiveThreshold(cfg.tau_test)
        points = []
        for t in range(cfg.tau, len(signatures) - cfg.tau_test + 1):
            ref, test, cross = band.window(t - cfg.tau, cfg.tau, cfg.tau_test)
            window = WindowDistances(ref_pairwise=ref, test_pairwise=test, cross=cross)
            with tracer.span("score"):
                score, interval = score_engine.point_and_interval(window)
            with tracer.span("threshold"):
                gamma, alert = threshold.update(t, interval)
            points.append(ScorePoint(time=t, score=score, interval=interval, gamma=gamma, alert=alert))
    state["signatures"] = signatures
    state["band"] = band
    if cfg.n_shards is not None:
        state["retries"] += _retries(orchestrator)
        # Route counts and the exactness check come from an in-process
        # build of the same signatures.
        state["engine"] = EngineSettings.from_config(cfg).make_engine()
    else:
        state["engine"] = engine
    return points


def bands_equal(a, b) -> Tuple[bool, float]:
    """Whether two banded matrices are identical, and their max |Δ|."""
    x, y = np.asarray(a.band), np.asarray(b.band)
    if x.shape != y.shape:
        return False, float("inf")
    finite = np.isfinite(x) & np.isfinite(y)
    delta = float(np.max(np.abs(x[finite] - y[finite]), initial=0.0))
    return bool(np.array_equal(x, y, equal_nan=True)), delta


def offline_setup(workload: str, seed: int) -> Tuple[List[np.ndarray], List[int], object, bool]:
    """Inputs, ground truth, config, and whether traced runs add a shard probe.

    The probe builds ``offline_mixture``'s band a second way, through
    ``ShardOrchestrator`` with process workers, so the orchestrator layer
    is measured (and proven exact) on the default configuration.
    """
    if workload == "offline_mixture":
        dataset = make_dataset("mixture", random_state=seed)
        return dataset.bags, list(dataset.change_points), configs.mixture_config(seed), True
    bags, truth = hist_inputs(seed)
    return bags, truth, configs.hist_config(seed, sharded=workload == "offline_hist_sharded"), False


def run_offline(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    bags, truth, cfg, shard_probe = offline_setup(workload, seed)
    sharded = cfg.n_shards is not None
    n = len(bags)
    outcome = Outcome()
    cal = Calibrator()
    setup = None if trace else measure_setup(workload, seed, scratch, "before")
    # Warm the lazy imports and code paths a long-lived user has warm.
    with BagChangePointDetector(cfg) as warm:
        warm.detect(bags[: 3 * cfg.window_span])

    walls: List[float] = []
    normalised: List[float] = []
    before = cal.run()
    replica_walls: List[float] = []
    inproc_walls: List[float] = []
    orch_walls: List[float] = []
    reference = None
    tracer = Tracer()
    state: dict = {"retries": 0, "band_ok": True, "band_delta": 0.0}
    replicas_ok = True
    repeat_ok = True
    deadline = clock() + seconds
    while outcome.attempted == 0 or clock() < deadline:
        outcome.attempted += 1
        try:
            with BagChangePointDetector(cfg) as detector:
                start = clock()
                result = detector.detect(bags)
                walls.append(clock() - start)
            if not trace:
                after = cal.run()
                normalised.append(normalise(walls[-1], before, after))
                before = after
        except SolverError as exc:
            outcome.failed += 1
            outcome.notes.append(f"detect() raised {exc}")
            continue
        points = result.points
        if nan_points(points):
            outcome.failed += 1
        if reference is None:
            reference = points
        elif not same_points(points, reference):
            repeat_ok = False
        if not trace:
            continue
        start = clock()
        replica = replicate_detect(cfg, bags, tracer, state)
        replica_walls.append(clock() - start)
        replicas_ok = replicas_ok and same_points(replica, points)
        band_s = tracer.durations("emd.band")[-1]
        if sharded:
            orch_walls.append(band_s)
            start = clock()
            other = state["engine"].banded_matrix(state["signatures"], cfg.window_span)
            inproc_walls.append(clock() - start)
        elif shard_probe:
            inproc_walls.append(band_s)
            orchestrator = _orchestrator(cfg, n)
            start = clock()
            other = orchestrator.run(state["signatures"])
            orch_walls.append(clock() - start)
            state["retries"] += _retries(orchestrator)
        if sharded or shard_probe:
            equal, delta = bands_equal(state["band"], other)
            state["band_ok"] = state["band_ok"] and equal
            state["band_delta"] = max(state["band_delta"], delta)
    if reference is None:
        outcome.gate("detect", False, "every detect() call failed")
        return outcome

    outcome.gate("repeatable", repeat_ok, "every detect() of the run returned the same points")
    nans = nan_points(reference)
    outcome.gate("no_nan_scores", nans == 0, f"{nans} NaN-scored points (no window is masked)")
    tp, fp, fn = alarm_counts(reference, truth, cfg.tau_test)
    outcome.gate(
        "alarms_hit_truth",
        fn == 0,
        f"truth={truth} tp={tp} fp={fp} fn={fn} tolerance={cfg.tau_test}",
    )
    if not trace:
        setup += measure_setup(workload, seed, scratch, "after")
        timings = Timings(normalised, walls, n / stats.median(normalised), n / stats.median(walls), setup, cal)
        base_metrics(outcome, timings, stats.f1_from_counts(tp, fp, fn), len(walls))

    expected_pairs = band_pairs(n, cfg.window_span)
    if sharded and not trace:
        # Untraced runs still prove the sharded band equals the in-process one.
        signatures = SignatureBuilder(
            cfg.signature_method, bins=cfg.bins, histogram_range=cfg.histogram_range
        ).build_sequence([np.asarray(b, dtype=float) for b in bags])
        state["engine"] = EngineSettings.from_config(cfg).make_engine()
        inproc = state["engine"].banded_matrix(signatures, cfg.window_span)
        state["band_ok"], state["band_delta"] = bands_equal(_orchestrator(cfg, n).run(signatures), inproc)
    if sharded or (trace and shard_probe):
        outcome.gate(
            "sharded_band_equal",
            state["band_ok"] and state["band_delta"] == 0.0,
            f"max |delta| = {state['band_delta']!r} between ShardOrchestrator.run and banded_matrix",
        )
    if sharded or trace:
        stacking = cfg.emd_backend == "linprog_batch"
        routes = route_counts(state["engine"], expected_pairs, outcome, stacking)
        outcome.notes.append("routes: " + " ".join(f"{k.split('.')[1]}={v:g}" for k, v in routes.items()))
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    if not trace:
        return outcome

    outcome.gate("replica_matches_detect", replicas_ok, "traced replica == detect() on every iteration")
    iters = len(replica_walls)
    totals = tracer.totals()
    root = totals["detect"][0]
    sig = totals["signatures"][0]
    band = totals["emd.band"][0]
    score = totals["score"][0] + totals["threshold"][0]
    n_points = len(reference)
    layer = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layer.update(routes)
    layer.update(
        {
            "signatures.ms_per_bag": 1000.0 * sig / (iters * n),
            "signatures.share": sig / root,
            "signatures.atoms_per_bag": float(np.mean([len(s.weights) for s in state["signatures"]])),
            "emd.band_s": band / iters,
            "emd.share": band / root,
            "emd.ms_per_pair": 1000.0 * band / (iters * expected_pairs),
            "score.ms_per_point": 1000.0 * score / (iters * n_points),
            "score.share": score / root,
            "trace.overhead_frac": stats.median(replica_walls) / stats.median(walls) - 1.0,
        }
    )
    if orch_walls:
        layer["shard.run_s"] = stats.median(orch_walls)
        layer["shard.speedup"] = stats.median(inproc_walls) / stats.median(orch_walls)
        layer["shard.retries"] = float(state["retries"])
    outcome.metrics = {k: (v, PER_LAYER_UNITS[k], iters) for k, v in layer.items()}
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.json")
    return outcome


# ---------------------------------------------------------------------- #
# Streaming workload
# ---------------------------------------------------------------------- #
def fleet_inputs(seed: int, n_bags: int) -> Tuple[List[List[np.ndarray]], List[List[int]]]:
    """Per stream: ``n_bags`` 150-point 1-D mixture bags and the change points.

    Stream ``k`` repeats the Fig. 1 regime cycle (1 → 2 → 3 components)
    with its own regime length of 12-19 bags, so each has its own changes.
    """
    streams, truths = [], []
    for k in range(configs.N_STREAMS):
        steps = 12 + (seed + 3 * k) % 8
        rng = np.random.default_rng([seed, 3, k])
        bags: List[np.ndarray] = []
        while len(bags) < n_bags:
            cycle = make_mixture_stream(
                steps_per_regime=steps, bag_size=150, bag_size_jitter=15, random_state=rng
            )
            bags.extend(cycle.bags)
        streams.append(bags[:n_bags])
        truths.append([c for c in range(steps, n_bags, steps)])
    return streams, truths


def supervised_loop(
    supervisor, streams, n_ticks: int, outcome: Outcome, cal: Optional[Calibrator]
) -> dict:
    """Open loop: every due tick submits one bag per stream, then one drain.

    With a calibrator, the kernel runs in the idle time after each drain
    (skipped when it would delay the next tick), and every drain's times
    are also reported host-normalised by the median of the five kernel
    runs nearest to it.
    """
    names = configs.stream_names()
    tau_test = supervisor.config.tau_test
    points: Dict[str, list] = {name: [] for name in names}
    latencies: List[float] = []
    rounds: List[float] = []
    waits: List[float] = []
    busy_ticks: List[Tuple[float, float]] = []  # (drain return, busy seconds)
    delivered: List[Tuple[float, float]] = []  # (drain return, latency)
    kernel: List[Tuple[float, float]] = []  # (timestamp, kernel seconds)
    backlog_max = 0
    if cal is not None:
        kernel.append((clock(), cal.run()))
    loop = stats.OpenLoop(clock() + 0.05, configs.TICK_S)
    i = 0
    while i < n_ticks:
        released = loop.release(i, n_ticks)
        t0 = clock()
        for tick in released:
            for name, bags in zip(names, streams):
                supervisor.submit(name, bags[tick])
        t1 = clock()
        backlog_max = max(backlog_max, sum(supervisor.metrics["queue_depths"].values()))
        t2 = clock()
        try:
            emitted = supervisor.drain()
        except SolverError as exc:
            outcome.failed += 1
            outcome.notes.append(f"drain() raised {exc}")
            emitted = []
        t3 = clock()
        busy_ticks.append((t3, (t1 - t0) + (t3 - t2)))
        rounds.append(t3 - t2)
        waits.append(t2 - loop.due(released[0]))
        i = released[-1] + 1
        for name, point in emitted:
            points[name].append(point)
            latencies.append(loop.latency(point.time + tau_test - 1, t3))
            delivered.append((t3, latencies[-1]))
        if cal is not None and (i == n_ticks or loop.due(i) - clock() > 1.5 * kernel[-1][1]):
            kernel.append((clock(), cal.run()))

    def scaled(at: float, seconds: float) -> float:
        return seconds * REFERENCE_S / nearest_median(kernel, at)

    return {
        "points": points,
        "latencies": latencies,
        "normalised": [scaled(t, lat) for t, lat in delivered] if kernel else [],
        "busy_normalised": sum(scaled(t, b) for t, b in busy_ticks) if kernel else 0.0,
        "rounds": rounds,
        "waits": waits,
        "busy": sum(b for _, b in busy_ticks),
        "elapsed": clock() - loop.start,
        "backlog_max": backlog_max,
        "late_max": loop.late_max,
    }


def replica_loop(supervisor, engine, streams, n_ticks: int, tracer: Tracer) -> dict:
    """``drain_batched`` rebuilt from public parts, on the same open loop.

    Per round: ``prepare`` on every stream, one ``solve_pairs`` over all
    their pairs, ``commit`` on every stream, and every
    ``SNAPSHOT_EVERY`` rounds one ``StreamSupervisor.snapshot()``.
    """
    names = configs.stream_names()
    detectors = [supervisor.detector(name) for name in names]
    points: Dict[str, list] = {name: [] for name in names}
    pairs_total = 0
    atoms = 0
    loop = stats.OpenLoop(clock() + 0.05, configs.TICK_S)
    i = 0
    while i < n_ticks:
        released = loop.release(i, n_ticks)
        for tick in released:
            with tracer.span("round"):
                pending = []
                for det, bags in zip(detectors, streams):
                    with tracer.span("online.prepare"):
                        pending.append(det.prepare(bags[tick]))
                atoms += sum(len(p.signature.weights) for p in pending)
                flat = [pair for p in pending for pair in p.pairs]
                pairs_total += len(flat)
                with tracer.span("online.solve"):
                    distances = engine.solve_pairs(flat)
                offset = 0
                for name, det, p in zip(names, detectors, pending):
                    with tracer.span("online.commit"):
                        point = det.commit(p, distances[offset : offset + len(p.pairs)])
                    offset += len(p.pairs)
                    if point is not None:
                        points[name].append(point)
                if (tick + 1) % configs.SNAPSHOT_EVERY == 0:
                    with tracer.span("snapshot"):
                        supervisor.snapshot()
        i = released[-1] + 1
    return {
        "points": points,
        "pairs": pairs_total,
        "atoms": atoms,
        "late_max": loop.late_max,
    }


def run_stream(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    outcome = Outcome()
    names = configs.stream_names()
    # A stream emits its first point after τ + τ′ bags; very short runs
    # still get enough ticks to score a few points.
    min_ticks = 2 * configs.stream_config(seed, 0).window_span
    n_ticks = max(min_ticks, int((seconds / 2 if trace else seconds) / configs.TICK_S))
    streams, truths = fleet_inputs(seed, n_ticks)
    cal = Calibrator()
    setup = None if trace else measure_setup("stream_fleet", seed, scratch, "before")
    # Warm the lazy imports with a throwaway stream.
    warm = OnlineBagDetector(configs.stream_config(seed, 0))
    for bag in streams[0][:12]:
        warm.push(bag)
    warm.close()

    supervisor = configs.make_supervisor(seed, scratch / "snapshots")
    try:
        run = supervised_loop(supervisor, streams, n_ticks, outcome, None if trace else cal)
        metrics = supervisor.metrics
    finally:
        supervisor.close()
    if not trace:
        setup += measure_setup("stream_fleet", seed, scratch, "after")
    tau_test = supervisor.config.tau_test
    outcome.attempted = n_ticks * len(names)
    lost = metrics["n_shed"] + metrics["n_quarantined"] + metrics["n_degraded_points"]
    nans = sum(nan_points(p) for p in run["points"].values())
    outcome.failed += lost + nans
    outcome.gate("no_shed_or_quarantine", lost == 0, f"shed={metrics['n_shed']} quarantined={metrics['n_quarantined']} degraded={metrics['n_degraded_points']}")
    outcome.gate("no_nan_scores", nans == 0, f"{nans} NaN-scored points (no window is masked)")
    expected_points = max(0, n_ticks - (supervisor.config.window_span - 1))
    complete = all(len(p) == expected_points for p in run["points"].values())
    outcome.gate("every_point_delivered", complete, f"{expected_points} points per stream")

    # A change at c alarms at inspection point c, so every change up to the
    # last inspection point the run reached counts.
    tp = fp = fn = 0
    last_time = n_ticks - tau_test
    for name, truth in zip(names, truths):
        reachable = [c for c in truth if supervisor.config.tau <= c <= last_time]
        a, b, c = alarm_counts(run["points"][name], reachable, tau_test)
        tp, fp, fn = tp + a, fp + b, fn + c
    outcome.notes.append(f"alarms: tp={tp} fp={fp} fn={fn} tolerance={tau_test}")
    n_bags = n_ticks * len(names)
    if not trace:
        timings = Timings(
            run["normalised"], run["latencies"], n_bags / run["busy_normalised"], n_bags / run["busy"], setup, cal
        )
        base_metrics(outcome, timings, stats.f1_from_counts(tp, fp, fn), n_bags)
    on_time = sum(1 for lat in run["latencies"] if lat <= configs.TICK_S)
    outcome.extra["on_time_frac"] = (on_time / max(1, len(run["latencies"])), "frac", len(run["latencies"]))

    if not trace:
        # The batched drain must commit exactly what sequential pushes commit.
        same = True
        for k, name in enumerate(names):
            detector = OnlineBagDetector(configs.stream_config(seed, k))
            reference = [p for p in map(detector.push, streams[k]) if p is not None]
            detector.close()
            same = same and same_points(run["points"][name], reference)
        outcome.gate("supervised_matches_sequential", same, "batched drain == per-stream push() on every stream")
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        return outcome

    tracer = Tracer()
    replica_sup = configs.make_supervisor(seed, scratch / "replica-snapshots")
    engine = EngineSettings.from_config(replica_sup.detector(names[0]).config).make_engine()
    try:
        replica = replica_loop(replica_sup, engine, streams, n_ticks, tracer)
    finally:
        replica_sup.close()  # also snapshots every stream
        engine.close()
    snapshot_bytes = [snapshot_path(replica_sup.snapshot_dir, name).stat().st_size for name in names]
    same = all(same_points(replica["points"][n], run["points"][n]) for n in names)
    outcome.gate("replica_matches_supervisor", same, "traced replica == supervised stream on every stream")
    routes = route_counts(engine, replica["pairs"], outcome, stacking=True)
    outcome.notes.append("routes: " + " ".join(f"{k.split('.')[1]}={v:g}" for k, v in routes.items()))

    totals = tracer.totals()
    n_rounds = totals["round"][2]
    round_total = totals["round"][0]
    prepare, solve, commit = (totals[k][0] for k in ("online.prepare", "online.solve", "online.commit"))
    snap_total, n_snaps = totals.get("snapshot", (0.0, 0.0, 0))[0], totals.get("snapshot", (0.0, 0.0, 0))[2]
    n_points = sum(len(p) for p in replica["points"].values())
    layer = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layer.update(routes)
    layer.update(
        {
            "signatures.ms_per_bag": 1000.0 * prepare / n_bags,
            "signatures.share": prepare / round_total,
            "signatures.atoms_per_bag": replica["atoms"] / n_bags,
            "emd.band_s": solve / n_rounds,
            "emd.share": solve / round_total,
            "emd.ms_per_pair": 1000.0 * solve / max(1, replica["pairs"]),
            "score.ms_per_point": 1000.0 * commit / max(1, n_points),
            "score.share": commit / round_total,
            "online.prepare_ms": 1000.0 * prepare / n_rounds,
            "online.solve_ms": 1000.0 * solve / n_rounds,
            "online.commit_ms": 1000.0 * commit / n_rounds,
            "online.pairs_per_round": replica["pairs"] / n_rounds,
            "service.round_ms": 1000.0 * stats.median(run["rounds"]),
            "service.queue_wait_ms": 1000.0 * stats.median(run["waits"]),
            "service.backlog_max": float(run["backlog_max"]),
            "service.busy_frac": run["busy"] / run["elapsed"],
            "service.shed": float(metrics["n_shed"]),
            "service.degraded_points": float(metrics["n_degraded_points"]),
            "service.quarantined": float(metrics["n_quarantined"]),
            "snapshot.write_ms": 1000.0 * snap_total / max(1, n_snaps * len(names)),
            "snapshot.bytes": float(np.mean(snapshot_bytes)),
            "loadgen.late_ms_max": 1000.0 * max(run["late_max"], replica["late_max"]),
            "trace.overhead_frac": (round_total / n_rounds) / (run["busy"] / len(run["rounds"])) - 1.0,
        }
    )
    outcome.metrics = {k: (v, PER_LAYER_UNITS[k], n_rounds) for k, v in layer.items()}
    tracer.write(OUT_DIR / f"trace-stream_fleet-seed{seed}.json")
    return outcome


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        if workload == "stream_fleet":
            return run_stream(seed, seconds, trace, scratch)
        return run_offline(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
