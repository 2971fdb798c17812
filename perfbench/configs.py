"""Workload configurations and the objects whose construction is ``setup_s``.

Imports nothing but the library's top-level package, so a fresh
interpreter that imports this module and calls :func:`construct` pays
exactly ``import repro`` plus construction.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import BagChangePointDetector, DetectorConfig, StreamSupervisor, SupervisorPolicy

# offline_hist(_sharded): 2-D bags binned on one fixed 5x5 grid, so every
# pair can be stacked into a block-diagonal LP.  Sharded builds (that
# workload, and offline_mixture's traced shard probe) use four row-block
# shards on process workers.
HIST_BINS = 5
HIST_RANGE = ((-2.5, 2.5), (-2.5, 2.5))
SHARDS = 4

# stream_fleet: eight sources each submit one bag per tick.  One batched
# round of eight 150-point bags takes ~0.28 s on a 2-vCPU host, so a
# 0.56 s tick offers about half of capacity and latency tracks service
# time instead of queue wait.
N_STREAMS = 8
TICK_S = 0.56
SNAPSHOT_EVERY = 10


def n_workers() -> int:
    """Process workers for the sharded build: two, or fewer on a smaller host."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def mixture_config(seed: int) -> DetectorConfig:
    """The quick-start configuration: every default, seeded."""
    return DetectorConfig(random_state=seed)


def hist_config(seed: int, sharded: bool) -> DetectorConfig:
    """Histogram signatures, stacked exact LP; band in-process or sharded."""
    return DetectorConfig(
        signature_method="histogram",
        bins=HIST_BINS,
        histogram_range=HIST_RANGE,
        emd_backend="linprog_batch",
        n_shards=SHARDS if sharded else None,
        parallel_backend="process" if sharded else "serial",
        n_workers=n_workers() if sharded else None,
        random_state=seed,
    )


def stream_config(seed: int, k: int) -> DetectorConfig:
    """Default k-means configuration of stream ``k``, with its own seed."""
    return DetectorConfig(random_state=seed * N_STREAMS + k)


def stream_names() -> list:
    return [f"src{k}" for k in range(N_STREAMS)]


def make_supervisor(seed: int, snapshot_dir: Path) -> StreamSupervisor:
    """The fleet's supervisor with all its streams registered."""
    supervisor = StreamSupervisor(
        stream_config(seed, 0),
        SupervisorPolicy(batch_drain=True, snapshot_every=SNAPSHOT_EVERY),
        snapshot_dir=snapshot_dir,
    )
    for k, name in enumerate(stream_names()):
        supervisor.add_stream(name, stream_config(seed, k))
    return supervisor


def construct(workload: str, seed: int, scratch: Path) -> object:
    """Build what a user builds before the first bag: detector or supervisor."""
    if workload == "offline_mixture":
        return BagChangePointDetector(mixture_config(seed))
    if workload in ("offline_hist", "offline_hist_sharded"):
        return BagChangePointDetector(hist_config(seed, sharded=workload == "offline_hist_sharded"))
    if workload == "stream_fleet":
        return make_supervisor(seed, scratch)
    raise ValueError(f"unknown workload {workload!r}")
