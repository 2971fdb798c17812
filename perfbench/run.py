"""End-to-end benchmark of the bag-of-data change-point detector.

Run from the repository root (the library is imported from ``src/``):

    python3 perfbench/run.py --workload offline_mixture --seed 1 --seconds 25 --trace 0

Every line but the last is a human-readable report: each metric with its
unit and sample count, the solver-route counts and the correctness
gates.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("offline_mixture", "offline_hist", "offline_hist_sharded", "stream_fleet")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop every process the run started, and wait for each to end.

    The library's process workers are joined by the library, but the
    shared memory they read starts multiprocessing's resource tracker,
    which would otherwise outlive this process until it sees the exit.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found; run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    import workloads

    try:
        outcome = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit, n) in {**outcome.metrics, **outcome.extra}.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"metric fail_frac = {outcome.failed / max(1, outcome.attempted):.6g} frac (n={outcome.attempted})")
    for note in outcome.notes:
        print(note)
    for name, passed, detail in outcome.gates:
        print(f"gate {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    print(f"extra: {json.dumps({k: {'value': v, 'unit': u, 'n': n} for k, (v, u, n) in outcome.extra.items()})}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
