"""A/A check: two interleaved sets of benchmark runs on the same commit.

Run from the repository root:

    python3 perfbench/aa.py --seeds 10 --out perfbench/out/aa.json

For every seed, each workload of ``BENCHMARK.json`` runs once per side
for ``run_seconds``, sides alternating which goes first.  For each
metric × workload the report prints both sides' medians, each side's
interquartile spread as a share of its median, and whether the two
sides agree within the metric's bound: both spreads within the bound,
and the medians apart by at most the bound, as a share of side A's, in
either direction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import stats


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "exit": done.returncode, "wall_s": time.monotonic() - start}
    if done.returncode != 0 or not lines:
        record["error"] = (done.stderr or done.stdout)[-2000:]
        return record
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("extra: "):
            metrics.update({k: v["value"] for k, v in json.loads(line[len("extra: "):]).items()})
    record.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"], metrics=metrics)
    return record


def change(a: float, b: float) -> float:
    """Side B's median relative to side A's: ``(b - a) / a``."""
    return (b - a) / a if a else (0.0 if b == a else float("inf"))


def agree(a: Sequence[float], b: Sequence[float], bound: float) -> bool:
    """Both spreads within ``bound`` and the medians within ``bound`` of each other."""
    spreads = (stats.quartile_spread(a), stats.quartile_spread(b))
    return max(spreads) <= bound and abs(change(stats.median(a), stats.median(b))) <= bound


def report(records: List[dict], bench: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: Dict[tuple, List[float]] = {}
    ok = True
    for r in records:
        if r.get("exit") != 0 or not r.get("correct"):
            print(f"FAILED RUN: {r['workload']} seed={r['seed']} side={r['side']} exit={r.get('exit')}")
            ok = False
            continue
        for name, value in r["metrics"].items():
            values.setdefault((r["workload"], name, r["side"]), []).append(value)
    print(f"{'workload':16} {'metric':22} {'bound':>6} {'median A':>10} {'median B':>10} {'spread A':>8} {'spread B':>8} {'B vs A':>7}  verdict")
    for workload, name in sorted({(w, n) for w, n, _ in values}):
        a, b = values.get((workload, name, "A"), []), values.get((workload, name, "B"), [])
        if len(a) < 2 or len(b) < 2:
            continue
        moved = change(stats.median(a), stats.median(b))
        verdict = "(not gated)"
        if name in bounds:
            within = agree(a, b, bounds[name])
            verdict = "AGREE" if within else "DISAGREE"
            ok = ok and within
        print(
            f"{workload:16} {name:22} {bounds.get(name, '-'):>6} {stats.median(a):10.5g} {stats.median(b):10.5g} "
            f"{stats.quartile_spread(a):8.3f} {stats.quartile_spread(b):8.3f} {moved:+7.3f}  {verdict}"
        )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("perfbench/out/aa.json"))
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    records: List[dict] = []
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in (w["name"] for w in bench["workloads"]):
            for side in "AB" if seed % 2 else "BA":
                record = run_once(bench["command"], workload, seed, bench["run_seconds"])
                record["side"] = side
                records.append(record)
                args.out.write_text(json.dumps(records, indent=1))
                print(f"ran {workload} seed={seed} side={side} exit={record['exit']} in {record['wall_s']:.1f}s", file=sys.stderr)
    return 0 if report(records, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
