"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--held-out 11-20]

Runs bench/run.py once per seed and workload (trace off), then prints for
each metric the median and the quartile spread, (Q3 - Q1) / median with
quartiles from statistics.quantiles(values, n=4). A spread above a third of
the metric's bound is flagged. With --held-out, a second set of seeds is run
and its medians are compared to the first: a held-out median worse by more
than the bound is flagged. Exit code 1 if anything is flagged or a run fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec: dict, workload: str, seeds: list[int]) -> dict[str, list[float]] | None:
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        proc = subprocess.run(spec["command"] + ["--workload", workload, "--seed", str(seed),
                                                 "--seconds", str(spec["run_seconds"]),
                                                 "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return None
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--held-out", type=seed_range, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    flagged = 0
    for workload in workloads:
        first = run_set(spec, workload, args.seeds)
        second = run_set(spec, workload, args.held_out) if first and args.held_out else None
        if first is None or (args.held_out and second is None):
            flagged += 1
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            s = spread(first[name])
            line = (f"{workload:9} {name:16} median {statistics.median(first[name]):10.4g} "
                    f"{m['unit']:5} spread {s:6.3f} (bound {bound})")
            bad = name != "setup_s" and s > bound / 3
            if second:
                w = worse_by(statistics.median(first[name]), statistics.median(second[name]),
                             m["better"])
                line += f"  held-out spread {spread(second[name]):6.3f}, worse by {w:+.3f}"
                bad = bad or w > bound
            flagged += bad
            print(line + ("  <-- FLAG" if bad else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
