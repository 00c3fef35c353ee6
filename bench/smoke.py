"""Smoke test of the benchmark itself: schema, metric names, and the failure path.

    python3 bench/smoke.py

Checks BENCHMARK.json against the benchmark contract, makes a tiny run
(--seconds 1) of every workload with tracing off and on, and checks that the
last stdout line is the result object with exactly the declared metrics and
units. Finally copies only BENCHMARK.json and bench/*.py into a scratch
directory under bench/out and checks that the benchmark exits non-zero there
without printing a result. Exit code 0 when everything holds.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_spec(spec: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"keys {sorted(spec)} != {sorted(keys)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number in 1..60")
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errors.append("command may not leave the repository")
    for p in spec["paths"]:
        if not PATH.fullmatch(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
    if not 1 <= len(spec["paths"]) <= 16:
        errors.append("1 to 16 paths")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: needs exactly name and a one-line why <= 200")
    for group, allowed in (("end_to_end", {"name", "unit", "better", "bound"}),
                           ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            names.append(m["name"])
            if set(m) != allowed:
                errors.append(f"{group} {m['name']}: keys {sorted(m)}")
            if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
                errors.append(f"{group} {m['name']}: bad unit or better")
    for n in names:
        if not NAME.fullmatch(n):
            errors.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        errors.append("names must be unique")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("1..16 end_to_end and 1..128 per_layer metrics")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        errors.append("bounds must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s with unit s and better lower is required")
    elif setup[0]["bound"] < max(bounds.values()):
        errors.append("setup_s must have the largest bound")
    if len((ROOT / "BENCHMARK.json").read_bytes()) > 64 * 1024:
        errors.append("BENCHMARK.json over 64 KiB")
    return errors


def check_result(line: str, expected: dict[str, str]) -> list[str]:
    try:
        result = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        errors.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    if result["failed"] != 0:
        errors.append(f"failed = {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            errors.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{name}: value {m['value']!r} is not a finite number")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            proc = subprocess.run(spec["command"] + ["--workload", w["name"], "--seed", "1",
                                                     "--seconds", "1", "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            errs = check_result(lines[-1] if lines else "", expected)
            if proc.returncode != 0:
                errs.append(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
            errors += [f"{w['name']} trace={trace}: {e}" for e in errs]
            print(f"{w['name']} trace={trace}: {'ok' if not errs else 'FAIL'}", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("without the source tree the benchmark must fail and print no result")
    print(f"bare directory: exit {proc.returncode}")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
