"""The traced benchmark's span counts, checked against array growth points.

bench/tracer.py appends every span to typed arrays before it reads the root
span's start time. When a unit's root span lands on an array growth point,
the copy falls outside every span, and the bench's self-sum check can read a
gap and fail the run. Each workload makes a constant number k of spans per
unit, so unit u's root span is span number u * k: no multiple of k may be a
growth point large enough for its copy to matter. The bench files are read,
never changed.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qcorr
import qcorr.cli  # noqa: F401  (the scenario workload runs the CLI in process)

ROOT = Path(__file__).resolve().parents[1]
# growth points below this copy arrays too short for the check to notice
GROWTH_FLOOR = 20_000


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def growth_points(cap: int) -> list[int]:
    """Lengths at which CPython's array grows on append, below cap."""
    n, points = 0, []
    while n < cap:
        points.append(n)
        n = ((n + 1) >> 4) + (3 if n < 8 else 7) + n + 1
    return points


@pytest.mark.parametrize("workload", ["pairs", "audit", "scenario", "spectra"])
def test_spans_per_unit_miss_every_growth_point(workload, tmp_path):
    tracer_mod, workloads, run = (_bench_module(n) for n in ("tracer", "workloads", "run"))
    # pairs and spectra write their cold-run input under root; scenario reads the golden
    root = ROOT if workload == "scenario" else tmp_path
    wl = workloads.WORKLOADS[workload](qcorr, np.random.default_rng(1), root, tmp_path)
    wl.unit(wl.cycle[0])  # warm-up, untraced, as the bench does
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        for unit in range(2):
            with tracer.unit_span(unit):
                wl.unit(wl.cycle[unit % len(wl.cycle)])
    counts = [list(tracer.unit_of).count(unit) for unit in range(2)]
    k = counts[0]
    assert counts == [k, k]
    points = growth_points(run.SPAN_CAP)
    # the recorded refusals: 33 spans per pairs unit put unit 975 on 32,175,
    # and 78 per audit unit put unit 713 on 55,614
    assert {32_175, 55_614} <= set(points)
    hits = [p for p in points if p >= GROWTH_FLOOR and p % k == 0]
    assert hits == [], f"{workload}: {k} spans per unit put unit {hits[0] // k} on {hits[0]}"
