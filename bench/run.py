"""qcorr benchmark: one closed-loop caller, one workload per invocation.

    python3 bench/run.py --workload {scenario,audit,pairs,spectra} \
        --seed N --seconds S --trace {0,1}

Run from the repository root or anywhere else: the package is imported from
src/ next to this directory. Each unit starts only after the previous one
returned; no threads are started, QCORR_THREADS is removed from the
environment, the BLAS thread variables are set to 1, and the process is
pinned to one CPU, for itself and the fresh processes it starts. Inputs come
from the seed only.

--trace 0 measures the end-to-end metrics with no tracing. For --seconds it
runs passes over the workload's input cycle, with fresh-interpreter imports
(setup_s) and fresh-process CLI runs (cold_s) spread between them. Every
time is scaled to a reference host's speed by a fixed kernel timed beside it
(speed.py); the unscaled figures are in the detail line. units_per_s,
latency_p50_ms and latency_tail_ms come from each input's median time over
the passes; setup_s and cold_s are medians. peak_rss_mb is the process's
peak memory.
--trace 1 alternates untraced and traced passes for --seconds and reports the
per-layer metrics, the tracing overhead, and per-module import times.

Every unit's output is checked. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the details (environment, sample counts, tail percentile, failures). Any
failed check makes the exit code 1; a missing source tree makes it 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5   # fresh `import qcorr` runs per invocation
COLD_SAMPLES = 8    # fresh-process CLI runs per invocation
BLOCK_S = 0.1       # unit seconds between two speed-kernel runs
IMPORT_SAMPLES = 3  # `-X importtime` runs per traced invocation
TAIL_BEYOND = 10    # samples that must lie beyond the reported tail percentile
# a unit's span self times must sum to its wall time within this share plus this many s
SELF_SUM_REL = 0.05
SELF_SUM_ABS = 1e-4
SPAN_CAP = 200_000  # stop adding traced passes past this many spans
SUBPROCESS_TIMEOUT = 60
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
QCORR_MODULES = ("cli", "correlations", "entropy", "exceptions", "linalg", "measurement",
                 "report", "scenario", "state_io", "states")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCORR_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def fresh(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter from the repository root; return (wall s, result)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=SUBPROCESS_TIMEOUT)
    return perf_counter() - t0, proc


# -- environment -----------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    """HEAD of ROOT/.git read as files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcorr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, inherited: dict, inherited_cpus: set[int]) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(inherited_cpus),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "QCORR_THREADS": os.environ.get("QCORR_THREADS"),
        "inherited": inherited,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


# -- timed loop -----------------------------------------------------------------

class Loop:
    """Whole passes over a workload's input cycle; one unit at a time."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []

    def one(self, item, tracer=None, unit_index=-1) -> float:
        """Run and check one unit; return its wall seconds (check excluded)."""
        self.attempted += 1
        errors = []
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.wl.unit(item)
            else:
                with tracer.unit_span(unit_index):
                    result = self.wl.unit(item)
        except Exception as exc:  # a raising unit is a failed unit
            wall = perf_counter() - t0
            errors.append(f"unit raised {type(exc).__name__}: {exc}")
        else:
            wall = perf_counter() - t0
            try:
                errors = self.wl.check(item, result)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            self.failures.append("; ".join(errors))
        return wall

    def one_pass(self, tracer=None, first_unit=0) -> list[float]:
        return [self.one(item, tracer, first_unit + k) for k, item in enumerate(self.wl.cycle)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest order statistic with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:  # too few samples: the maximum stands in
        return 100.0, xs[-1]
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, xs[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- end-to-end run (--trace 0) ---------------------------------------------------

def median_per_input(passes: list[list[float]]) -> list[float]:
    """Each input's median time over the run's passes; the first pass is whole."""
    cols: list[list[float]] = [[] for _ in passes[0]]
    for times in passes:
        for col, t in zip(cols, times):
            col.append(t)
    return [statistics.median(col) for col in cols]


def scaled_pass(loop: Loop, speed, last: float,
                deadline: float = float("inf")) -> tuple[list[float], list[float], float]:
    """One pass, with the speed kernel run after every block of BLOCK_S of units.

    Each unit's time is scaled by the kernel runs just before and just after
    its block. `last` is the kernel time just before the pass. The pass stops
    early after the first block that ends past `deadline`. Returns the raw
    times, the scaled times and the last kernel time.
    """
    raw: list[float] = []
    scaled: list[float] = []
    block: list[float] = []
    cycle = loop.wl.cycle
    for k, item in enumerate(cycle):
        block.append(loop.one(item))
        if sum(block) >= BLOCK_S or k == len(cycle) - 1:
            now = speed.kernel()
            f = speed.factor([last, now])
            raw += block
            scaled += [w * f for w in block]
            block, last = [], now
            if perf_counter() > deadline:
                break
    return raw, scaled, last


class FreshSamples:
    """Fresh-interpreter `import qcorr` and cold CLI runs, checked and scaled.

    Each fresh process runs between two fresh reference processes
    (speed.FRESH_REFERENCE_ARGV), and its wall time is scaled by their mean.
    """

    def __init__(self, q, wl, loop: Loop, speed):
        from workloads import run_cli
        self.wl, self.loop, self.speed = wl, loop, speed
        self.code, self.reference = run_cli(q, wl.cold_argv)
        self.setup: list[float] = []
        self.cold: list[float] = []
        self.setup_raw: list[float] = []
        self.cold_raw: list[float] = []
        self.reference_s: list[float] = []
        fresh(["-c", "import qcorr"])  # untimed: compile bytecode, warm the page cache

    def _bracketed(self, argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        """(scaled s, wall s, result) of one fresh process."""
        from speed import FRESH_REFERENCE_ARGV
        before, ref = fresh(FRESH_REFERENCE_ARGV)
        wall, proc = fresh(argv)
        after, ref_after = fresh(FRESH_REFERENCE_ARGV)
        if ref.returncode or ref_after.returncode:
            raise RuntimeError(f"reference process failed: {ref.stderr.decode(errors='replace')}")
        self.reference_s += [before, after]
        return wall * self.speed.fresh_factor([before, after]), wall, proc

    def take(self):
        if len(self.setup) < SETUP_SAMPLES:
            scaled, wall, proc = self._bracketed(["-c", "import qcorr"])
            if proc.returncode != 0:
                raise RuntimeError(f"`import qcorr` failed: {proc.stderr.decode(errors='replace')}")
            self.setup.append(scaled)
            self.setup_raw.append(wall)
        scaled, wall, proc = self._bracketed(["-m", "qcorr"] + self.wl.cold_argv)
        self.loop.attempted += 1
        errors = self.wl.check_cold(proc.stdout)
        if proc.returncode != 0 or self.code != 0:
            errors.append(f"cold run exited {proc.returncode} (in-process {self.code})")
        if proc.stdout != self.reference.encode("utf-8"):
            errors.append("cold run stdout differs from the in-process run")
        if errors:
            self.loop.failures.append("cold: " + "; ".join(errors))
        self.cold.append(scaled)
        self.cold_raw.append(wall)


def end_to_end(q, wl, loop: Loop, seconds: float) -> tuple[dict, dict]:
    from speed import FRESH_REFERENCE_S, REFERENCE_S, Speed
    speed = Speed()
    samples = FreshSamples(q, wl, loop, speed)
    loop.one(wl.cycle[0])  # warm-up: lazy imports and caches are filled before timing
    raw_passes: list[list[float]] = []
    passes: list[list[float]] = []
    t0 = perf_counter()
    last = speed.kernel()
    while not passes or perf_counter() - t0 < seconds:
        # fresh-process samples are spread evenly through the run
        if perf_counter() - t0 >= seconds * len(samples.cold) / COLD_SAMPLES:
            samples.take()
            last = speed.kernel()  # the host may have changed speed meanwhile
        raw, scaled, last = scaled_pass(loop, speed, last, t0 + seconds if passes else float("inf"))
        raw_passes.append(raw)
        passes.append(scaled)
    while len(samples.cold) < COLD_SAMPLES:
        samples.take()
    per_input = median_per_input(passes)
    pct, tail_s = tail(per_input)
    raw_per_input = median_per_input(raw_passes)
    metrics = {
        "setup_s": metric(statistics.median(samples.setup), "s"),
        "cold_s": metric(statistics.median(samples.cold), "s"),
        "units_per_s": metric(len(per_input) / sum(per_input), "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(per_input), "ms"),
        "latency_tail_ms": metric(1e3 * tail_s, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    detail = {
        "samples": {"setup_s": len(samples.setup), "cold_s": len(samples.cold),
                    "passes": len(passes), "inputs": len(per_input),
                    "units": sum(map(len, passes)), "speed_kernels": len(speed.samples)},
        "statistics": {"setup_s": "median", "cold_s": "median",
                       "latency": "per input, median over passes",
                       "times": "scaled to the reference host's speed (bench/speed.py)"},
        "latency_tail_percentile": pct,
        "speed": {"reference_kernel_s": REFERENCE_S,
                  "kernel_s_median": statistics.median(speed.samples),
                  "kernel_s_quartiles": statistics.quantiles(speed.samples, n=4),
                  "reference_fresh_s": FRESH_REFERENCE_S,
                  "fresh_s_median": statistics.median(samples.reference_s)},
        "unscaled": {"setup_s": statistics.median(samples.setup_raw),
                     "cold_s": statistics.median(samples.cold_raw),
                     "units_per_s": len(raw_per_input) / sum(raw_per_input),
                     "latency_p50_ms": 1e3 * statistics.median(raw_per_input),
                     "latency_tail_ms": 1e3 * tail(raw_per_input)[1]},
        "setup_s_all": samples.setup,
        "cold_s_all": samples.cold,
        "cold_argv": ["python", "-m", "qcorr"] + wl.cold_argv,
    }
    return metrics, detail


# -- traced run (--trace 1) ---------------------------------------------------------

def best_per_input(passes: list[list[float]]) -> list[float]:
    """Each input's fastest time over the run's passes."""
    return [min(col) for col in zip(*passes)]


def import_times() -> dict[str, list[float]]:
    """Per-module import ms from `python -X importtime -c 'import qcorr.cli'`."""
    cumulative = {"qcorr": "import.qcorr.ms", "numpy": "import.numpy.ms",
                  "scipy.optimize": "import.scipy.optimize.ms"}
    own = {"qcorr": "import.qcorr.self_ms"}
    own.update({f"qcorr.{m}": f"import.qcorr.{m}.self_ms" for m in QCORR_MODULES})
    samples: dict[str, list[float]] = {k: [] for k in [*cumulative.values(), *own.values()]}
    for _ in range(IMPORT_SAMPLES):
        _, proc = fresh(["-X", "importtime", "-c", "import qcorr.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"`import qcorr` failed: {proc.stderr.decode(errors='replace')}")
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = (part.strip() for part in line[12:].split("|"))
            if name in cumulative:
                samples[cumulative[name]].append(float(cum_us) / 1e3)
            if name in own:
                samples[own[name]].append(float(self_us) / 1e3)
    return samples


def per_layer(q, wl, loop: Loop, seconds: float, oracle: list[float]) -> tuple[dict, dict]:
    from tracer import Tracer
    tracer = Tracer()
    loop.one(wl.cycle[0])  # warm-up
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    walls: dict[int, float] = {}
    t0 = perf_counter()
    with tracer.installed():
        while not traced or (perf_counter() - t0 < seconds and len(tracer) < SPAN_CAP):
            # alternate whole untraced and traced passes so both see the same load
            plain.append(loop.one_pass())
            traced.append(loop.one_pass(tracer, len(walls)))
            walls.update({len(walls) + k: w for k, w in enumerate(traced[-1])})
    summary = tracer.summarize()
    tracer.write_spans(OUT / f"spans-{wl.name}.jsonl.gz")
    # self times must tile each unit: spans nest, and nothing escapes the root span
    unit_self = summary["unit_self_s"]
    gaps = [abs(unit_self.get(u, 0.0) - w) for u, w in walls.items()]
    bad = sum(g > SELF_SUM_REL * w + SELF_SUM_ABS for g, w in zip(gaps, walls.values()))
    if bad or summary["min_self_s"] < -1e-9:
        loop.failures.append(f"trace: self times of {bad} units miss their wall time "
                             f"(worst gap {1e3 * max(gaps):.3f} ms, "
                             f"min self {summary['min_self_s']:.3e} s)")
    wall_s = sum(walls.values())

    by = summary["by_name"]
    n = len(walls)

    def calls(*names):
        return sum(by.get(k, {}).get("calls", 0) for k in names) / n

    def ms(key, *names):
        return 1e3 * sum(by.get(k, {}).get(key, 0.0) for k in names) / n

    refines = tracer.refines
    nref = len(refines)
    m = {
        "correlations.refine.calls": metric(nref / n, "count"),
        "correlations.refine.ms": metric(ms("s", "correlations.refine"), "ms"),
        "correlations.refine.objective_ms": metric(
            1e3 * sum(r.objective_s for r in refines) / n, "ms"),
        "correlations.refine.nfev": metric(sum(r.nfev for r in refines) / n, "count"),
        "correlations.refine.nit": metric(sum(r.nit for r in refines) / n, "count"),
        "correlations.refine.converged_ratio": metric(
            sum(r.converged for r in refines) / nref if nref else 0.0, "ratio"),
        "correlations.refine.improved_ratio": metric(
            sum(r.improved for r in refines) / nref if nref else 0.0, "ratio"),
        "correlations.directional.calls": metric(
            calls("correlations.classical_correlation", "correlations.discord"), "count"),
        "correlations.directional.self_ms": metric(
            ms("self_s", "correlations.classical_correlation", "correlations.discord"), "ms"),
        "correlations.directional.evals": metric(sum(
            by.get(k, {}).get("evals", 0)
            for k in ("correlations.classical_correlation", "correlations.discord")) / n, "count"),
        "correlations.concurrence.calls": metric(calls("correlations.concurrence"), "count"),
        "correlations.concurrence.self_ms": metric(ms("self_s", "correlations.concurrence"), "ms"),
        "correlations.eof_two_qubits.self_ms": metric(
            ms("self_s", "correlations.eof_two_qubits"), "ms"),
        "correlations.kw_audit.self_ms": metric(ms("self_s", "correlations.kw_audit"), "ms"),
        "entropy.von_neumann_entropy.calls": metric(calls("entropy.von_neumann_entropy"), "count"),
        "entropy.von_neumann_entropy.self_ms": metric(
            ms("self_s", "entropy.von_neumann_entropy"), "ms"),
        "entropy.mutual_information.calls": metric(calls("entropy.mutual_information"), "count"),
        "entropy.mutual_information.self_ms": metric(
            ms("self_s", "entropy.mutual_information"), "ms"),
        "linalg.eig_hermitian.calls": metric(calls("linalg.eig_hermitian"), "count"),
        "linalg.psd_sqrt.calls": metric(calls("linalg.psd_sqrt"), "count"),
        "states.partial_trace.calls": metric(calls("states.partial_trace"), "count"),
        "states.partial_trace.self_ms": metric(ms("self_s", "states.partial_trace"), "ms"),
        "states.density_from_pure.self_ms": metric(ms("self_s", "states.density_from_pure"), "ms"),
        "state_io.parse_state.self_ms": metric(ms("self_s", "state_io.parse_state"), "ms"),
        "scenario.build_report.self_ms": metric(ms("self_s", "scenario.build_report"), "ms"),
        "scenario.acceptance_checks.ms": metric(ms("s", "scenario.acceptance_checks"), "ms"),
        "report.render.ms": metric(
            ms("s", "report.reproduce_json", "report.reproduce_csv", "report.report_table"), "ms"),
        "cli.main.self_ms": metric(ms("self_s", "cli.main"), "ms"),
        "unit.self_ms": metric(ms("self_s", "unit"), "ms"),
    }
    m["correlations.discord_oracle_grid.ms"] = metric(
        1e3 * statistics.median(oracle) if oracle else 0.0, "ms")
    for key, values in import_times().items():
        m[key] = metric(statistics.median(values) if values else 0.0, "ms")

    plain_best, traced_best = best_per_input(plain), best_per_input(traced)
    plain_ups = len(plain_best) / sum(plain_best)
    traced_ups = len(traced_best) / sum(traced_best)
    m["trace.untraced_units_per_s"] = metric(plain_ups, "1/s")
    m["trace.units_per_s"] = metric(traced_ups, "1/s")
    m["trace.overhead_ratio"] = metric(1.0 - traced_ups / plain_ups, "ratio")
    m["trace.self_sum_ratio"] = metric(sum(unit_self.values()) / wall_s, "ratio")
    m["trace.spans_per_unit"] = metric(len(tracer) / n, "count")
    detail = {"samples": {"traced_units": n, "passes_each": len(plain),
                          "import": IMPORT_SAMPLES, "oracle": len(oracle)},
              "worst_unit_self_sum_gap_ms": 1e3 * max(gaps),
              "spans": len(tracer)}
    return m, detail


# -- main ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenario", "audit", "pairs", "spectra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (SRC / "qcorr" / "__init__.py", ROOT / "tests" / "golden" / "reproduce.json")
    missing = [p for p in needed if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a qcorr checkout",
              file=sys.stderr)
        return 2
    inherited = {v: os.environ.get(v) for v in ("QCORR_THREADS",) + BLAS_VARS}
    inherited_cpus = os.sched_getaffinity(0)
    os.environ.pop("QCORR_THREADS", None)
    # one BLAS thread: on these tiny matrices OpenBLAS workers gain nothing and
    # spin a second core at full load, which disturbs every timing
    os.environ.update({v: "1" for v in BLAS_VARS})
    # one CPU for this process and the fresh processes it starts: on a shared
    # host each CPU's speed drifts on its own, so the speed kernel (speed.py)
    # must run on the CPU that runs the measured work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import qcorr as q
    import qcorr.cli  # noqa: F401  (not imported by the package itself)
    from workloads import WORKLOADS

    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](q, np.random.default_rng(args.seed), ROOT, work)
    loop = Loop(wl)
    pre_errors, oracle = wl.precheck()
    loop.attempted += len(oracle)
    loop.failures += pre_errors

    if args.trace == 0:
        metrics, detail = end_to_end(q, wl, loop, args.seconds)
    else:
        metrics, detail = per_layer(q, wl, loop, args.seconds, oracle)
    detail.update({"fail_ratio": len(loop.failures) / loop.attempted,
                   "workload": wl.name, "unit_size": wl.unit_size,
                   "inputs_per_pass": len(wl.cycle), "loop": "closed, 1 caller, no threads",
                   "trace": args.trace, "seconds": args.seconds,
                   "environment": environment(args.seed, inherited, inherited_cpus),
                   "failures": loop.failures[:20]})
    for msg in loop.failures[:20]:
        print(f"FAIL {wl.name}: {msg}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0 if not loop.failures else 1


if __name__ == "__main__":
    sys.exit(main())
