"""Host speed, measured beside the benchmark's work by fixed reference work.

The benchmark runs on shared hosts whose speed drifts by a third or more
over seconds to minutes. Process CPU time drifts with the wall time, so the
slowdown is slower execution, not time taken away from the process, and no
statistic within one run can remove a slowdown that lasts the whole run.

So fixed reference work is timed next to the measured work, and each
measured time is scaled to the speed of a reference host:

    scaled = measured * reference seconds on that host / reference seconds now

Two references are used, each like the work it scales:
- In-process units are scaled by Speed.kernel(): 4x4 complex Hermitian
  eigendecompositions, products and a Kronecker product under Python glue,
  the same kind of work as qcorr's, timed between blocks of units.
- Fresh processes are scaled by a fresh `python -c pass` run just before
  and just after each one (FRESH_REFERENCE_ARGV). Process start-up and
  imports slow down less than numeric work when the host is busy, so the
  kernel over-corrects them. On the reference host, medians of 8 cold runs
  taken at different times spread (quartile distance / median) by 0.24
  unscaled, 0.05 scaled by the kernel and 0.03 scaled by this reference;
  `python -c "import numpy"` did no better and costs three times as much.

Neither reference imports qcorr, so a change to qcorr moves the scaled
figures and a change in host speed mostly does not.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# seconds each reference takes on the reference host, a 2-vCPU Xeon VM;
# scaled times are the times that host would show at that speed
REFERENCE_S = 0.008
FRESH_REFERENCE_S = 0.05
FRESH_REFERENCE_ARGV = ["-c", "pass"]
ITERATIONS = 150


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: the kernel is the same in every run
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h = g @ g.conj().T
        self.samples: list[float] = []
        self.kernel()  # warm-up, not kept
        self.samples.clear()

    def kernel(self) -> float:
        """Run the kernel once; return and record its seconds."""
        h = self.h
        t0 = perf_counter()
        for _ in range(ITERATIONS):
            w, v = np.linalg.eigh(h)
            m = (v * w) @ v.conj().T
            float(np.trace(m).real)
            np.kron(m[:2, :2], m[2:, 2:])
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def factor(kernel_seconds: list[float]) -> float:
        """Scale factor for a time measured between these kernel runs."""
        return REFERENCE_S / statistics.median(kernel_seconds)

    @staticmethod
    def fresh_factor(reference_seconds: list[float]) -> float:
        """Scale factor for a fresh process run between these reference runs."""
        return FRESH_REFERENCE_S / statistics.mean(reference_seconds)
