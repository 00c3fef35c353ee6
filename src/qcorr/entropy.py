"""Entropic functionals. All logarithms are base 2; results are in bits."""
from __future__ import annotations

import numpy as np

from .exceptions import NotPSDError, OutOfRangeError
from .linalg import EIG_CLAMP
from .states import DensityMatrix, partial_trace

# binary_entropy tolerates this much float drift past the [0, 1] endpoints
PROB_SLOP = 1e-12


def entropy_of_spectrum(eigenvalues) -> float:
    """-sum(p log2 p) with 0 log 0 = 0 and tiny negatives clamped to zero."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.min() < -EIG_CLAMP:
        raise NotPSDError(f"spectrum has eigenvalue {w.min():.3e} < -{EIG_CLAMP}")
    w = np.clip(w, 0.0, None)
    pos = w[w > 0.0]
    return 0.0 - float((pos * np.log2(pos)).sum())  # 0.0 - 0.0 is +0.0, not -0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr[rho log2 rho] in bits, from the spectrum kept by rho."""
    return entropy_of_spectrum(rho.spectrum)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x); endpoints give 0."""
    x = float(x)
    if not -PROB_SLOP <= x <= 1.0 + PROB_SLOP:
        raise OutOfRangeError(f"binary_entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def mutual_information(rho: DensityMatrix, cut) -> float:
    """I_q across the cut: S(rho_cut) + S(rho_rest) - S(rho)."""
    cut = list(cut)  # read once; tracing it out first validates it
    s_b = von_neumann_entropy(partial_trace(rho, cut))
    s_a = von_neumann_entropy(partial_trace(rho, [k for k in range(len(rho.dims)) if k not in cut]))
    return s_a + s_b - von_neumann_entropy(rho)
