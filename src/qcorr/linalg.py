"""Dense complex matrix helpers and the Hermiticity and PSD tolerances.

All qcorr operators are small (dim <= 8) dense complex matrices, so
everything here wraps numpy directly. Arrays a state keeps are
write-protected with _freeze.
"""
from __future__ import annotations

import numpy as np

from .exceptions import DimMismatchError, QcorrError

HERM_TOL = 1e-10
# eigenvalues in [-EIG_CLAMP, 0) are treated as exact zeros; below is an error
EIG_CLAMP = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m.view(float)).all():
        raise QcorrError(f"{name} contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product; the left factor is the most significant index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def frobenius_distance(a, b) -> float:
    """sqrt(sum |a_ij - b_ij|^2)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(a) -> float:
    """Largest entrywise deviation of a from its conjugate transpose."""
    a = np.asarray(a, dtype=complex)
    return float(np.abs(a - a.conj().T).max())
