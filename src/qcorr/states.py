"""Validated quantum states over labeled tensor factors.

Index convention: subsystem 0 is the most significant index, so a basis
row index r of a state on dims (d0, d1, ...) decodes as the mixed-radix
digits (r0, r1, ...) with r0 for subsystem 0. kron() follows the same
convention (left factor most significant).

A DensityMatrix keeps the eigendecomposition its PSD check computed, the
eigenvalues as `spectrum` and the eigenvectors as `eigenvectors`, so
entropies and concurrence need no second eigendecomposition. It also
carries a private per-instance dict in which qcorr.correlations memoizes,
per measured qubit, the state's Bloch form and its conditional-entropy
minimization, so J and D on one state object share one of each. None of
these takes part in repr or ==, and the memo holds numbers only, never a
state. Two DensityMatrix (or PureState) objects are == when their dims
and entries are equal; neither is hashable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from operator import index

import numpy as np

from .exceptions import (
    BadSubsystemError,
    DimMismatchError,
    NotHermitianError,
    NotPSDError,
    QcorrError,
)
from .linalg import EIG_CLAMP, HERM_TOL, _freeze, as_square, hermiticity_defect, kron

TRACE_TOL = 1e-10
NORM_TOL = 1e-10


def _check_dims(dims, size: int) -> tuple[int, ...]:
    t = tuple(int(d) for d in dims)
    if not t or any(d < 1 for d in t):
        raise DimMismatchError(f"invalid subsystem dimensions {t}")
    if prod(t) != size:
        raise DimMismatchError(f"dims {t} do not multiply to size {size}")
    return t


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix with a subsystem dimension list.

    Construction rejects non-Hermitian matrices, trace away from 1, and
    eigenvalues below -1e-10. The eigenvalues are kept, ascending and
    read-only, as `spectrum`, and the matching orthonormal eigenvectors, as
    read-only columns, as `eigenvectors`.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=())
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)
    # measured -> the tuple that qcorr.correlations._minimize_side describes:
    # floats, BlochAngles and an int only, so no reference cycle through the state
    _minima: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_square(self.mat, "density matrix")
        dims = self.dims if self.dims else (m.shape[0],)
        dims = _check_dims(dims, m.shape[0])
        defect = hermiticity_defect(m)
        if defect > HERM_TOL:
            raise NotHermitianError(f"density matrix is not Hermitian (defect {defect:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise QcorrError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        # eigh, not eigvalsh: concurrence reads the vectors, and entropies
        # read the values, which eigvalsh's can differ from in the last bits
        evs, vecs = np.linalg.eigh(m)
        if evs[0] < -EIG_CLAMP:
            raise NotPSDError(f"density matrix has eigenvalue {evs[0]:.3e} < -{EIG_CLAMP}")
        object.__setattr__(self, "mat", _freeze(m.copy()))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", _freeze(evs))
        object.__setattr__(self, "eigenvectors", _freeze(vecs))

    def __eq__(self, other):
        # the generated == would take the truth value of an elementwise array ==
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.mat, other.mat)

    def __hash__(self):
        raise TypeError("unhashable type: 'DensityMatrix' (it wraps an ndarray)")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def subsystem_count(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class PureState:
    """A normalized state vector with a subsystem dimension list."""

    amplitudes: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(v.view(float)).all():
            raise QcorrError("state vector contains non-finite entries")
        dims = self.dims if self.dims else (v.size,)
        dims = _check_dims(dims, v.size)
        with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
            n = np.linalg.norm(v)
        if abs(n - 1.0) > NORM_TOL:
            raise QcorrError(f"state vector norm deviates from 1 by {abs(n - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _freeze(v.copy()))
        object.__setattr__(self, "dims", dims)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.amplitudes, other.amplitudes)

    def __hash__(self):
        raise TypeError("unhashable type: 'PureState' (it wraps an ndarray)")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def density_from_pure(psi: PureState) -> DensityMatrix:
    """|psi><psi| with the dims carried over."""
    v = psi.amplitudes
    return DensityMatrix(np.outer(v, v.conj()), psi.dims)


def _partial_trace_raw(mat: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(dims + dims)
    lhs = list(range(2 * n))
    for k in range(n):
        if k not in keep:
            lhs[n + k] = lhs[k]  # contract bra with ket index
    rhs = [lhs[k] for k in keep] + [lhs[n + k] for k in keep]
    out = np.einsum(t, lhs, rhs)
    d = prod(dims[k] for k in keep)
    return out.reshape(d, d)


def _integer(i, what: str = "subsystem index", error=BadSubsystemError, low=None) -> int:
    """A subsystem index, or a count, as an int: numpy integers pass, and bools,
    non-integers (which int() would truncate) and values below `low` raise `error`."""
    if isinstance(i, (bool, np.bool_)) or not hasattr(i, "__index__"):
        raise error(f"{what} must be an integer, got {i!r}")
    if low is not None and index(i) < low:
        raise error(f"{what} must be >= {low}, got {i}")
    return index(i)


def partial_trace(rho: DensityMatrix, discard) -> DensityMatrix:
    """Trace out the subsystems in `discard`, preserving factor order."""
    n = rho.subsystem_count()
    d = sorted(set(_integer(i) for i in discard))
    if not d:
        raise BadSubsystemError("discard set is empty")
    if any(i < 0 or i >= n for i in d):
        raise BadSubsystemError(f"subsystem index out of range for {n} subsystems: {d}")
    if len(d) == n:
        raise BadSubsystemError("cannot trace out every subsystem")
    keep = [k for k in range(n) if k not in d]
    reduced = _partial_trace_raw(rho.mat, rho.dims, keep)
    return DensityMatrix(reduced, tuple(rho.dims[k] for k in keep))


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]."""
    m = rho.mat
    return float(np.real(np.einsum('ij,ji->', m, m)))


def embed_local(op, target: int, dims) -> np.ndarray:
    """Identity on every factor except `target`, where `op` acts."""
    dims = tuple(int(d) for d in dims)
    m = as_square(op, "local operator")
    if not 0 <= _integer(target) < len(dims):
        raise BadSubsystemError(f"target {target} out of range for dims {dims}")
    if m.shape[0] != dims[target]:
        raise DimMismatchError(
            f"operator dim {m.shape[0]} does not match subsystem dim {dims[target]}")
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = kron(out, m if k == target else np.eye(d))
    return out


def sample_pure_state(dims, rng: np.random.Generator) -> PureState:
    """Draw one Haar-like pure state from an existing generator."""
    dims = tuple(int(d) for d in dims)
    d = prod(dims)
    re = rng.standard_normal(d)
    im = rng.standard_normal(d)
    v = re + 1j * im
    return PureState(v / np.linalg.norm(v), dims)


def random_pure_state(dims, seed: int) -> PureState:
    """Seeded random pure state: i.i.d. standard normal parts, normalized."""
    return sample_pure_state(dims, np.random.default_rng(seed))
