"""Qubit measurements and local filters.

projective_pair builds the two-outcome projective measurement along a
Bloch direction; measure_subsystem applies any POVM to one factor of a
multipartite state and returns outcome probabilities with conditional
states on the remaining factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .exceptions import (
    DimMismatchError,
    InvalidPovmError,
    OutOfRangeError,
    StateAnnihilatedError,
)
from .linalg import EIG_CLAMP, HERM_TOL, as_square, hermiticity_defect
from .states import DensityMatrix, PureState, _partial_trace_raw, embed_local

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# outcomes below this probability are flagged and skipped in entropy sums
PROB_FLOOR = 1e-12
# a filter that leaves a norm or trace below this has annihilated the state
ANNIHILATION_FLOOR = 1e-12


@dataclass(frozen=True)
class BlochAngles:
    """Measurement direction: theta in [0, pi], phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= pi:
            raise OutOfRangeError(f"theta {self.theta!r} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * pi:
            raise OutOfRangeError(f"phi {self.phi!r} outside [0, 2*pi)")

    def direction(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])


@dataclass(frozen=True)
class Povm:
    """An ordered list of PSD effects summing to the identity."""

    effects: tuple

    def __post_init__(self):
        effects = tuple(as_square(e, "effect") for e in self.effects)
        if not effects:
            raise InvalidPovmError("POVM needs at least one effect")
        d = effects[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(effects):
            if e.shape[0] != d:
                raise InvalidPovmError(f"effect {i} has dim {e.shape[0]}, expected {d}")
            if hermiticity_defect(e) > HERM_TOL:
                raise InvalidPovmError(f"effect {i} is not Hermitian")
            evs = np.linalg.eigvalsh(e)
            if evs[0] < -EIG_CLAMP:
                raise InvalidPovmError(f"effect {i} has eigenvalue {evs[0]:.3e} < 0")
            total += e
        if np.abs(total - np.eye(d)).max() > HERM_TOL:
            raise InvalidPovmError("effects do not sum to the identity")
        for e in effects:
            e.setflags(write=False)
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


@dataclass(frozen=True)
class MeasurementOutcome:
    """One POVM outcome: probability plus the conditional remote state.

    zero_probability marks outcomes with p below PROB_FLOOR; those carry
    no conditional state and are excluded from conditional-entropy sums.
    """

    probability: float
    conditional_state: DensityMatrix | None
    zero_probability: bool = False


def projective_pair(angles: BlochAngles) -> Povm:
    """The qubit projector pair (1 +/- n.sigma)/2 along the Bloch direction."""
    n = angles.direction()
    p = 0.5 * (np.eye(2, dtype=complex) + n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
    return Povm((p, np.eye(2, dtype=complex) - p))


def measure_subsystem(rho: DensityMatrix, povm: Povm, target: int) -> list[MeasurementOutcome]:
    """Apply a POVM to one subsystem; conditional states live on the rest."""
    keep = [k for k in range(rho.subsystem_count()) if k != target]
    out = []
    for effect in povm.effects:
        big = embed_local(effect, target, rho.dims)  # checks the target and the POVM's dim
        unnormalized = _partial_trace_raw(big @ rho.mat, rho.dims, keep)
        p = float(np.real(unnormalized.trace()))
        if p < PROB_FLOOR:
            out.append(MeasurementOutcome(max(p, 0.0), None, zero_probability=True))
            continue
        cond = unnormalized / p
        cond = 0.5 * (cond + cond.conj().T)  # strip float-level asymmetry
        out.append(MeasurementOutcome(p, DensityMatrix(cond, tuple(rho.dims[k] for k in keep))))
    return out


def conditional_entropy(rho: DensityMatrix, povm: Povm, measured: int) -> float:
    """sum_i p_i S(rho_rest|i) over outcomes with nonnegligible probability."""
    from .entropy import von_neumann_entropy

    total = 0.0
    for oc in measure_subsystem(rho, povm, measured):
        if oc.zero_probability:
            continue
        total += oc.probability * von_neumann_entropy(oc.conditional_state)
    return total


def _transform(state, m: np.ndarray):
    """m applied to the state and renormalized; the same kind of state comes back."""
    if isinstance(state, PureState):
        vec = m @ state.amplitudes
        n = np.linalg.norm(vec)
        if n < ANNIHILATION_FLOOR:
            raise StateAnnihilatedError(
                f"filter annihilated the state (norm < {ANNIHILATION_FLOOR:g})")
        return PureState(vec / n, state.dims)
    mat = m @ state.mat @ m.conj().T
    tr = float(np.real(mat.trace()))
    if tr < ANNIHILATION_FLOOR:
        raise StateAnnihilatedError(
            f"filter annihilated the state (trace < {ANNIHILATION_FLOOR:g})")
    mat = mat / tr
    return DensityMatrix(0.5 * (mat + mat.conj().T), state.dims)


def apply_filter(state, k, target: int):
    """Apply operator k to one subsystem and renormalize.

    Accepts a PureState or DensityMatrix and returns the same kind.
    k need not be unitary; density matrices map as K rho K+ / Tr[...].
    """
    m = as_square(k, "filter")
    if not isinstance(state, (PureState, DensityMatrix)):
        raise DimMismatchError(f"unsupported state type {type(state).__name__}")
    return _transform(state, embed_local(m, target, state.dims))


def apply_global_operator(state, k):
    """Like apply_filter, but k acts on the full Hilbert space directly."""
    m = as_square(k, "operator")
    if not isinstance(state, (PureState, DensityMatrix)):
        raise DimMismatchError(f"unsupported state type {type(state).__name__}")
    if m.shape[0] != state.dim:
        raise DimMismatchError(f"operator dim {m.shape[0]} vs state dim {state.dim}")
    return _transform(state, m)
