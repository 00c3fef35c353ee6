"""Property tests of the Koashi-Winter floor on rank <= 2 states.

By Koashi and Winter (PRA 69, 022309, 2004), E_F(rho_uP) of a rank <= 2
pair rho_uM and its qubit purification P is the minimum conditional entropy
over all POVMs on M, so no projective minimum may lie below it.
"""
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qcorr import DensityMatrix, PureState, density_from_pure, kron, partial_trace
from qcorr.correlations import _bloch_form, _kw_floor, _min_conditional_entropy, _minimize_side


def euler_unitary(a: float, b: float, c: float) -> np.ndarray:
    """Rz(a) Ry(b) Rz(c)."""
    ca, sa = math.cos(b / 2), math.sin(b / 2)
    return np.array([[np.exp(-0.5j * (a + c)) * ca, -np.exp(-0.5j * (a - c)) * sa],
                     [np.exp(0.5j * (a - c)) * sa, np.exp(0.5j * (a + c)) * ca]])


LOCAL_ANGLES = st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 6)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def assert_above_floor(mat: np.ndarray, angles):
    u = kron(euler_unitary(*angles[:3]), euler_unitary(*angles[3:]))
    rho = DensityMatrix(u @ mat @ u.conj().T, (2, 2))
    for measured in (0, 1):
        floor = _kw_floor(rho, measured)
        assert floor is not None
        best = _minimize_side(rho, measured)[3]
        both_starts = _min_conditional_entropy(_bloch_form(rho.mat, measured))[0]
        assert min(best, both_starts) >= floor - 1e-12


@PROPERTY
@given(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16), st.integers(0, 2), LOCAL_ANGLES)
def test_no_minimum_below_the_floor_on_pure_triple_marginals(parts, traced, angles):
    amps = np.array(parts[:8]) + 1j * np.array(parts[8:])
    norm = np.linalg.norm(amps)
    assume(norm > 0.1)
    psi = PureState(amps / norm, (2, 2, 2))
    assert_above_floor(partial_trace(density_from_pure(psi), [traced]).mat, angles)


@PROPERTY
@given(st.floats(-14.0, math.log10(0.5)), LOCAL_ANGLES)
def test_no_minimum_below_the_floor_on_pure_pairs(log_weight, angles):
    # rank 1, down to a Schmidt coefficient of 1e-14
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = math.sqrt(1.0 - 10.0 ** log_weight), math.sqrt(10.0 ** log_weight)
    assert_above_floor(np.outer(amps, amps.conj()), angles)
