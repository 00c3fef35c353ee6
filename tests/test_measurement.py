import math

import numpy as np
import pytest

from qcorr import (
    BlochAngles,
    DensityMatrix,
    Povm,
    PureState,
    apply_filter,
    apply_global_operator,
    conditional_entropy,
    density_from_pure,
    kron,
    measure_subsystem,
    partial_trace,
    projective_pair,
    random_pure_state,
    von_neumann_entropy,
)
from qcorr.exceptions import (
    BadSubsystemError,
    DimMismatchError,
    InvalidPovmError,
    OutOfRangeError,
    StateAnnihilatedError,
)
from qcorr.scenario import filter_e, ghz3


def test_bloch_angles_validation():
    BlochAngles(0.0, 0.0)
    BlochAngles(math.pi, 6.28)
    with pytest.raises(OutOfRangeError):
        BlochAngles(-0.1, 0.0)
    with pytest.raises(OutOfRangeError):
        BlochAngles(0.0, 2.0 * math.pi)  # phi range is half-open


def test_projective_pair_poles():
    povm = projective_pair(BlochAngles(0.0, 0.0))
    assert np.allclose(povm.effects[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(povm.effects[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_projective_pair_equator():
    povm = projective_pair(BlochAngles(math.pi / 2.0, 0.0))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    assert np.allclose(povm.effects[0], plus, atol=1e-12)
    assert np.allclose(povm.effects[1], np.eye(2) - plus, atol=1e-12)


def test_projective_pair_completeness():
    for k in range(8):
        angles = BlochAngles(math.pi * k / 8.0, math.pi * k / 4.0)
        povm = projective_pair(angles)
        total = povm.effects[0] + povm.effects[1]
        assert np.allclose(total, np.eye(2), atol=1e-12)


def test_povm_rejects_bad_effects():
    with pytest.raises(InvalidPovmError):
        Povm((np.eye(2), np.eye(2)))  # sums to 2I
    with pytest.raises(InvalidPovmError):
        Povm((np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)))  # not Hermitian
    with pytest.raises(InvalidPovmError):
        Povm((np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])))  # not PSD


def test_measure_subsystem_classical_pair(pair_pre):
    z_basis = projective_pair(BlochAngles(0.0, 0.0))
    outcomes = measure_subsystem(pair_pre, z_basis, 1)
    assert len(outcomes) == 2
    for k, out in enumerate(outcomes):
        assert abs(out.probability - 0.5) < 1e-12
        expect = np.zeros((2, 2), dtype=complex)
        expect[k, k] = 1.0
        assert np.allclose(out.conditional_state.mat, expect, atol=1e-12)


def test_measure_subsystem_unbiased_basis(pair_pre):
    x_basis = projective_pair(BlochAngles(math.pi / 2.0, 0.0))
    outcomes = measure_subsystem(pair_pre, x_basis, 1)
    for out in outcomes:
        assert abs(out.probability - 0.5) < 1e-12
        assert np.allclose(out.conditional_state.mat, np.eye(2) / 2.0, atol=1e-12)


def test_measure_subsystem_probabilities_sum():
    rho = partial_trace(density_from_pure(random_pure_state((2, 2, 2), 90)), [2])
    for theta, phi in [(0.3, 1.0), (1.2, 4.5), (2.9, 0.2)]:
        outcomes = measure_subsystem(rho, projective_pair(BlochAngles(theta, phi)), 0)
        total = sum(out.probability for out in outcomes)
        assert abs(total - 1.0) < 1e-12
        for out in outcomes:
            if not out.zero_probability:
                out.conditional_state  # validated DensityMatrix on construction


def test_measure_subsystem_zero_probability_flag():
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), (2, 2))
    outcomes = measure_subsystem(rho, projective_pair(BlochAngles(0.0, 0.0)), 0)
    assert not outcomes[0].zero_probability
    assert outcomes[1].zero_probability
    assert outcomes[1].conditional_state is None


def test_measure_subsystem_target_checks(pair_pre):
    # embed_local alone checks the target and the POVM's dim: 1.0 would escape
    # as a TypeError, True would index subsystem 1, and 2 and -1 are not dims
    z_basis = projective_pair(BlochAngles(0.0, 0.0))
    for target in (1.0, True, 2, -1):
        with pytest.raises(BadSubsystemError):
            measure_subsystem(pair_pre, z_basis, target)
        with pytest.raises(BadSubsystemError):
            conditional_entropy(pair_pre, z_basis, target)
    with pytest.raises(DimMismatchError):
        measure_subsystem(pair_pre, Povm((np.eye(3),)), 1)
    assert (conditional_entropy(pair_pre, z_basis, np.int64(1))
            == conditional_entropy(pair_pre, z_basis, 1))


def test_conditional_entropy_values(pair_pre, bell_pair):
    z_basis = projective_pair(BlochAngles(0.0, 0.0))
    x_basis = projective_pair(BlochAngles(math.pi / 2.0, 0.0))
    assert abs(conditional_entropy(pair_pre, z_basis, 1)) < 1e-12
    assert abs(conditional_entropy(pair_pre, x_basis, 1) - 1.0) < 1e-12
    assert abs(conditional_entropy(bell_pair, z_basis, 1)) < 1e-12


def test_apply_filter_on_triple():
    psi = apply_filter(ghz3(), filter_e(), 2)
    root = 1.0 / math.sqrt(2.0)
    expect = np.array([root, 0, 0, 0, 0, 0, 0.5, 0.5], dtype=complex)
    assert np.allclose(psi.amplitudes, expect, atol=1e-12)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_apply_filter_matches_hand_built_pair(pair_post):
    psi = apply_filter(ghz3(), filter_e(), 2)
    reduced = partial_trace(density_from_pure(psi), [1])
    assert np.allclose(reduced.mat, pair_post.mat, atol=1e-12)


def test_apply_filter_identity_is_noop():
    psi = random_pure_state((2, 2), 91)
    out = apply_filter(psi, np.eye(2), 0)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)


def test_apply_filter_annihilation():
    psi = PureState(np.array([1.0, 0.0], dtype=complex), (2,))
    for state, size in ((psi, "norm"), (density_from_pure(psi), "trace")):
        with pytest.raises(StateAnnihilatedError) as caught:
            apply_filter(state, np.diag([0.0, 1.0]), 0)
        assert str(caught.value) == f"filter annihilated the state ({size} < 1e-12)"


def test_apply_filter_density_route(pair_pre):
    # K rho K^dag / trace on a density matrix input
    k = np.diag([1.0, 0.5]).astype(complex)
    out = apply_filter(pair_pre, k, 1)
    raw = kron(np.eye(2), k) @ pair_pre.mat @ kron(np.eye(2), k).conj().T
    assert np.allclose(out.mat, raw / np.trace(raw), atol=1e-12)


def test_unitary_filter_preserves_marginal_entropy():
    rng = np.random.default_rng(92)
    psi = random_pure_state((2, 2), 93)
    before = von_neumann_entropy(partial_trace(density_from_pure(psi), [1]))
    for _ in range(5):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(raw)
        out = apply_filter(psi, q, 1)
        after = von_neumann_entropy(partial_trace(density_from_pure(out), [1]))
        assert abs(after - before) < 1e-9


def test_apply_global_operator_matches_local_embedding():
    psi = ghz3()
    local = apply_filter(psi, filter_e(), 2)
    embedded = apply_global_operator(psi, kron(np.eye(4), filter_e()))
    assert np.allclose(local.amplitudes, embedded.amplitudes, atol=1e-12)


def test_apply_global_operator_annihilation():
    psi = random_pure_state((2,), 94)
    with pytest.raises(StateAnnihilatedError):
        apply_global_operator(psi, np.zeros((2, 2)))


def test_filters_reject_unsupported_state_types():
    for state in (np.array([1.0, 0.0]), [[1.0, 0.0], [0.0, 0.0]], None):
        with pytest.raises(DimMismatchError, match="unsupported state type"):
            apply_filter(state, np.eye(2), 0)
        with pytest.raises(DimMismatchError, match="unsupported state type"):
            apply_global_operator(state, np.eye(2))


def test_apply_global_operator_rejects_wrong_dimension(pair_pre):
    for state in (random_pure_state((2, 2), 95), pair_pre):
        with pytest.raises(DimMismatchError, match="operator dim 2 vs state dim 4"):
            apply_global_operator(state, np.eye(2))
