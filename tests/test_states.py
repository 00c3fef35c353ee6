import numpy as np
import pytest

from dataclasses import fields

from qcorr import (
    DensityMatrix,
    PureState,
    density_from_pure,
    embed_local,
    frobenius_distance,
    kron,
    partial_trace,
    purity,
    random_pure_state,
    von_neumann_entropy,
)
from qcorr.exceptions import (
    BadSubsystemError,
    DimMismatchError,
    NotPSDError,
    QcorrError,
)


def partial_trace_oracle(mat, dims, keep):
    """Independent double-index-loop partial trace."""
    n = len(dims)
    keep = sorted(keep)
    drop = [k for k in range(n) if k not in keep]
    dk = int(np.prod([dims[k] for k in keep]))
    dd = int(np.prod([dims[k] for k in drop])) if drop else 1
    out = np.zeros((dk, dk), dtype=complex)

    def assemble(keep_digits, drop_digits):
        digits = [0] * n
        for pos, k in enumerate(keep):
            digits[k] = keep_digits[pos]
        for pos, k in enumerate(drop):
            digits[k] = drop_digits[pos]
        idx = 0
        for k in range(n):
            idx = idx * dims[k] + digits[k]
        return idx

    def digit_lists(sub):
        sizes = [dims[k] for k in sub]
        if not sizes:
            return [[]]
        lists = [[]]
        for s in sizes:
            lists = [base + [d] for base in lists for d in range(s)]
        return lists

    keep_lists = digit_lists(keep)
    drop_lists = digit_lists(drop)
    for i, ki in enumerate(keep_lists):
        for j, kj in enumerate(keep_lists):
            for e in drop_lists:
                out[i, j] += mat[assemble(ki, e), assemble(kj, e)]
    assert dd * dk == mat.shape[0]
    return out


def test_density_from_pure_cases():
    zero = PureState(np.array([1, 0]), (2,))
    np.testing.assert_array_equal(density_from_pure(zero).mat, [[1, 0], [0, 0]])
    plus = PureState(np.array([1, 1]) / np.sqrt(2.0), (2,))
    np.testing.assert_allclose(density_from_pure(plus).mat, 0.5 * np.ones((2, 2)) + 0j,
                               atol=1e-15)
    v = np.zeros(8)
    v[0] = v[7] = 1 / np.sqrt(2.0)
    rho = density_from_pure(PureState(v, (2, 2, 2)))
    assert np.isclose(rho.mat.trace(), 1.0)
    evs = np.linalg.eigvalsh(rho.mat)
    assert np.sum(evs > 1e-12) == 1  # rank one


def test_partial_trace_classical_pair(pair_pre):
    v = np.zeros(8)
    v[0] = v[7] = 1 / np.sqrt(2.0)
    rho = density_from_pure(PureState(v, (2, 2, 2)))
    reduced = partial_trace(rho, [1])
    assert reduced.dims == (2, 2)
    np.testing.assert_allclose(reduced.mat, pair_pre.mat, atol=1e-15)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(11)
    a = density_from_pure(random_pure_state((2,), 1)).mat
    b = rng.dirichlet([1, 1, 1])
    sigma = np.diag(b).astype(complex)  # mixed qutrit
    joint = DensityMatrix(kron(a, sigma), (2, 3))
    np.testing.assert_allclose(partial_trace(joint, [1]).mat, a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, [0]).mat, sigma, atol=1e-12)


def test_partial_trace_matches_loop_oracle():
    for seed, dims in ((21, (2, 2, 2)), (22, (2, 2, 4))):
        rho = density_from_pure(random_pure_state(dims, seed))
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            drop = [k for k in range(3) if k not in keep]
            got = partial_trace(rho, drop)
            want = partial_trace_oracle(rho.mat, dims, keep)
            assert np.abs(got.mat - want).max() < 1e-12
            assert abs(got.mat.trace() - 1.0) < 1e-12


def test_partial_trace_composes():
    rho = density_from_pure(random_pure_state((2, 2, 2), 23))
    once = partial_trace(rho, [1])        # factors (0, 2)
    twice = partial_trace(once, [1])      # drops the original subsystem 2
    direct = partial_trace(rho, [1, 2])
    np.testing.assert_allclose(twice.mat, direct.mat, atol=1e-12)


def test_partial_trace_rejects_bad_sets():
    rho = density_from_pure(random_pure_state((2, 2), 24))
    with pytest.raises(BadSubsystemError):
        partial_trace(rho, [])
    with pytest.raises(BadSubsystemError):
        partial_trace(rho, [0, 1])
    with pytest.raises(BadSubsystemError):
        partial_trace(rho, [2])
    # int() would truncate these to subsystem 0
    for index in (0.7, True, np.float64(0.0)):
        with pytest.raises(BadSubsystemError):
            partial_trace(rho, [index])
    assert partial_trace(rho, [np.int64(0)]) == partial_trace(rho, [0])


def test_purity_cases(pair_pre):
    psi = random_pure_state((2, 2), 25)
    assert abs(purity(density_from_pure(psi)) - 1.0) < 1e-10
    assert np.isclose(purity(DensityMatrix(np.eye(2) / 2, (2,))), 0.5)
    assert np.isclose(purity(pair_pre), 0.5)


def test_embed_local():
    x = np.array([[0, 1], [1, 0]])
    np.testing.assert_array_equal(embed_local(x, 0, (2, 2)), kron(x, np.eye(2)))
    e = np.array([[1, 0.5], [0, 0.5]])
    np.testing.assert_array_equal(embed_local(e, 2, (2, 2, 2)), kron(np.eye(4), e))
    np.testing.assert_array_equal(embed_local(np.eye(2), 1, (2, 2)), np.eye(4))
    with pytest.raises(DimMismatchError):
        embed_local(np.eye(3), 0, (2, 2))
    with pytest.raises(BadSubsystemError):
        embed_local(x, 5, (2, 2))
    # True would index subsystem 1, and 0.5 would escape as a TypeError
    for target in (True, 0.5):
        with pytest.raises(BadSubsystemError):
            embed_local(x, target, (2, 2))


def test_random_pure_state_determinism():
    a = random_pure_state((2, 2, 2), 42)
    b = random_pure_state((2, 2, 2), 42)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = random_pure_state((2, 2, 2), 43)
    assert np.abs(a.amplitudes - c.amplitudes).max() > 1e-6


def test_random_pure_state_norms():
    for seed in range(1000):
        v = random_pure_state((2, 2), seed).amplitudes
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_random_pure_state_marginal_entropy_bounds():
    for seed in range(10):
        rho = density_from_pure(random_pure_state((2, 2), 100 + seed))
        s = von_neumann_entropy(partial_trace(rho, [1]))
        assert -1e-9 <= s <= 1.0 + 1e-9


def test_validation_rejects():
    bad_herm = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(QcorrError):
        DensityMatrix(bad_herm, (2,))
    with pytest.raises(QcorrError, match="trace deviates from 1"):
        DensityMatrix(np.diag([0.45, 0.45]), (2,))
    with pytest.raises(NotPSDError):
        DensityMatrix(np.diag([1.2, -0.2]), (2,))
    with pytest.raises(QcorrError):
        PureState(np.array([1.0, 1.0]), (2,))  # norm sqrt(2)
    with pytest.raises(DimMismatchError):
        DensityMatrix(np.eye(4) / 4, (2, 3))


def test_psd_boundary():
    # eigenvalues down to -1e-10 are float noise; below that is an error
    with pytest.raises(NotPSDError):
        DensityMatrix(np.diag([1.0 + 2e-10, -2e-10]), (2,))
    rho = DensityMatrix(np.diag([1.0 + 0.5e-10, -0.5e-10]), (2,))
    assert rho.spectrum[0] == -0.5e-10


def test_kept_spectrum_leaves_repr_and_eq_alone(pair_post):
    assert [f.name for f in fields(DensityMatrix) if f.compare] == ["mat", "dims"]
    assert [f.name for f in fields(DensityMatrix) if f.repr] == ["mat", "dims"]
    assert repr(pair_post) == f"DensityMatrix(mat={pair_post.mat!r}, dims={pair_post.dims!r})"
    with pytest.raises(AttributeError):
        pair_post.spectrum = np.zeros(4)
    with pytest.raises(AttributeError):
        pair_post.eigenvectors = np.eye(4)
    v = pair_post.eigenvectors
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0, 0] = 1.0
    assert frobenius_distance((v * pair_post.spectrum) @ v.conj().T, pair_post.mat) < 1e-14
    # eigenvector phases are arbitrary, so a twin holding -V is still equal
    twin = DensityMatrix(pair_post.mat.copy(), pair_post.dims)
    object.__setattr__(twin, "eigenvectors", -v)
    assert twin == pair_post and repr(twin) == repr(pair_post)


def test_equality_compares_dims_and_entries():
    mixed = np.eye(4) / 4
    rho = DensityMatrix(mixed, (2, 2))
    twin = DensityMatrix(mixed.copy(), (2, 2))
    assert rho is not twin
    assert rho == twin and not rho != twin
    assert rho != DensityMatrix(np.diag([0.4, 0.2, 0.2, 0.2]), (2, 2))
    assert rho != DensityMatrix(mixed, (4,))
    assert rho.__eq__(mixed) is NotImplemented
    assert rho != mixed.tolist()
    with pytest.raises(TypeError, match="unhashable type: 'DensityMatrix'"):
        hash(rho)
    with pytest.raises(TypeError):
        {rho}


def test_pure_state_equality_compares_dims_and_amplitudes():
    amp = np.array([1, 0, 0, 0])
    psi = PureState(amp, (2, 2))
    twin = PureState(amp.copy(), (2, 2))
    assert psi is not twin
    assert psi == twin and not psi != twin
    assert PureState(np.array([1, 0]), (2,)) == PureState(np.array([1, 0]), (2,))
    assert psi != PureState(np.array([0, 1, 0, 0]), (2, 2))
    assert psi != PureState(amp, (4,))
    assert psi.__eq__(amp) is NotImplemented
    assert psi != amp.tolist()
    assert psi != density_from_pure(psi)
    with pytest.raises(TypeError, match="unhashable type: 'PureState'"):
        hash(psi)
    with pytest.raises(TypeError):
        {psi}


def test_bipartition_entropies_agree_on_pure_states():
    # tracing either side of a pure-state cut gives the same entropy
    for seed, dims in ((31, (2, 2, 2)), (32, (2, 2, 4))):
        rho = density_from_pure(random_pure_state(dims, seed))
        for side in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            rest = [k for k in range(3) if k not in side]
            s1 = von_neumann_entropy(partial_trace(rho, rest))
            s2 = von_neumann_entropy(partial_trace(rho, side))
            assert abs(s1 - s2) < 1e-9
