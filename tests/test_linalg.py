import numpy as np
import pytest

from qcorr import DensityMatrix, frobenius_distance, kron
from qcorr.exceptions import DimMismatchError, NotHermitianError

I2 = np.eye(2)


def random_density(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = b @ b.conj().T
    return a / np.trace(a).real


def test_kron_identities():
    np.testing.assert_array_equal(kron(I2, I2), np.eye(4))


def test_kron_basis_placement():
    # |0><0| x |1><1| lands at row/col 1 (binary 01, left factor most significant)
    p0 = np.array([[1, 0], [0, 0]])
    p1 = np.array([[0, 0], [0, 1]])
    out = kron(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_kron_matches_index_formula():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = kron(a, b)
    # independent quadruple loop over the defining index formula; tolerance
    # because numpy's vectorized complex multiply can differ in the last bit
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(got[2 * i + k, 2 * j + l] - a[i, j] * b[k, l]) < 1e-13


def test_kron_associative_integer_entries():
    rng = np.random.default_rng(4)
    a, b, c = (rng.integers(-3, 4, size=(2, 2)) for _ in range(3))
    np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


# The Hermitian eigendecomposition is the one DensityMatrix computes at
# validation and keeps as `spectrum` (ascending) and `eigenvectors`.


def test_eig_identity_and_diag():
    rho = DensityMatrix(I2 / 2)
    np.testing.assert_allclose(rho.spectrum, [0.5, 0.5])
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    np.testing.assert_allclose(rho.spectrum, [0.3, 0.7])
    np.testing.assert_allclose(np.abs(rho.eigenvectors), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_eig_quadratic_oracle():
    # trace 1, det 1/8: roots of x^2 - x + 1/8 are (2 +/- sqrt(2))/4
    m = np.array([[0.75, 0.25], [0.25, 0.25]])
    lo = (2.0 - np.sqrt(2.0)) / 4.0
    hi = (2.0 + np.sqrt(2.0)) / 4.0
    np.testing.assert_allclose(DensityMatrix(m).spectrum, [lo, hi], atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_eig_random_hermitian_invariants(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(20):
        rho = DensityMatrix(random_density(rng, n))
        v, evs = rho.eigenvectors, rho.spectrum
        assert frobenius_distance((v * evs) @ v.conj().T, rho.mat) < 1e-10
        assert frobenius_distance(v.conj().T @ v, np.eye(n)) < 1e-10
        assert (np.diff(evs) >= 0).all()
        assert abs(evs.sum() - np.trace(rho.mat).real) < 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_frobenius_distance():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3))
    assert frobenius_distance(a, a) == 0.0
    assert np.isclose(frobenius_distance(I2, np.zeros((2, 2))), np.sqrt(2.0))
    b, c = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    assert frobenius_distance(a, c) <= frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-12
    with pytest.raises(DimMismatchError):
        frobenius_distance(I2, np.eye(3))
