import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    binary_entropy,
    density_from_pure,
    kron,
    mutual_information,
    partial_trace,
    random_pure_state,
    von_neumann_entropy,
)
from qcorr.exceptions import BadSubsystemError, NotPSDError, OutOfRangeError
from qcorr.entropy import entropy_of_spectrum
from qcorr.measurement import PROB_FLOOR


def test_entropy_pure_and_mixed():
    rho = density_from_pure(random_pure_state((2, 2), 50))
    assert abs(von_neumann_entropy(rho)) < 1e-9
    assert abs(von_neumann_entropy(DensityMatrix(np.eye(2) / 2, (2,))) - 1.0) < 1e-12


def test_entropy_filtered_marginal(entropy_constant):
    rho = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]]), (2,))
    assert abs(von_neumann_entropy(rho) - entropy_constant) < 1e-12


def test_entropy_of_spectrum_clamps_and_rejects():
    assert entropy_of_spectrum([1.0, -5e-11]) == 0.0
    with pytest.raises(NotPSDError):
        entropy_of_spectrum([1.1, -0.1])


def _rotated(rng, spectrum):
    # U diag(spectrum) U^dagger with U from the QR of a complex Ginibre matrix
    d = len(spectrum)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (q * np.asarray(spectrum, dtype=float)) @ q.conj().T


def test_entropy_reads_kept_spectrum_exactly():
    # the spectrum kept at validation must give the entropy bit for bit as
    # the full eigendecomposition of the same matrix does
    rng = np.random.default_rng(2024)
    for dims in ((2,), (2, 2), (2, 2, 2)):
        d = int(np.prod(dims))
        mats = []
        for rank in range(1, d + 1):
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            m = g @ g.conj().T
            mats.append(m / np.trace(m).real)
        base = np.full(d, 1.0 / d)
        base[: d // 2] += 1e-13  # near-degenerate pairs, still unit trace
        base[d // 2: 2 * (d // 2)] -= 1e-13
        mats.append(_rotated(rng, base))
        floor = np.zeros(d)
        floor[0], floor[1] = 1.0 - 3 * PROB_FLOOR, 3 * PROB_FLOOR
        mats.append(_rotated(rng, floor))
        for m in mats:
            rho = DensityMatrix(m, dims)
            ref = np.linalg.eigh(rho.mat)[0]
            assert np.array_equal(rho.spectrum, ref)
            assert von_neumann_entropy(rho) == entropy_of_spectrum(ref)
            assert not rho.spectrum.flags.writeable


def test_binary_entropy_cases(entropy_constant):
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    x = (1.0 + 1.0 / np.sqrt(2.0)) / 2.0
    assert abs(binary_entropy(x) - entropy_constant) < 1e-12
    with pytest.raises(OutOfRangeError):
        binary_entropy(-0.1)
    with pytest.raises(OutOfRangeError):
        binary_entropy(1.1)


def test_mutual_information_product_state():
    a = density_from_pure(random_pure_state((2,), 51)).mat
    b = np.diag([0.3, 0.7]).astype(complex)
    joint = DensityMatrix(kron(a, b), (2, 2))
    assert abs(mutual_information(joint, [0])) < 1e-9


def test_mutual_information_pair_values(pair_pre, pair_post, entropy_constant):
    assert abs(mutual_information(pair_pre, [0]) - 1.0) < 1e-9
    assert abs(mutual_information(pair_post, [0]) - entropy_constant) < 1e-9


def test_mutual_information_symmetry_and_bounds():
    for seed in range(5):
        rho = partial_trace(density_from_pure(random_pure_state((2, 2, 4), 60 + seed)), [2])
        a = mutual_information(rho, [0])
        b = mutual_information(rho, [1])
        assert abs(a - b) < 1e-12
        assert a >= -1e-9
        # subadditivity
        s_a = von_neumann_entropy(partial_trace(rho, [1]))
        s_b = von_neumann_entropy(partial_trace(rho, [0]))
        assert von_neumann_entropy(rho) <= s_a + s_b + 1e-9


def test_mutual_information_pure_state_doubles_marginal():
    for seed in range(5):
        rho = density_from_pure(random_pure_state((2, 2), 70 + seed))
        s_a = von_neumann_entropy(partial_trace(rho, [1]))
        assert abs(mutual_information(rho, [0]) - 2.0 * s_a) < 1e-9


def test_mutual_information_rejects_bad_cut(pair_pre):
    with pytest.raises(BadSubsystemError):
        mutual_information(pair_pre, [])
    with pytest.raises(BadSubsystemError):
        mutual_information(pair_pre, [0, 1])
    with pytest.raises(BadSubsystemError):
        mutual_information(pair_pre, [3])
    with pytest.raises(BadSubsystemError):
        mutual_information(pair_pre, [0.9])  # not truncated to the cut [0]
    with pytest.raises(BadSubsystemError):
        mutual_information(pair_pre, [False])
    assert mutual_information(pair_pre, [np.int32(0)]) == mutual_information(pair_pre, [0])
