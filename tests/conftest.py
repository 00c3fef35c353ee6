"""Shared fixtures: hand-built reference states and one scenario run.

The pair states and the closed-form entropy constant are constructed
here independently of the package's own builders so tests compare two
routes rather than one route with itself.
"""
import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

import qcorr.correlations
from qcorr import DensityMatrix, run_scenario


@pytest.fixture(scope="session")
def entropy_constant():
    # binary entropy of (2 + sqrt(2))/4 in closed form
    return (math.log(8.0) - math.sqrt(2.0) * math.atanh(1.0 / math.sqrt(2.0))) / math.log(4.0)


@pytest.fixture(scope="session")
def pair_pre():
    # equal classical mixture of |00> and |11>
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    return DensityMatrix(m, (2, 2))


@pytest.fixture(scope="session")
def pair_post():
    # equal mixture of |00> and |1+>, written out by hand
    v0 = np.array([1, 0, 0, 0], dtype=complex)
    v1 = np.array([0, 0, 1, 1], dtype=complex) / math.sqrt(2.0)
    return DensityMatrix(0.5 * (np.outer(v0, v0) + np.outer(v1, v1)), (2, 2))


@pytest.fixture(scope="session")
def entangled_pair():
    # first two qubits after the third is filtered and traced out:
    # (|00><00| + |11><11|)/2 plus off-diagonal coherence 1/(2 sqrt(2))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = 0.5 / math.sqrt(2.0)
    return DensityMatrix(m, (2, 2))


@pytest.fixture(scope="session")
def bell_pair():
    v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
    return DensityMatrix(np.outer(v, v), (2, 2))


@pytest.fixture(scope="session")
def scenario_reports():
    return run_scenario()


_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))


# states are taken in chunks sized so that no array holds more than this many values
GRID_CHUNK = 1 << 18


def _grid_minima(mats, measured, n: int) -> list[tuple]:
    """[(value, node), ...]: for each two-qubit state of the stack mats, with
    measured[i] its measured qubit, the lowest conditional entropy over
    projective pairs along n x 2n hemisphere nodes, theta in [0, pi/2) by phi
    in [0, 2 pi), taken theta-major; a tie goes to the first such node.

    A numpy copy of the Bloch-form formula, written apart from the package's
    kernel: with r_ij = Tr[rho sigma_i x sigma_j], i on the unmeasured qubit,
    the outcome s = +-1 along n has weight p = (1 + s m.n) / 2, m_j = r_0j,
    and leaves the unmeasured qubit with Bloch vector (u + s T n) / (2 p),
    u_i = r_i0 and T_ij = r_ij for i, j >= 1."""
    paulis = np.stack([np.kron(a, b) for a in _PAULI for b in _PAULI])
    r = np.einsum('kij,sji->sk', paulis, np.asarray(mats)).real.reshape(-1, 4, 4)
    r = np.where((np.asarray(measured) == 0)[:, None, None], r.transpose(0, 2, 1), r)
    theta = (math.pi / 2) * np.arange(n)[:, None] / n
    phi = (2 * math.pi) * np.arange(2 * n)[None, :] / (2 * n)
    nodes = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta) + 0.0 * phi]).reshape(3, -1)
    found = []
    step = max(1, GRID_CHUNK // (3 * nodes.shape[1]))
    for lo in range(0, len(r), step):
        c = r[lo:lo + step]
        total = np.zeros((len(c), nodes.shape[1]))
        for s in (1.0, -1.0):
            p = 0.5 * (c[:, 0, 0, None] + s * (c[:, 0, 1:] @ nodes))
            v = c[:, 1:, 0, None] + s * (c[:, 1:, 1:] @ nodes)
            live = p > 0.0
            lam = np.clip(0.5 + 0.25 * np.sqrt((v * v).sum(axis=1)) / np.where(live, p, 1.0),
                          0.5, 1.0)
            q = 1.0 - lam
            h = -(lam * np.log2(lam)
                  + np.where(q > 0.0, q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0))
            total += np.where(live, p * h, 0.0)
        best = np.argmin(total, axis=1)
        found += [(float(t[k]), tuple(float(x) for x in nodes[:, k])) for t, k in zip(total, best)]
    return found


@pytest.fixture(scope="session")
def grid_minimum():
    """The test-side grid on one state: a function (mat, measured, n) -> (value, node)."""
    return lambda mat, measured, n: _grid_minima([mat], [measured], n)[0]


@pytest.fixture(scope="session")
def grid_minima():
    """The test-side grid on a stack of states: _grid_minima."""
    return _grid_minima


@pytest.fixture
def unrefined(monkeypatch):
    """Every minimization returns its first start, the pole (0, 0, 1),
    unrefined, so it misses every optimal direction off the pole."""
    def first_start(fun, x0, **kwargs):
        return SimpleNamespace(x=x0, fun=fun(x0), nfev=1, nit=0, success=False)

    monkeypatch.setattr(qcorr.correlations, "minimize", first_start)


@pytest.fixture
def optimizer_constants():
    """A context manager that sets qcorr.correlations' NEWTON_MAXITER or
    other optimizer constants, given as keywords, and restores them on exit.

    Minima are memoized per (state object, measured qubit), so a minimum
    taken under patched constants must land on a state made for it, or come
    from _min_conditional_entropy directly, never on a shared fixture."""
    @contextmanager
    def patched(**values):
        with pytest.MonkeyPatch.context() as m:
            for name, value in values.items():
                m.setattr(qcorr.correlations, name, value)
            yield

    return patched
