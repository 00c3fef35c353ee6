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


@pytest.fixture
def unrefined(monkeypatch):
    """Every minimization returns its first start, the best grid cell,
    unrefined, so a coarse enough grid misses the optimal direction."""
    def first_start(fun, x0, **kwargs):
        return SimpleNamespace(x=x0, fun=fun(x0), nfev=1, nit=0, success=False)

    monkeypatch.setattr(qcorr.correlations, "minimize", first_start)


@pytest.fixture
def optimizer_constants():
    """A context manager that sets qcorr.correlations' GRID_THETA, GRID_PHI
    or NEWTON_MAXITER, given as keywords, and restores them on exit.

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
