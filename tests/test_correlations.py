import functools
import gc
import math
import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import qcorr.correlations

from qcorr import (
    AuditSummary,
    BlochAngles,
    DensityMatrix,
    PureState,
    Povm,
    apply_filter,
    classical_correlation,
    concurrence,
    conditional_entropy,
    density_from_pure,
    discord,
    discord_oracle_grid,
    eof_two_qubits,
    koashi_winter_residual,
    kron,
    kw_audit,
    mutual_information,
    partial_trace,
    projective_pair,
    random_pure_state,
    binary_entropy,
    run_scenario,
    von_neumann_entropy,
)
from qcorr.correlations import (
    CERTIFY_TOL,
    RANK2_MASS,
    RESIDUAL_HIGH,
    RESIDUAL_LOW,
    _bloch_form,
    _effect_entropy,
    _kw_floor,
    _min_conditional_entropy,
    _minimize_side,
    _pair_entropy,
    _tangent_derivatives,
    minimize,
)
from qcorr.exceptions import (
    BadPermutationError,
    BadSubsystemError,
    DimMismatchError,
    OutOfRangeError,
)
from qcorr.scenario import build_report, filter_e, ghz3
from qcorr.states import sample_pure_state

# a near-tie X state's sigma_z and best sigma_x/sigma_y conditional entropies
# differ by at most this; NEAR_TIE_COUNT such states make the fixed family
NEAR_TIE = 2e-3
NEAR_TIE_COUNT = 1500


def random_mixed_pair(seed: int) -> DensityMatrix:
    # tracing half of a random pure (2,2,4) state gives a full-rank pair
    return partial_trace(density_from_pure(random_pure_state((2, 2, 4), seed)), [2])


def product_pair() -> DensityMatrix:
    return DensityMatrix(kron(np.diag([0.8, 0.2]), np.full((2, 2), 0.5)).astype(complex), (2, 2))


def near_floor_pair() -> DensityMatrix:
    # measuring qubit 0 along z gives outcome 1 with probability 3e-12, just
    # above PROB_FLOOR, and that outcome leaves qubit 1 maximally mixed, so
    # skipping it would cost 3e-12
    delta = 3e-12
    return DensityMatrix(np.diag([1.0 - delta, 0.0, delta / 2, delta / 2]).astype(complex), (2, 2))


def random_unitary(rng, d: int) -> np.ndarray:
    return haar_unitary(rng.normal(size=(d, d)), rng.normal(size=(d, d)))


def haar_unitary(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(real + 1j * imag)
    return q * (np.diag(r) / abs(np.diag(r)))


def x_state(rng) -> np.ndarray:
    """A two-qubit X state: Dirichlet populations and coherences of random
    phase within the positivity bounds."""
    a, b, c, d = rng.dirichlet(np.ones(4))
    w = rng.uniform() * math.sqrt(a * d) * np.exp(2j * math.pi * rng.uniform())
    z = rng.uniform() * math.sqrt(b * c) * np.exp(2j * math.pi * rng.uniform())
    return np.array([[a, 0, 0, w], [0, b, z, 0], [0, np.conj(z), c, 0], [np.conj(w), 0, 0, d]])


def random_qubit(rng) -> np.ndarray:
    r = rng.normal(size=3)
    r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
    return 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]])


def near_tie_x_state(rng, rotated: bool = True) -> tuple[np.ndarray, int]:
    """A locally rotated X state and a measured side on which, before the
    rotation and with real coherences, measuring sigma_z and the better of
    sigma_x, sigma_y tie to NEAR_TIE. The optimal direction of such states
    can sit at an intermediate angle (Lu, Ma, Xi & Wang, PRA 83, 012327,
    2011; Huang, PRA 88, 014302, 2013). Unrotated, the state is returned as
    drawn, with the same draws, and its pole can be a saddle point."""
    while True:
        alpha = rng.uniform(0.1, 2.0)
        a, b, c, d = rng.dirichlet(alpha * np.ones(4))
        w = rng.uniform() * math.sqrt(a * d) * np.exp(2j * math.pi * rng.uniform())
        z = rng.uniform() * math.sqrt(b * c) * np.exp(2j * math.pi * rng.uniform())
        g = rng.normal(size=(2, 2, 2, 2))  # the draws of two random_unitary calls
        side = int(rng.integers(2))
        x = np.array([[a, 0, 0, w], [0, b, z, 0], [0, np.conj(z), c, 0], [np.conj(w), 0, 0, d]])
        form = _bloch_form(abs(x).astype(complex), side)
        fz, fx, fy = (_pair_entropy(form, *n) for n in np.eye(3)[[2, 0, 1]])
        if abs(fz - min(fx, fy)) <= NEAR_TIE:
            if not rotated:
                return x, side
            u = kron(haar_unitary(*g[0]), haar_unitary(*g[1]))
            return u @ x @ u.conj().T, side


def density(m: np.ndarray) -> DensityMatrix:
    m = (m + m.conj().T) / 2
    return DensityMatrix(m / np.trace(m).real, (2, 2))


def adversarial_pairs(seed: int, per_kind: int) -> list[DensityMatrix]:
    """Seeded two-qubit states whose landscapes are hard on a coarse grid:
    X states, near-degenerate spectra, ranks 2 and 4, products, an outcome
    probability just above PROB_FLOOR along a random direction, and rotated
    X states near a tie between their axes."""
    rng = np.random.default_rng(seed)

    def near_degenerate():
        u = random_unitary(rng, 4)
        return (u * (0.25 + 1e-7 * rng.normal(size=4))) @ u.conj().T

    def traced(env: int):
        return partial_trace(density_from_pure(sample_pure_state((2, 2, env), rng)), [2]).mat

    def near_floor():
        delta = 10.0 ** rng.uniform(-11.5, -10.0)
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
        return u @ np.diag([1.0 - delta, 0.0, delta / 2, delta / 2]) @ u.conj().T

    kinds = (lambda: x_state(rng), near_degenerate, lambda: traced(2), lambda: traced(4),
             lambda: kron(random_qubit(rng), random_qubit(rng)), near_floor,
             lambda: near_tie_x_state(rng)[0])
    return [density(kind()) for kind in kinds for _ in range(per_kind)]


@functools.cache
def near_tie_family(seed: int, rotated: bool) -> tuple:
    rng = np.random.default_rng(seed)
    return tuple(near_tie_x_state(rng, rotated) for _ in range(NEAR_TIE_COUNT))


def near_tie_pairs(seed: int = 99, rotated: bool = True) -> list[tuple[DensityMatrix, int]]:
    """A fixed near-tie family: the first NEAR_TIE_COUNT states that
    near_tie_x_state keeps from default_rng(seed), with their measured sides,
    as fresh states. The rotated family draws from seed 99, the unrotated
    one, whose poles can be saddle points, from seed 5."""
    return [(density(m), side) for m, side in near_tie_family(seed, rotated)]


def unrotated_near_tie_pairs() -> list[tuple[DensityMatrix, int]]:
    return near_tie_pairs(5, rotated=False)


def reference_minima(cases, grid_minima) -> list[float]:
    """For each (state, measured), the test-side 64 x 128 grid's lowest node,
    refined by Newton from it alone: a minimum that owes nothing to the
    package's own starts. The grid takes all the states in one call."""
    nodes = grid_minima([rho.mat for rho, _ in cases], [m for _, m in cases], 64)
    found = []
    for (rho, measured), (value, node) in zip(cases, nodes):
        form = _bloch_form(rho.mat, measured)
        res = minimize(lambda x: _pair_entropy(form, *x), node, alternatives=[],
                       derivatives=lambda *a: _tangent_derivatives(form, *a),
                       maxiter=qcorr.correlations.NEWTON_MAXITER)
        found.append(min(value, res.fun))
    return found


def recording_minimize(monkeypatch) -> list:
    """Record the result of every refinement."""
    calls = []
    real_minimize = qcorr.correlations.minimize

    def recording(*args, **kwargs):
        calls.append(real_minimize(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(qcorr.correlations, "minimize", recording)
    return calls


def count_calls(monkeypatch, *functions) -> Counter:
    """Count calls to each function by name, through every qcorr module
    that binds it."""
    counts = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {id(fn): counted(fn) for fn in functions}
    for name, mod in list(sys.modules.items()):
        if name == "qcorr" or name.startswith("qcorr."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    return counts


def test_minimization_shared_per_state_object(monkeypatch):
    calls = recording_minimize(monkeypatch)
    mat = random_mixed_pair(7).mat
    rho = DensityMatrix(mat, (2, 2))
    before = repr(rho)
    first = {side: (discord(rho, side), classical_correlation(rho, side)) for side in (0, 1)}
    for side in (0, 1):
        assert (discord(rho, side), classical_correlation(rho, side)) == first[side]
    assert len(calls) == 2
    twin = DensityMatrix(mat, (2, 2))
    for side in (0, 1):
        assert (discord(twin, side), classical_correlation(twin, side)) == first[side]
    assert len(calls) == 4
    assert repr(rho) == before

    # the memo holds numbers only: with the collector off, refcounting alone
    # must free a state whose J and D were computed
    gc.disable()
    try:
        ref = weakref.ref(twin)
        del twin
        assert ref() is None
    finally:
        gc.enable()


def test_classical_correlation_classical_pair(pair_pre):
    for measured, direction in [(0, "rightward"), (1, "leftward")]:
        j = classical_correlation(pair_pre, measured)
        assert abs(j.value - 1.0) < 1e-9
        assert j.direction == direction
        assert j.optimizer_evals > 0


def test_classical_correlation_filtered_pair(pair_post, entropy_constant):
    # measuring the filtered side recovers less than measuring the pointer
    left = classical_correlation(pair_post, 1)
    right = classical_correlation(pair_post, 0)
    assert abs(left.value - (1.0 - entropy_constant)) < 1e-9
    assert abs(right.value - entropy_constant) < 1e-9


def test_classical_correlation_product_state():
    rho = DensityMatrix(kron(np.diag([0.2, 0.8]), np.diag([0.6, 0.4])), (2, 2))
    for measured in (0, 1):
        assert classical_correlation(rho, measured).value < 1e-6


def test_directional_guards(pair_pre):
    with pytest.raises(DimMismatchError):
        classical_correlation(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), 0)
    with pytest.raises(BadSubsystemError):
        classical_correlation(pair_pre, 2)
    with pytest.raises(BadSubsystemError):
        discord(pair_pre, -1)
    # int() would truncate these to a valid side
    with pytest.raises(BadSubsystemError):
        classical_correlation(pair_pre, 1.0)
    with pytest.raises(BadSubsystemError):
        discord(pair_pre, True)
    assert discord(pair_pre, np.int64(1)) == discord(pair_pre, 1)


def test_discord_classical_pair_vanishes(pair_pre):
    for measured in (0, 1):
        assert discord(pair_pre, measured).value < 1e-6


def test_discord_filtered_pair(pair_post, entropy_constant):
    left = discord(pair_post, 1)
    right = discord(pair_post, 0)
    assert abs(left.value - (2.0 * entropy_constant - 1.0)) < 1e-9
    assert right.value < 1e-6


def test_discord_bell_state(bell_pair):
    for measured in (0, 1):
        d = discord(bell_pair, measured)
        assert abs(d.value - 1.0) < 1e-9


def test_discord_equals_mi_minus_j_on_random_states():
    # D + J takes S(measured) and S(unmeasured) from the Bloch form, I_q from
    # two partial traces: the two routes must agree to rounding
    states = [random_mixed_pair(200 + seed) for seed in range(5)] + adversarial_pairs(808, 20)
    states += [rho for rho, _ in near_tie_pairs()]
    worst = 0.0
    for rho in states:
        iq = mutual_information(rho, [0])
        for measured in (0, 1):
            d = discord(rho, measured)
            j = classical_correlation(rho, measured)
            worst = max(worst, abs(d.value - (iq - j.value)))
    assert worst <= 1e-12


def test_discord_after_classical_correlation_traces_once(monkeypatch):
    # D reads the Bloch form and the minimum J stored on the object; the only
    # new work is S(measured) from the form's first row, and S(rho)
    rho = random_mixed_pair(9)
    classical_correlation(rho, 1)
    counts = count_calls(monkeypatch, partial_trace, mutual_information, minimize)
    discord(rho, 1)
    assert counts == {}


def test_discord_oracle_agrees_on_pairs(pair_pre, pair_post):
    for rho in (pair_pre, pair_post):
        for measured in (0, 1):
            oracle = discord_oracle_grid(rho, measured, 400)
            opt = discord(rho, measured).value
            assert abs(oracle - opt) < 1e-4
            # exhaustive grid cannot beat the refined optimum
            assert oracle >= opt - 1e-9


@pytest.mark.parametrize("delta", [1e-14, 1e-13, 5e-13])
def test_discord_oracle_prices_outcomes_below_the_probability_floor(delta):
    # (1 - delta)|0><0| x |0><0| + delta |1><1| x 1/2, measured on qubit 0, has
    # discord 0; a grid that drops outcomes with p <= 1e-12 read -delta there
    k0, k1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    rho = DensityMatrix((1.0 - delta) * np.kron(k0, k0) + delta * np.kron(k1, np.eye(2) / 2),
                        (2, 2))
    assert discord_oracle_grid(rho, 0, 40) >= -1e-15


def test_discord_oracle_rejects_bad_input(pair_pre):
    with pytest.raises(DimMismatchError):
        discord_oracle_grid(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), 0, 50)
    with pytest.raises(BadSubsystemError):
        discord_oracle_grid(pair_pre, 5, 50)
    with pytest.raises(BadSubsystemError):
        discord_oracle_grid(pair_pre, True, 10)


def test_discord_oracle_is_its_grid_minimum_node_by_node(pair_pre, pair_post):
    # the general POVM route at every node of the oracle's 5 x 10 grid; a
    # slip in the sign or the side of the oracle's blocks moves its minimum
    theta = np.linspace(0.0, math.pi / 2.0, 5)
    phi = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    for rho in (pair_pre, pair_post, near_floor_pair(), random_mixed_pair(31)):
        for measured in (0, 1):
            best = min(conditional_entropy(rho, projective_pair(BlochAngles(t, p)), measured)
                       for t in theta for p in phi)
            want = (von_neumann_entropy(partial_trace(rho, [1 - measured]))
                    - von_neumann_entropy(rho) + best)
            assert abs(discord_oracle_grid(rho, measured, 5) - want) <= 1e-12


def test_discord_oracle_memory_stays_chunked(pair_post):
    # the 320,000 directions of resolution 400 in one chunk peak near 98 MB
    tracemalloc.start()
    try:
        discord_oracle_grid(pair_post, 1, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_concurrence_extremes(bell_pair):
    assert abs(concurrence(bell_pair) - 1.0) < 1e-9
    product = DensityMatrix(kron(np.diag([0.3, 0.7]), np.eye(2) / 2), (2, 2))
    assert concurrence(product) < 1e-9


def test_concurrence_entangled_pair_closed_form(entangled_pair):
    # an X-state: concurrence = 2 * max(0, |m03| - sqrt(m11*m22))
    m = entangled_pair.mat
    assert abs(m[0, 1]) < 1e-12 and abs(m[0, 2]) < 1e-12
    hand = 2.0 * max(0.0, abs(m[0, 3]) - math.sqrt(m[1, 1].real * m[2, 2].real))
    assert abs(hand - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(concurrence(entangled_pair) - hand) < 1e-9


def test_entangled_pair_fixture_matches_filtered_triple(entangled_pair):
    traced = partial_trace(density_from_pure(apply_filter(ghz3(), filter_e(), 2)), [2])
    assert np.allclose(traced.mat, entangled_pair.mat, atol=1e-12)


def test_filtered_pair_stays_separable(pair_post):
    assert concurrence(pair_post) < 1e-9
    assert eof_two_qubits(pair_post) < 1e-9


def test_concurrence_local_unitary_invariance(entangled_pair):
    rng = np.random.default_rng(210)
    base = concurrence(entangled_pair)
    for _ in range(4):
        ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = kron(ua, ub)
        rotated = DensityMatrix(u @ entangled_pair.mat @ u.conj().T, (2, 2))
        # the pair is rank-2; the tau route takes no square root of its zero
        # eigenvalues, so only rounding separates the two values
        assert abs(concurrence(rotated) - base) < 1e-12


def test_j_and_d_are_local_unitary_invariant():
    # Newton starts from the pole (0, 0, 1), which depends on the basis; the
    # minimum it reaches may not
    rng = np.random.default_rng(47)
    worst = 0.0
    for rho in adversarial_pairs(812, 10) + [rho for rho, _ in near_tie_pairs()]:
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
        turned = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
        for measured in (0, 1):
            for measure in (classical_correlation, discord):
                worst = max(worst, abs(measure(turned, measured).value
                                       - measure(rho, measured).value))
    assert worst <= 1e-9


def test_concurrence_of_pure_pairs_is_twice_the_determinant():
    # a|00> + b|01> + c|10> + d|11> has C = 2|ad - bc|; these rank-1 states
    # are where a square root of sqrt(rho) rho~ sqrt(rho)'s ~1e-16
    # eigenvalues would add ~1e-8
    for seed in range(200):
        psi = random_pure_state((2, 2), seed)
        a, b, c, d = psi.amplitudes
        assert abs(concurrence(density_from_pure(psi)) - 2.0 * abs(a * d - b * c)) < 1e-14


def test_concurrence_matches_spin_flip_route_on_full_rank_pairs():
    # hand-built oracle: the lambdas as square roots of the eigenvalues of
    # sqrt(rho) rho~ sqrt(rho), all from np.linalg.eigh
    y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(y, y)
    entangled = 0
    for seed in range(500):
        rho = random_mixed_pair(seed)
        w, v = np.linalg.eigh(rho.mat)
        assert w[0] > 0
        root = (v * np.sqrt(w)) @ v.conj().T
        lam2 = np.linalg.eigh(root @ yy @ rho.mat.conj() @ yy @ root)[0]
        lam = np.sqrt(np.clip(lam2, 0.0, None))[::-1]
        hand = min(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0), 1.0)
        assert abs(concurrence(rho) - hand) < 1e-12
        entangled += hand > 0
    assert entangled > 250  # most Hilbert-Schmidt pairs are entangled


def test_eof_values(entangled_pair, bell_pair, entropy_constant):
    assert abs(eof_two_qubits(bell_pair) - 1.0) < 1e-9
    product = DensityMatrix(kron(np.eye(2) / 2, np.eye(2) / 2), (2, 2))
    assert eof_two_qubits(product) < 1e-9
    c = 1.0 / math.sqrt(2.0)
    expect = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    assert abs(expect - entropy_constant) < 1e-12
    assert abs(eof_two_qubits(entangled_pair) - expect) < 1e-9


def test_eof_monotone_in_schmidt_weight():
    # |psi> = a|00> + b|11>: concurrence 2ab grows to a=b then falls
    previous = -1.0
    for alpha in np.linspace(0.05, 0.5, 8):
        amp = np.zeros(4, dtype=complex)
        amp[0] = math.sqrt(alpha)
        amp[3] = math.sqrt(1.0 - alpha)
        rho = density_from_pure(PureState(amp, (2, 2)))
        e = eof_two_qubits(rho)
        assert e > previous
        previous = e


def test_residual_identity_on_shared_triple():
    psi = ghz3()
    for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        r = koashi_winter_residual(psi, a, b, c)
        assert RESIDUAL_LOW <= r <= RESIDUAL_HIGH


def test_residual_identity_on_filtered_triple():
    psi = apply_filter(ghz3(), filter_e(), 2)
    for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        r = koashi_winter_residual(psi, a, b, c)
        assert RESIDUAL_LOW <= r <= RESIDUAL_HIGH


def test_residual_vanishes_on_sampled_pure_triples():
    # the pair marginals of a pure triple have rank 2; with E_F(AB) exact
    # there, the residual is rounding, far inside the audit window
    rng = np.random.default_rng(7)
    for _ in range(8):
        psi = sample_pure_state((2, 2, 2), rng)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert abs(koashi_winter_residual(psi, a, b, c)) <= 1e-11


def test_residual_rejects_bad_indices():
    psi = ghz3()
    with pytest.raises(BadPermutationError):
        koashi_winter_residual(psi, 0, 1, 1)
    with pytest.raises(DimMismatchError):
        koashi_winter_residual(random_pure_state((2, 4), 211), 0, 1, 2)


def test_kw_audit_deterministic_and_bounded():
    first = kw_audit(3, 17)
    second = kw_audit(3, 17)
    assert first == second
    assert isinstance(first, AuditSummary)
    assert first.count == 3 and first.seed == 17
    assert first.within_bounds
    assert first.min_residual <= first.mean_residual <= first.max_residual
    for count, seed in ((0, 17), (1, -1)):
        with pytest.raises(OutOfRangeError):
            kw_audit(count, seed)


def test_counts_must_be_integers(pair_pre):
    # 2.5 would escape as a TypeError and True would count as 1
    for count, seed in ((2.5, 7), (True, 7), (2, 7.0), (2, False)):
        with pytest.raises(OutOfRangeError):
            kw_audit(count, seed)
    for resolution in (2.5, True, 0):
        with pytest.raises(OutOfRangeError):
            discord_oracle_grid(pair_pre, 1, resolution)
    assert kw_audit(np.int64(2), np.int32(7)) == kw_audit(2, 7)
    assert discord_oracle_grid(pair_pre, 1, np.int64(8)) == discord_oracle_grid(pair_pre, 1, 8)


@pytest.mark.parametrize("seed, cfg", [
    (0, None), (17, None), (29, dict(NEWTON_MAXITER=120))])
def test_kw_audit_equals_residual_over_the_same_states(seed, cfg, optimizer_constants):
    # the audit shares each state's marginals across labelings; every
    # residual must still be the one koashi_winter_residual computes alone,
    # under the default optimizer constants and under others
    with optimizer_constants(**(cfg or {})):
        summary = kw_audit(4, seed)
        rng = np.random.default_rng(seed)
        residuals = np.array([koashi_winter_residual(psi, a, b, c)
                              for psi in [sample_pure_state((2, 2, 2), rng) for _ in range(4)]
                              for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))])
    assert (summary.min_residual, summary.max_residual, summary.mean_residual) == (
        float(residuals.min()), float(residuals.max()), float(residuals.mean()))


def test_kw_audit_decomposes_each_state_once(monkeypatch):
    counts = count_calls(monkeypatch, density_from_pure, partial_trace, minimize)
    kw_audit(1, 3)
    # one rho, three single-qubit marginals and three pair marginals; J reads
    # S(unmeasured) from the pair's Bloch form
    assert counts == {"density_from_pure": 1, "partial_trace": 6, "minimize": 3}


def test_residual_minimizes_only_its_own_labeling(monkeypatch):
    psi = sample_pure_state((2, 2, 2), np.random.default_rng(3))
    counts = count_calls(monkeypatch, minimize)
    for n, (a, b, c) in enumerate(((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)), start=1):
        koashi_winter_residual(psi, a, b, c)
        assert counts == {"minimize": n}


def test_build_report_splits_the_state_once(monkeypatch):
    counts = count_calls(monkeypatch, density_from_pure, partial_trace, mutual_information,
                         minimize)
    build_report(apply_filter(ghz3(), filter_e(), 2), "post")
    # the three single-qubit and three pair marginals serve the table, the
    # residuals and I_q(AC); one minimization per (pair, measured side)
    assert counts == Counter(density_from_pure=1, partial_trace=6, mutual_information=0,
                             minimize=6)


def test_optimizer_agrees_with_refined_fine_grid_on_adversarial_states(monkeypatch,
                                                                         grid_minima):
    # the unrotated near-tie family holds X states whose pole is a saddle point
    cases = ([(rho, m) for rho in adversarial_pairs(808, 20) for m in (0, 1)]
             + near_tie_pairs() + unrotated_near_tie_pairs())
    references = reference_minima(cases, grid_minima)
    calls = recording_minimize(monkeypatch)
    worst = max(_min_conditional_entropy(_bloch_form(rho.mat, measured))[0] - ref
                for (rho, measured), ref in zip(cases, references))
    assert worst <= 1e-9
    assert len(calls) == len(cases)
    assert [result for result in calls if not result.success] == []


def test_newton_escapes_a_saddle_at_the_pole(grid_minima):
    # without the escape Newton stops on any such pole: the gradient vanishes
    # by symmetry, so the shifted Newton step is zero
    pole, e1, e2 = (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)
    escaped = 0
    cases = unrotated_near_tie_pairs()[:300]
    for (rho, measured), ref in zip(cases, reference_minima(cases, grid_minima)):
        form = _bloch_form(rho.mat, measured)
        g1, g2, h11, h12, h22 = _tangent_derivatives(form, pole, e1, e2)
        assert max(abs(g1), abs(g2)) <= 1e-12
        below = h11 * h22 - h12 * h12 < 0.0 or h11 + h22 < 0.0
        if not (below and ref < _pair_entropy(form, *pole) - 1e-9):
            continue
        res = minimize(lambda x: _pair_entropy(form, *x), pole, alternatives=[],
                       derivatives=lambda *a: _tangent_derivatives(form, *a),
                       maxiter=qcorr.correlations.NEWTON_MAXITER)
        assert res.fun <= ref + 1e-12 and res.success
        escaped += 1
    assert escaped >= 5


def test_min_entropy_below_every_coarse_node_on_filtered_pair(monkeypatch, grid_minimum,
                                                               pair_post):
    calls = recording_minimize(monkeypatch)
    best = _min_conditional_entropy(_bloch_form(pair_post.mat, 1))[0]
    assert best <= grid_minimum(pair_post.mat, 1, 16)[0] + 1e-12
    assert len(calls) == 1


def test_min_entropy_below_every_coarse_node_on_random_states(monkeypatch, grid_minimum):
    # the minimum may not rise above any node of the test-side 16 x 32 grid
    calls = recording_minimize(monkeypatch)
    mats = [random_mixed_pair(300 + seed).mat for seed in range(3)]
    mats += [rho.mat for rho in adversarial_pairs(45, 2)]
    for mat in mats:
        for measured in (0, 1):
            best = _min_conditional_entropy(_bloch_form(mat, measured))[0]
            assert best <= grid_minimum(mat, measured, 16)[0] + 1e-12
    assert len(calls) == 2 * len(mats)


def test_kernel_matches_scalar_conditional_entropy(pair_pre, pair_post, bell_pair,
                                                   grid_minimum):
    targets = (pair_pre, pair_post, bell_pair, product_pair(), near_floor_pair(),
               random_mixed_pair(400))
    for target in targets:
        for measured in (0, 1):
            form = _bloch_form(target.mat, measured)
            for theta, phi in [(0.0, 0.0), (0.7, 1.9), (1.4, 5.0), (math.pi / 2, math.pi)]:
                n = BlochAngles(theta, phi).direction()
                on_floats = _pair_entropy(form, *n.tolist())
                scalar = conditional_entropy(
                    target, projective_pair(BlochAngles(theta, phi)), measured)
                assert abs(on_floats - scalar) < 1e-12
            # the test-side grid's 1 x 2 nodes are both the pole
            pole = conditional_entropy(target, projective_pair(BlochAngles(0.0, 0.0)), measured)
            assert abs(grid_minimum(target.mat, measured, 1)[0] - pole) < 1e-12
    # one trine: three coplanar effects (1 + v_k.sigma)/3 at 120 degrees in a tilted plane
    e1 = np.array([math.cos(0.4), 0.0, -math.sin(0.4)])
    e2 = np.array([0.0, 1.0, 0.0])
    vecs = [math.cos(0.3 + 2 * math.pi * k / 3) * e1 + math.sin(0.3 + 2 * math.pi * k / 3) * e2
            for k in range(3)]
    sigma = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
    trine = Povm(tuple((np.eye(2) + sum(v[i] * sigma[i] for i in range(3))) / 3.0 for v in vecs))
    for target in (pair_post, targets[-1]):
        for measured in (0, 1):
            form = _bloch_form(target.mat, measured)
            cell = sum(_effect_entropy(form, *v, 1.0 / 3.0) for v in vecs)
            assert abs(cell - conditional_entropy(target, trine, measured)) < 1e-12


def tangent_frame(rng) -> tuple:
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    e1 = np.cross(n, rng.normal(size=3))
    e1 /= np.linalg.norm(e1)
    return n, e1, np.cross(n, e1)


def test_tangent_derivatives_match_central_differences():
    # the normalizing retraction is second order, so f(n + t1 e1 + t2 e2),
    # renormalized, has the sphere's gradient and Hessian at t = 0
    rng = np.random.default_rng(41)
    splits = (1e-3, 1e-5)
    states = [random_mixed_pair(seed) for seed in (500, 501, 502)]
    for split in splits:
        u = random_unitary(rng, 4)
        states.append(density((u * (0.25 + split * rng.normal(size=4))) @ u.conj().T))
    for _ in range(3):
        states.append(partial_trace(density_from_pure(sample_pure_state((2, 2, 2), rng)), [2]))
    h = 1e-4
    checked = 0
    for rho in states:
        for measured in (0, 1):
            form = _bloch_form(rho.mat, measured)
            for _ in range(3):
                n, e1, e2 = tangent_frame(rng)

                def f(t1, t2):
                    x = n + t1 * e1 + t2 * e2
                    return _pair_entropy(form, *(x / np.linalg.norm(x)))

                g1, g2, h11, h12, h22 = _tangent_derivatives(form, *(tuple(v) for v in (n, e1, e2)))
                fd_g = ((f(h, 0) - f(-h, 0)) / (2 * h), (f(0, h) - f(0, -h)) / (2 * h))
                f0 = f(0, 0)
                fd_h = ((f(h, 0) - 2 * f0 + f(-h, 0)) / h**2,
                        (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h),
                        (f(0, h) - 2 * f0 + f(0, -h)) / h**2)
                scale = max(map(abs, (h11, h12, h22)))
                assert max(abs(a - b) for a, b in zip((g1, g2), fd_g)) <= 1e-7 * scale + 1e-11
                assert max(abs(a - b) for a, b in zip((h11, h12, h22), fd_h)) <= 1e-5 * scale + 1e-7
                checked += 1
    assert checked == 6 * len(states)


def test_newton_never_ends_above_its_first_start(monkeypatch, optimizer_constants):
    rng = np.random.default_rng(43)
    outcomes = set()
    for rho in adversarial_pairs(44, 3):
        for measured in (0, 1):
            form = _bloch_form(rho.mat, measured)
            for maxiter in (1, 200):
                x0 = tuple(tangent_frame(rng)[0].tolist())
                res = minimize(lambda x: _pair_entropy(form, *x), x0,
                               alternatives=[tuple(v) for v in np.eye(3)], maxiter=maxiter,
                               derivatives=lambda *a: _tangent_derivatives(form, *a))
                assert res.fun <= _pair_entropy(form, *x0)
                assert res.fun == _pair_entropy(form, *res.x)
                outcomes.add((maxiter, res.success))
    assert {(1, False), (200, True)} <= outcomes and (200, False) not in outcomes
    # through the optimizer: one Newton step per start cannot converge here
    calls = recording_minimize(monkeypatch)
    mat = random_mixed_pair(20).mat
    with optimizer_constants(NEWTON_MAXITER=1):
        _min_conditional_entropy(_bloch_form(mat, 1))
    _min_conditional_entropy(_bloch_form(mat, 1))
    assert [result.success for result in calls] == [False, True]


# -- the Koashi-Winter floor ----------------------------------------------------

def purification_floor(rho: DensityMatrix, measured: int) -> float:
    """E_F(rho_uP) by the public route, sharing no code with _kw_floor: the
    purification psi = sum_i sqrt(lam_i) |v_i>|i> over the two largest
    eigenpairs as a PureState of dims (2, 2, 2), its density matrix, the
    measured qubit traced out, and eof_two_qubits."""
    lam, vecs = rho.spectrum, rho.eigenvectors
    amps = sum(math.sqrt(max(lam[i], 0.0)) * np.kron(vecs[:, i], np.eye(2)[i - 2]) for i in (2, 3))
    return eof_two_qubits(partial_trace(density_from_pure(PureState(amps, (2, 2, 2))), [measured]))


def audit_pairs(count: int) -> list[DensityMatrix]:
    """The pair marginals of the first count triples kw_audit(count, 7) draws."""
    rng = np.random.default_rng(7)
    rhos = [density_from_pure(sample_pure_state((2, 2, 2), rng)) for _ in range(count)]
    return [partial_trace(rho, [k]) for rho in rhos for k in range(3)]


def test_kw_floor_is_the_purification_eof_and_bounds_every_minimum(monkeypatch):
    # every pair the scenario and the audit minimize has rank 2, so every
    # minimum must be certified, and none may lie below the floor
    records = []
    real_floor, real_min = _kw_floor, _min_conditional_entropy

    def floor(rho, measured):
        records.append([rho, measured, real_floor(rho, measured)])
        return records[-1][2]

    def min_entropy(form, floor=None):
        records[-1].append(real_min(form, floor))
        return records[-1][3]

    monkeypatch.setattr(qcorr.correlations, "_kw_floor", floor)
    monkeypatch.setattr(qcorr.correlations, "_min_conditional_entropy", min_entropy)
    run_scenario()
    assert len(records) == 12
    kw_audit(100, 7)
    assert len(records) == 312
    for rho, measured, floor, (best, _, _) in records:
        assert floor is not None
        assert abs(floor - purification_floor(rho, measured)) <= 1e-12
        assert floor - 1e-13 <= best <= floor + CERTIFY_TOL


def slightly_negative_pair() -> DensityMatrix:
    """A state whose lowest eigenvalue, -9e-11, is inside the PSD tolerance:
    its two lowest eigenvalues sum to 5e-13, their magnitudes to 1.8e-10."""
    v = random_unitary(np.random.default_rng(3), 4)
    return DensityMatrix((v * [-9e-11, 9.05e-11, 0.3, 0.7 - 5e-13]) @ v.conj().T, (2, 2))


def test_states_above_rank_two_get_no_floor_and_both_starts(monkeypatch):
    # full-rank states, near_floor_pair, whose two lowest eigenvalues sum to
    # 1.5e-12, just above RANK2_MASS, and a state whose two lowest eigenvalues
    # cancel in sum but discard 1.8e-10 in magnitude
    calls = []
    real_minimize = qcorr.correlations.minimize

    def recording(*args, **kwargs):
        calls.append(kwargs["floor"])
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(qcorr.correlations, "minimize", recording)
    states = [rho for rho in adversarial_pairs(808, 5) if rho.spectrum[0] > RANK2_MASS]
    assert len(states) >= 15
    assert RANK2_MASS < sum(near_floor_pair().spectrum[:2]) <= 2 * RANK2_MASS
    negative = slightly_negative_pair()
    assert negative.spectrum[0] < 0.0 and sum(negative.spectrum[:2]) <= RANK2_MASS
    for rho in states + [near_floor_pair(), negative]:
        for measured in (0, 1):
            assert _kw_floor(rho, measured) is None
            found = _minimize_side(rho, measured)[3:]
            assert found == _min_conditional_entropy(_bloch_form(rho.mat, measured))
    assert set(calls) == {None}


def test_an_unreachable_floor_gives_the_result_without_one(monkeypatch):
    # with a floor of -1 both starts run, axis first; value, angles and
    # evaluations must still be the ones without a floor, bit for bit
    pairs = audit_pairs(10) + adversarial_pairs(808, 5)[2 * 5:3 * 5]  # the traced(2) kind
    plain = [_min_conditional_entropy(_bloch_form(rho.mat, m)) for rho in pairs for m in (0, 1)]
    certified = [_minimize_side(DensityMatrix(rho.mat, (2, 2)), m)[3:]
                 for rho in pairs for m in (0, 1)]
    assert sum(c[2] < p[2] for c, p in zip(certified, plain)) >= len(plain) // 2
    monkeypatch.setattr(qcorr.correlations, "_kw_floor", lambda rho, measured: -1.0)
    unreachable = [_minimize_side(DensityMatrix(rho.mat, (2, 2)), m)[3:]
                   for rho in pairs for m in (0, 1)]
    assert unreachable == plain


def test_near_ties_above_the_floor_run_both_starts():
    # rank-2 near-tie X states whose projective minimum ends 2.2e-12 to
    # 2.8e-11 above the floor: none may certify, so each must equal the
    # minimization without a floor, evaluations included, bit for bit
    cases = [(near_tie_pairs()[72][0], m) for m in (0, 1)]
    cases += [(adversarial_pairs(4, 20)[127], m) for m in (0, 1)]
    cases += [(adversarial_pairs(14, 20)[121], 0)]
    for rho, measured in cases:
        floor = _kw_floor(rho, measured)
        plain = _min_conditional_entropy(_bloch_form(rho.mat, measured))
        assert floor is not None and plain[0] > floor + CERTIFY_TOL
        assert _minimize_side(DensityMatrix(rho.mat, (2, 2)), measured)[3:] == plain


def test_an_outcome_of_tiny_probability_keeps_the_minimum_on_its_floor():
    # measured along z, this X state's qubit 1 reads 1 with probability
    # 4.1e-16; a kernel that counts outcomes up to 1e-12 as 0 bits lets the
    # minimum sink 4.46e-13 below the floor, after 129 evaluations
    rho = unrotated_near_tie_pairs()[338][0]
    best, evals = _minimize_side(rho, 1)[3::2]
    assert abs(best - _kw_floor(rho, 1)) <= 1e-15
    assert evals <= 10


def test_with_a_floor_the_objective_is_first_called_at_the_pole(monkeypatch, entangled_pair):
    # bench/tracer.py reads the first objective value as the start's
    seen = []
    real_minimize = qcorr.correlations.minimize

    def first_point(fun, x0, **kwargs):
        points = []

        def objective(x):
            points.append(tuple(x))
            return fun(x)

        res = real_minimize(objective, x0, **kwargs)
        seen.append((x0, points[0], kwargs["floor"], res.fun))
        return res

    monkeypatch.setattr(qcorr.correlations, "minimize", first_point)
    rho = DensityMatrix(entangled_pair.mat, (2, 2))
    for measured in (0, 1):
        classical_correlation(rho, measured)
    assert len(seen) == 2
    for x0, first, floor, best in seen:
        assert x0 == first == (0.0, 0.0, 1.0)
        assert floor is not None and best <= floor + CERTIFY_TOL


def pure_near_floor_pairs(seed: int, count: int) -> list[DensityMatrix]:
    """Pure states sqrt(1 - delta) |0>|u0> + sqrt(delta) |1>|u1>, delta in
    [10^-12.5, 1e-11], u a random qubit unitary: measuring qubit 0 along z
    gives an outcome of probability delta."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        delta = 10.0 ** rng.uniform(-12.5, -11.0)
        u = random_unitary(rng, 2)
        psi = (math.sqrt(1.0 - delta) * np.kron([1.0, 0.0], u[:, 0])
               + math.sqrt(delta) * np.kron([0.0, 1.0], u[:, 1]))
        pairs.append(DensityMatrix(np.outer(psi, psi.conj()), (2, 2)))
    return pairs


def test_a_saddle_escape_tries_one_point_per_halving():
    # on these states the axis start sits at its floor to rounding, the weak
    # outcome curves the Hessian down, and the escape's halvings all fail;
    # they take 1,040 evaluations in all, and 1,550 if each halving also
    # tried the opposite sign
    evals = sum(_minimize_side(rho, measured)[5]
                for rho in pure_near_floor_pairs(2, 50) for measured in (0, 1))
    assert evals <= 1200


def test_certification_cuts_the_audit_evaluations():
    # fails if certification stops firing, say because the rank test or the
    # floor regressed; the ratio is about 0.48
    certified = uncertified = 0
    for pair in audit_pairs(50):
        for measured in (0, 1):
            certified += classical_correlation(pair, measured).optimizer_evals
            uncertified += _min_conditional_entropy(_bloch_form(pair.mat, measured))[2]
    assert certified <= 0.6 * uncertified
