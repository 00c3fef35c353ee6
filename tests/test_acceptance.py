"""Acceptance suite: every shipping criterion, one PASS/FAIL line each.

Each test prints its verdict to the real terminal (capture suspended)
so a plain `pytest tests/test_acceptance.py` run shows the full
scoreboard, then asserts. Expected values come from closed forms or
independent oracles built inside the test, never from the code under
test.
"""
import math

import numpy as np
import pytest

import qcorr.correlations
from qcorr import (
    BlochAngles,
    DensityMatrix,
    apply_filter,
    classical_correlation,
    concurrence,
    density_from_pure,
    discord,
    discord_oracle_grid,
    eof_two_qubits,
    koashi_winter_residual,
    kw_audit,
    measure_subsystem,
    mutual_information,
    partial_trace,
    projective_pair,
    random_pure_state,
    von_neumann_entropy,
)
from qcorr.scenario import filter_e, ghz3

ROOT2 = math.sqrt(2.0)
# binary entropy of (2 + sqrt(2))/4, written out independently
S0 = (math.log(8.0) - ROOT2 * math.atanh(1.0 / ROOT2)) / math.log(4.0)


@pytest.fixture
def criterion(capfd):
    def _emit(name: str, ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _emit


def _random_pair(seed: int) -> DensityMatrix:
    # full-rank two-qubit state: trace out half of a random (2,2,4) pure state
    return partial_trace(density_from_pure(random_pure_state((2, 2, 4), seed)), [2])


def test_filtered_marginal_entropy_constant(criterion):
    # route one: hand-built marginal; route two: partial trace of the triple
    hand = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]]), (2,))
    traced = partial_trace(density_from_pure(apply_filter(ghz3(), filter_e(), 2)), [0, 1])
    dev = max(abs(von_neumann_entropy(hand) - S0),
              abs(von_neumann_entropy(traced) - S0))
    criterion("filtered_marginal_entropy", dev <= 1e-12,
               f"|S - closed form| = {dev:.3e} (tol 1e-12)")


def test_discord_created_one_way(criterion, scenario_reports):
    _, post = scenario_reports
    left = post.pairwise_discord["AC_measureC"]
    right = post.pairwise_discord["AC_measureA"]
    dev_left = abs(left - (2.0 * S0 - 1.0))
    ok = dev_left <= 1e-4 and abs(right) <= 1e-6
    criterion("discord_created_one_way", ok,
               f"D measuring C = {left:.9f} (target {2.0 * S0 - 1.0:.9f}, tol 1e-4), "
               f"D measuring A = {right:.2e} (tol 1e-6)")


def test_classical_table_before_filter(criterion, scenario_reports):
    pre, _ = scenario_reports
    eof_dev = max(abs(v) for v in pre.pairwise_eof.values())
    j_dev = max(abs(v - 1.0) for v in pre.pairwise_j.values())
    marg_dev = max(abs(v - 1.0) for v in pre.marginal_entropies.values())
    bip_dev = max(abs(v - 1.0) for v in pre.bipartition_entropies.values())
    ok = (eof_dev <= 1e-9 and j_dev <= 1e-4
          and marg_dev <= 1e-12 and bip_dev <= 1e-9)
    criterion("classical_table_before_filter", ok,
               f"max|eof| = {eof_dev:.2e} (tol 1e-9), max|J-1| = {j_dev:.2e} (tol 1e-4), "
               f"max|S-1| = {marg_dev:.2e} (tol 1e-12), "
               f"max|S_pair-1| = {bip_dev:.2e} (tol 1e-9)")


def test_classical_correlation_drop(criterion, scenario_reports):
    _, post = scenario_reports
    left = post.pairwise_j["AC_measureC"]
    right = post.pairwise_j["AC_measureA"]
    dev = max(abs(left - (1.0 - S0)), abs(right - S0))
    criterion("classical_correlation_drop", dev <= 1e-4,
               f"J measuring C = {left:.7f} (target {1.0 - S0:.7f}), "
               f"J measuring A = {right:.7f} (target {S0:.7f}), tol 1e-4")


def test_entanglement_created_between_unfiltered(criterion, scenario_reports):
    _, post = scenario_reports
    pair = partial_trace(density_from_pure(apply_filter(ghz3(), filter_e(), 2)), [2])
    # X-state oracle: concurrence = 2 * max(0, |m03| - sqrt(m11 m22))
    m = pair.mat
    oracle = 2.0 * max(0.0, abs(m[0, 3]) - math.sqrt(abs(m[1, 1] * m[2, 2])))
    c = concurrence(pair)
    ok = (abs(c - 1.0 / ROOT2) <= 1e-9 and abs(c - oracle) <= 1e-9
          and abs(post.pairwise_eof["AB"] - S0) <= 1e-9)
    criterion("entanglement_created", ok,
               f"concurrence = {c:.9f} (target {1.0 / ROOT2:.9f}, "
               f"closed-form oracle {oracle:.9f}), "
               f"eof_AB = {post.pairwise_eof['AB']:.9f} (target {S0:.9f}), tol 1e-9")


def test_mutual_information_drop(criterion, scenario_reports):
    pre, post = scenario_reports
    dev_pre = abs(pre.mutual_information_ac - 1.0)
    dev_post = abs(post.mutual_information_ac - S0)
    criterion("mutual_information_drop", max(dev_pre, dev_post) <= 1e-9,
               f"I_q pre = {pre.mutual_information_ac:.9f} (target 1), "
               f"post = {post.mutual_information_ac:.9f} (target {S0:.9f}), tol 1e-9")


def test_entropy_identity_residuals(criterion):
    lo, hi = -1e-6, 2e-3
    residuals = []
    for psi in (ghz3(), apply_filter(ghz3(), filter_e(), 2)):
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            residuals.append(koashi_winter_residual(psi, a, b, c))
    summary = kw_audit(100, 7)
    ok = (all(lo <= r <= hi for r in residuals) and summary.within_bounds)
    criterion("entropy_identity_residuals", ok,
               f"demo states in [{min(residuals):.2e}, {max(residuals):.2e}]; "
               f"300 audited residuals in [{summary.min_residual:.2e}, "
               f"{summary.max_residual:.2e}]; bounds [-1e-6, 2e-3]")


def test_filter_operator_equivalence(criterion, scenario_reports):
    pre, post = scenario_reports
    dist = post.filter_equivalence_distance
    ok = (dist is not None and dist <= 1e-12
          and abs(pre.purity - 1.0) <= 1e-9 and abs(post.purity - 1.0) <= 1e-9)
    criterion("filter_operator_equivalence", ok,
               f"two-route distance = {dist:.2e} (tol 1e-12), "
               f"purity pre/post = {pre.purity:.12f}/{post.purity:.12f} (tol 1e-9)")


def test_optimizer_agrees_with_exhaustive_grid(criterion, pair_pre, pair_post):
    worst = 0.0
    for rho in (pair_pre, pair_post):
        for measured in (0, 1):
            gap = abs(discord_oracle_grid(rho, measured, 400)
                      - discord(rho, measured).value)
            worst = max(worst, gap)
    for k in range(50):
        rho = _random_pair(2000 + k)
        measured = k % 2
        gap = abs(discord_oracle_grid(rho, measured, 400)
                  - discord(rho, measured).value)
        worst = max(worst, gap)
    criterion("optimizer_vs_exhaustive_grid", worst <= 1e-4,
               f"max |grid - optimizer| = {worst:.2e} over 54 states (tol 1e-4)")


def test_property_suites(criterion, pair_pre, pair_post, monkeypatch, grid_minimum):
    # bipartition entropy equality on random pure tripartite states
    bip_dev = 0.0
    for seed in range(5):
        for dims in ((2, 2, 2), (2, 2, 4)):
            rho = density_from_pure(random_pure_state(dims, 3000 + seed))
            for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
                drop = [k for k in range(3) if k not in keep]
                s_keep = von_neumann_entropy(partial_trace(rho, drop))
                s_drop = von_neumann_entropy(partial_trace(rho, keep))
                bip_dev = max(bip_dev, abs(s_keep - s_drop))

    # POVM completeness and probability conservation
    povm_dev = 0.0
    prob_dev = 0.0
    rng = np.random.default_rng(3100)
    for _ in range(10):
        angles = BlochAngles(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        povm = projective_pair(angles)
        povm_dev = max(povm_dev, np.abs(sum(povm.effects) - np.eye(2)).max())
        rho = _random_pair(int(rng.integers(4000, 5000)))
        total = sum(o.probability for o in measure_subsystem(rho, povm, 1))
        prob_dev = max(prob_dev, abs(total - 1.0))

    # J at least what the best node of a test-side 16 x 32 grid gives: the
    # optimizer's minimum conditional entropy lies below every node
    minimizations = []
    real_minimize = qcorr.correlations.minimize

    def counting(*args, **kwargs):
        minimizations.append(args)
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(qcorr.correlations, "minimize", counting)
    below_grid = True
    for rho in (pair_post, _random_pair(3200)):
        fresh = DensityMatrix(rho.mat, (2, 2))  # its own memo, so the count below holds
        s_u = von_neumann_entropy(partial_trace(fresh, [1]))
        j = classical_correlation(fresh, 1).value
        below_grid = below_grid and s_u - j <= grid_minimum(rho.mat, 1, 16)[0] + 1e-12
    assert len(minimizations) == 2

    # discord equals total minus classical correlations on every call
    form_dev = 0.0
    cases = [(pair_pre, 0), (pair_pre, 1), (pair_post, 0), (pair_post, 1)]
    cases += [(_random_pair(3300 + k), k % 2) for k in range(5)]
    for rho, measured in cases:
        d = discord(rho, measured).value
        j = classical_correlation(rho, measured).value
        form_dev = max(form_dev, abs(d - (mutual_information(rho, [0]) - j)))

    ok = (bip_dev <= 1e-9 and povm_dev <= 1e-10 and prob_dev <= 1e-10
          and below_grid and form_dev <= 1e-9)
    criterion("property_suites", ok,
               f"bipartition entropy gap = {bip_dev:.2e} (tol 1e-9), "
               f"POVM completeness = {povm_dev:.2e}, probability sum = {prob_dev:.2e} "
               f"(tol 1e-10), J above 16x32 grid = {below_grid}, "
               f"|D - (I_q - J)| = {form_dev:.2e} (tol 1e-9)")
