import dataclasses
import math

import numpy as np
import pytest

import qcorr.cli
import qcorr.correlations
import qcorr.report
import qcorr.scenario
from qcorr import (
    acceptance_checks,
    apply_filter,
    classical_correlation,
    density_from_pure,
    discord,
    koashi_winter_residual,
    mutual_information,
    partial_trace,
    run_scenario,
    von_neumann_entropy,
)
from qcorr.scenario import (
    LABELS,
    PAIRS,
    build_report,
    filter_e,
    ghz3,
    operator_mab,
    reference_values,
)
from qcorr.states import sample_pure_state

ROOT2 = math.sqrt(2.0)


def test_ghz3_amplitudes():
    psi = ghz3()
    assert psi.dims == (2, 2, 2)
    expect = np.zeros(8, dtype=complex)
    expect[0] = expect[7] = 1.0 / ROOT2
    assert np.allclose(psi.amplitudes, expect, atol=1e-15)


def test_filter_values_and_nonunitarity():
    e = filter_e()
    assert np.allclose(e, [[1.0, 1.0 / ROOT2], [0.0, 1.0 / ROOT2]], atol=1e-15)
    gram = e.conj().T @ e
    assert np.allclose(gram, [[1.0, 1.0 / ROOT2], [1.0 / ROOT2, 1.0]], atol=1e-12)
    assert np.linalg.norm(gram - np.eye(2)) > 0.1


def test_operator_mab_values_and_nonunitarity():
    m = operator_mab()
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    expect[3, 0] = expect[3, 3] = 1.0 / ROOT2
    assert np.allclose(m, expect, atol=1e-15)
    assert np.linalg.norm(m.conj().T @ m - np.eye(4)) > 0.1


def test_reference_values_consistent(entropy_constant):
    refs = reference_values()
    assert abs(refs.entropy_filtered - entropy_constant) < 1e-15
    assert abs(refs.discord_leftward - (2.0 * refs.entropy_filtered - 1.0)) < 1e-15
    assert abs(refs.classical_leftward - (1.0 - refs.entropy_filtered)) < 1e-15
    # closed form equals the entropy of the filtered marginal spectrum
    lam = np.array([(2.0 + ROOT2) / 4.0, (2.0 - ROOT2) / 4.0])
    direct = float(-(lam * np.log2(lam)).sum())
    assert abs(refs.entropy_filtered - direct) < 1e-12


def test_pre_report_is_maximally_classical(scenario_reports):
    pre, _ = scenario_reports
    assert pre.stage == "pre"
    assert pre.filter_equivalence_distance is None
    for v in pre.marginal_entropies.values():
        assert abs(v - 1.0) < 1e-12
    for v in pre.bipartition_entropies.values():
        assert abs(v - 1.0) < 1e-9
    for v in pre.pairwise_eof.values():
        assert abs(v) < 1e-9
    for v in pre.pairwise_j.values():
        assert abs(v - 1.0) < 1e-9
    for v in pre.pairwise_discord.values():
        assert abs(v) < 1e-6
    assert abs(pre.mutual_information_ac - 1.0) < 1e-9


def test_post_report_values(scenario_reports, entropy_constant):
    _, post = scenario_reports
    s0 = entropy_constant
    assert post.stage == "post"
    assert abs(post.marginal_entropies["A"] - 1.0) < 1e-9
    assert abs(post.marginal_entropies["B"] - 1.0) < 1e-9
    assert abs(post.marginal_entropies["C"] - s0) < 1e-12
    # purification: each pair entropy equals its complementary marginal
    assert abs(post.bipartition_entropies["AB"] - post.marginal_entropies["C"]) < 1e-9
    assert abs(post.bipartition_entropies["AC"] - post.marginal_entropies["B"]) < 1e-9
    assert abs(post.bipartition_entropies["BC"] - post.marginal_entropies["A"]) < 1e-9
    assert abs(post.pairwise_discord["AC_measureC"] - (2.0 * s0 - 1.0)) < 1e-9
    assert post.pairwise_discord["AC_measureA"] < 1e-6
    assert abs(post.pairwise_j["AC_measureC"] - (1.0 - s0)) < 1e-9
    assert abs(post.pairwise_j["AC_measureA"] - s0) < 1e-9
    assert abs(post.pairwise_eof["AB"] - s0) < 1e-9
    assert abs(post.mutual_information_ac - s0) < 1e-9
    assert post.filter_equivalence_distance is not None
    assert post.filter_equivalence_distance <= 1e-12


def test_report_residuals_match_direct_calls(scenario_reports):
    pre, post = scenario_reports
    perms = {"ABC": (0, 1, 2), "BCA": (1, 2, 0), "CAB": (2, 0, 1)}
    for psi, report in ((ghz3(), pre), (apply_filter(ghz3(), filter_e(), 2), post)):
        for key, (a, b, c) in perms.items():
            # one route: the report and the direct call share _kw_residual
            assert report.kw_residuals[key] == koashi_winter_residual(psi, a, b, c)


def test_report_mutual_information_matches_the_traced_route(scenario_reports):
    # the report takes I_q(AC) as S(A) + S(C) - S(AC) from its own split, where
    # mutual_information traces the pair AC again; both routes agree to rounding
    for psi, report in ((ghz3(), scenario_reports[0]),
                        (apply_filter(ghz3(), filter_e(), 2), scenario_reports[1])):
        pair_ac = partial_trace(density_from_pure(psi), [1])
        assert report.mutual_information_ac == mutual_information(pair_ac, [0])
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(200):
        psi = sample_pure_state((2, 2, 2), rng)
        pair_ac = partial_trace(density_from_pure(psi), [1])
        worst = max(worst, abs(build_report(psi, "pre").mutual_information_ac
                               - mutual_information(pair_ac, [0])))
    assert worst <= 1e-14


def test_scenario_minimizes_once_per_pair_and_side(monkeypatch):
    # 2 stages x 3 pairs x 2 measured sides, each shared by J and D
    calls = []
    real_minimize = qcorr.correlations.minimize

    def counting(*args, **kwargs):
        calls.append(args)
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(qcorr.correlations, "minimize", counting)
    pre, post = run_scenario()
    assert len(calls) == 12
    monkeypatch.undo()
    for psi, report in ((ghz3(), pre), (apply_filter(ghz3(), filter_e(), 2), post)):
        rho = density_from_pure(psi)
        for i, j in PAIRS:
            pair = partial_trace(rho, [k for k in range(3) if k not in (i, j)])
            for pos, label in ((0, LABELS[i]), (1, LABELS[j])):
                key = f"{LABELS[i]}{LABELS[j]}_measure{label}"
                assert report.pairwise_j[key] == classical_correlation(pair, pos).value
                assert report.pairwise_discord[key] == discord(pair, pos).value


def test_post_state_bipartite_entropy_identity():
    rho = density_from_pure(apply_filter(ghz3(), filter_e(), 2))
    s_ab = von_neumann_entropy(partial_trace(rho, [2]))
    s_c = von_neumann_entropy(partial_trace(rho, [0, 1]))
    assert abs(s_ab - s_c) < 1e-9


def test_acceptance_checks_all_pass(scenario_reports):
    checks = acceptance_checks(*scenario_reports)
    names = [c.name for c in checks]
    assert names == [
        "entropy_constant",
        "discord_asymmetry",
        "pre_table",
        "classical_drop",
        "entanglement_created",
        "mutual_information",
        "identity_residuals",
        "operator_equivalence",
    ]
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
        assert check.detail


def test_report_leaves_residuals_to_the_identity_window(scenario_reports):
    # a residual may fall below the floor of a measure yet inside the window;
    # only the identity_residuals check judges it, and it fails rather than raises
    pre, post = scenario_reports
    for residual, passed in ((-1e-8, True), (-1e-5, False)):
        moved = dataclasses.replace(post, kw_residuals={"ABC": residual, "BCA": 0.0, "CAB": 0.0})
        by_name = {c.name: c for c in acceptance_checks(pre, moved)}
        assert by_name["identity_residuals"].passed is passed


def test_details_print_the_bound_constants(monkeypatch, scenario_reports, capsys):
    monkeypatch.setattr(qcorr.scenario, "OPTIMIZED_TOL", 3e-5)
    # the residual window is bound once, in qcorr.correlations
    monkeypatch.setattr(qcorr.correlations, "RESIDUAL_LOW", -2.5e-7)
    by_name = {c.name: c for c in acceptance_checks(*scenario_reports)}
    assert "tol 3e-5" in by_name["discord_asymmetry"].detail
    assert by_name["classical_drop"].detail.endswith(", tol 3e-5")
    assert by_name["pre_table"].detail.count("(tol 3e-5)") == 1
    assert by_name["identity_residuals"].detail.endswith("bounds [-2.5e-7, 2e-3]")
    monkeypatch.undo()
    monkeypatch.setattr(qcorr.correlations, "RESIDUAL_HIGH", 5e-3)
    assert qcorr.cli.main(["kw-audit", "--count", "1"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("bounds [-1e-6, 5e-3]")


def test_operator_equivalence_fails_without_a_filter_distance(scenario_reports):
    # only a post stage carries the distance; judging a pre report in its
    # place must fail the check, not raise formatting None
    pre, _ = scenario_reports
    by_name = {c.name: c for c in acceptance_checks(pre, pre)}
    assert not by_name["operator_equivalence"].passed
    assert by_name["operator_equivalence"].detail.startswith("filter-route distance = unset (tol")


def test_operator_equivalence_alone_judges_purity(scenario_reports):
    # the report takes any purity; a post stage just past PURITY_TOL must
    # construct and fail the check, not raise before any check runs
    pre, post = scenario_reports
    mixed = dataclasses.replace(post, purity=1 - 2e-9)
    by_name = {c.name: c for c in acceptance_checks(pre, mixed)}
    assert not by_name["operator_equivalence"].passed
    assert all(c.passed for c in acceptance_checks(pre, post))


def test_acceptance_checks_fail_with_starved_optimizer(unrefined, optimizer_constants):
    # the pole with no refinement is not the optimal direction, so the
    # directional checks must report failure
    with optimizer_constants(NEWTON_MAXITER=1):
        pre, post = run_scenario()
    by_name = {c.name: c for c in acceptance_checks(pre, post)}
    assert not by_name["discord_asymmetry"].passed


def test_one_newton_step_from_the_axes_recovers_a_starved_grid(optimizer_constants):
    # the scenario's pairs are X states whose optimum is an axis, and the
    # state's own axes seed the refinement beside the pole, so even one
    # Newton step per start lands on target
    with optimizer_constants(NEWTON_MAXITER=1):
        pre, post = run_scenario()
    by_name = {c.name: c for c in acceptance_checks(pre, post)}
    assert by_name["discord_asymmetry"].passed


def test_build_report_stage_label_passthrough(optimizer_constants):
    with optimizer_constants(NEWTON_MAXITER=20):
        report = build_report(ghz3(), "pre")
        assert report.stage == "pre"
        with pytest.raises(Exception):
            build_report(ghz3(), "neither")
