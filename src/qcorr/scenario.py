"""The demonstration scenario: a classically correlated two-qubit state,
purified by a three-qubit GHZ state, subjected to a non-unitary local
filter on the last qubit.

The filter redistributes correlations: the originally classical pair
loses classical correlation, gains discord in one direction only, and
the two unfiltered qubits become entangled. Subsystem labels are fixed
as A=0, B=1, C=2 in tensor order; the filter acts on C.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import atanh, log, sqrt

import numpy as np

from .correlations import (
    _CYCLIC_PERMS,
    RESIDUAL_HIGH,
    RESIDUAL_LOW,
    _kw_residual,
    _triple_terms,
    classical_correlation,
    concurrence,
    discord,
)
from .entropy import von_neumann_entropy
from .linalg import frobenius_distance, kron
from .measurement import apply_filter, apply_global_operator
from .report import CorrelationReport, _fmt_bound, _residual_window
from .states import PureState, density_from_pure, partial_trace, purity

LABELS = ("A", "B", "C")
PAIRS = ((0, 1), (0, 2), (1, 2))

# acceptance bounds; residuals use correlations.RESIDUAL_*
EXACT_TOL = 1e-12  # closed-form entropies and the filter routes: equal up to rounding
CLOSED_FORM_TOL = 1e-9  # every other closed form
PURITY_TOL = 1e-9  # a pure stage's Tr[rho^2]
OPTIMIZED_TOL = 1e-4  # J and D, which come out of a minimization
VANISHING_TOL = 1e-6  # a discord that must vanish


def ghz3() -> PureState:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / sqrt(2.0)
    return PureState(v, (2, 2, 2))


def filter_e() -> np.ndarray:
    """The single-qubit filter [[1, 1/sqrt(2)], [0, 1/sqrt(2)]].

    Maps |0> to |0> and |1> to |+>; deliberately not unitary.
    """
    return np.array([[1.0, 1.0 / sqrt(2.0)], [0.0, 1.0 / sqrt(2.0)]], dtype=complex)


def operator_mab() -> np.ndarray:
    """The two-qubit operator that reproduces the filter's global action
    from the other side of the purification. Also not unitary."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    m[3, 0] = 1.0 / sqrt(2.0)
    m[3, 3] = 1.0 / sqrt(2.0)
    return m


@dataclass(frozen=True)
class ReferenceValues:
    """Closed-form targets for the post-filter stage.

    entropy_filtered is the binary entropy of (2 + sqrt(2))/4, the larger
    eigenvalue of the filtered qubit's marginal; the directional values
    follow from it.
    """

    entropy_filtered: float
    discord_leftward: float
    classical_leftward: float


def reference_values() -> ReferenceValues:
    s = (log(8.0) - sqrt(2.0) * atanh(1.0 / sqrt(2.0))) / log(4.0)
    return ReferenceValues(s, 2.0 * s - 1.0, 1.0 - s)


def build_report(psi: PureState, stage: str, *,
                 equivalence_distance: float | None = None) -> CorrelationReport:
    """Compute the full measure table for a pure three-qubit state, from the
    split into marginals that kw_audit shares."""
    rho = density_from_pure(psi)
    terms = singles, pairs, pair_eofs = _triple_terms(rho)
    marginals = dict(zip(LABELS, singles))
    bipartitions, eofs, j_vals, d_vals = {}, {}, {}, {}
    for i, j in PAIRS:
        name, k = LABELS[i] + LABELS[j], 3 - i - j  # pairs[k] has qubit k traced out
        bipartitions[name] = von_neumann_entropy(pairs[k])
        eofs[name] = pair_eofs[k]
        # factor order inside the pair follows (i, j), so measured=0 hits
        # LABELS[i] and measured=1 hits LABELS[j]; J and D share one
        # minimization through the memo on the pair, as the residuals do
        for pos, measured_label in ((0, LABELS[i]), (1, LABELS[j])):
            key = f"{name}_measure{measured_label}"
            j_vals[key] = classical_correlation(pairs[k], pos).value
            d_vals[key] = discord(pairs[k], pos).value
    return CorrelationReport(
        stage=stage,
        purity=purity(rho),
        marginal_entropies=marginals,
        bipartition_entropies=bipartitions,
        pairwise_eof=eofs,
        pairwise_j=j_vals,
        pairwise_discord=d_vals,
        mutual_information_ac=marginals["A"] + marginals["C"] - bipartitions["AC"],
        kw_residuals={"".join(LABELS[x] for x in perm): _kw_residual(terms, *perm)
                      for perm in _CYCLIC_PERMS},
        filter_equivalence_distance=equivalence_distance,
    )


def run_scenario() -> tuple[CorrelationReport, CorrelationReport]:
    """Pre and post tables for the GHZ-plus-filter demonstration.

    The post state is produced by the local filter on C; a second route
    through the equivalent two-qubit operator on A and B must give the
    same global state, and that distance is recorded in the post report.
    """
    psi = ghz3()
    pre = build_report(psi, "pre")
    filtered = apply_filter(psi, filter_e(), 2)
    alternate = apply_global_operator(psi, kron(operator_mab(), np.eye(2)))
    distance = frobenius_distance(density_from_pure(filtered).mat,
                                  density_from_pure(alternate).mat)
    post = build_report(filtered, "post", equivalence_distance=distance)
    return pre, post


@dataclass(frozen=True)
class Check:
    """One named acceptance check with its outcome."""

    name: str
    passed: bool
    detail: str


def acceptance_checks(pre: CorrelationReport, post: CorrelationReport) -> list[Check]:
    """Evaluate the scenario-level acceptance checks against two reports."""
    refs = reference_values()
    s0 = refs.entropy_filtered
    exact, closed, opt, vanishing, purity_tol = map(
        _fmt_bound, (EXACT_TOL, CLOSED_FORM_TOL, OPTIMIZED_TOL, VANISHING_TOL, PURITY_TOL))
    checks = []

    def add(name, passed, detail):
        checks.append(Check(name, bool(passed), detail))

    dev = abs(post.marginal_entropies["C"] - s0)
    add("entropy_constant", dev <= EXACT_TOL,
        f"|S(C') - closed form| = {dev:.3e} (tol {exact})")

    d_left = post.pairwise_discord["AC_measureC"]
    d_right = post.pairwise_discord["AC_measureA"]
    add("discord_asymmetry",
        abs(d_left - refs.discord_leftward) <= OPTIMIZED_TOL and abs(d_right) <= VANISHING_TOL,
        f"D measuring C = {d_left:.7f} (target {refs.discord_leftward:.7f}, tol {opt}), "
        f"D measuring A = {d_right:.2e} (tol {vanishing})")

    eof_dev = max(abs(v) for v in pre.pairwise_eof.values())
    j_dev = max(abs(v - 1.0) for v in pre.pairwise_j.values())
    marg_dev = max(abs(v - 1.0) for v in pre.marginal_entropies.values())
    bip_dev = max(abs(v - 1.0) for v in pre.bipartition_entropies.values())
    add("pre_table",
        eof_dev <= CLOSED_FORM_TOL and j_dev <= OPTIMIZED_TOL and marg_dev <= EXACT_TOL
        and bip_dev <= CLOSED_FORM_TOL,
        f"pre stage: max|eof| = {eof_dev:.2e} (tol {closed}), max|J-1| = {j_dev:.2e} (tol {opt}), "
        f"max|S-1| = {marg_dev:.2e} (tol {exact}), max|S_pair-1| = {bip_dev:.2e} (tol {closed})")

    j_left = post.pairwise_j["AC_measureC"]
    j_right = post.pairwise_j["AC_measureA"]
    add("classical_drop",
        abs(j_left - refs.classical_leftward) <= OPTIMIZED_TOL
        and abs(j_right - s0) <= OPTIMIZED_TOL,
        f"J measuring C = {j_left:.7f} (target {refs.classical_leftward:.7f}), "
        f"J measuring A = {j_right:.7f} (target {s0:.7f}), tol {opt}")

    post_ab = partial_trace(density_from_pure(apply_filter(ghz3(), filter_e(), 2)), [2])
    c_ab = concurrence(post_ab)
    add("entanglement_created",
        abs(c_ab - 1.0 / sqrt(2.0)) <= CLOSED_FORM_TOL
        and abs(post.pairwise_eof["AB"] - s0) <= CLOSED_FORM_TOL,
        f"concurrence(A'B') = {c_ab:.9f} (target {1.0 / sqrt(2.0):.9f}), "
        f"eof_AB = {post.pairwise_eof['AB']:.9f} (target {s0:.9f}), tol {closed}")

    add("mutual_information",
        abs(pre.mutual_information_ac - 1.0) <= CLOSED_FORM_TOL
        and abs(post.mutual_information_ac - s0) <= CLOSED_FORM_TOL,
        f"I_q(AC) pre = {pre.mutual_information_ac:.9f} (target 1), "
        f"post = {post.mutual_information_ac:.9f} (target {s0:.9f}), tol {closed}")

    residuals = list(pre.kw_residuals.values()) + list(post.kw_residuals.values())
    add("identity_residuals",
        all(RESIDUAL_LOW <= r <= RESIDUAL_HIGH for r in residuals),
        _residual_window(min(residuals), max(residuals)))

    dist = post.filter_equivalence_distance
    add("operator_equivalence",
        dist is not None and dist <= EXACT_TOL
        and abs(post.purity - 1.0) <= PURITY_TOL and abs(pre.purity - 1.0) <= PURITY_TOL,
        f"filter-route distance = {'unset' if dist is None else f'{dist:.2e}'} (tol {exact}), "
        f"purity pre/post = {pre.purity:.12f}/{post.purity:.12f} (tol {purity_tol})")

    return checks
