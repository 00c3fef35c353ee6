"""qcorr: quantum correlation measures for small finite-dimensional systems.

Entropy, mutual information, one-way classical correlations, quantum
discord, two-qubit concurrence and entanglement of formation, plus a
built-in demonstration scenario in which a local non-unitary filter on
one qubit of a classically correlated state creates one-way discord.
"""

from .correlations import (
    AuditSummary,
    DirectionalMeasure,
    classical_correlation,
    concurrence,
    discord,
    discord_oracle_grid,
    eof_two_qubits,
    koashi_winter_residual,
    kw_audit,
)
from .entropy import binary_entropy, mutual_information, von_neumann_entropy
from .exceptions import QcorrError
from .linalg import frobenius_distance, kron
from .measurement import (
    BlochAngles,
    MeasurementOutcome,
    Povm,
    apply_filter,
    apply_global_operator,
    conditional_entropy,
    measure_subsystem,
    projective_pair,
)
from .report import CorrelationReport
from .scenario import (
    ReferenceValues,
    acceptance_checks,
    build_report,
    filter_e,
    ghz3,
    operator_mab,
    reference_values,
    run_scenario,
)
from .state_io import density_to_json, load_state, parse_state, pure_to_json
from .states import (
    DensityMatrix,
    PureState,
    density_from_pure,
    embed_local,
    partial_trace,
    purity,
    random_pure_state,
)

__version__ = "0.1.0"

__all__ = [
    "AuditSummary", "BlochAngles", "CorrelationReport", "DensityMatrix",
    "DirectionalMeasure", "MeasurementOutcome",
    "Povm", "PureState", "QcorrError", "ReferenceValues",
    "acceptance_checks", "apply_filter", "apply_global_operator",
    "binary_entropy", "build_report", "classical_correlation",
    "concurrence", "conditional_entropy", "density_from_pure",
    "density_to_json", "discord", "discord_oracle_grid",
    "embed_local", "eof_two_qubits", "filter_e", "frobenius_distance",
    "ghz3", "koashi_winter_residual", "kron", "kw_audit", "load_state",
    "measure_subsystem", "mutual_information", "operator_mab",
    "parse_state", "partial_trace", "projective_pair",
    "pure_to_json", "purity", "random_pure_state", "reference_values",
    "run_scenario", "von_neumann_entropy",
]
