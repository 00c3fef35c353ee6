"""Correlation report: the full measure table for one scenario stage, and
the output layer of every subcommand.

(key, value) pairs render as an aligned table, JSON or CSV, and a value's
type decides its text: a float goes through fmt12 (12 significant digits,
so that parsing an emitted report and re-rendering it reproduces the
bytes), a bool prints as true/false, an int as it is, and a str is quoted
in JSON only. The status word of a check and the Koashi-Winter residual
window are written here and nowhere else.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from textwrap import indent
from typing import Optional

from .correlations import MEASURE_FLOOR, RESIDUAL_HIGH, RESIDUAL_LOW
from .exceptions import ConsistencyError

MARGINAL_KEYS = ("A", "B", "C")
PAIR_KEYS = ("AB", "AC", "BC")
DIRECTIONAL_KEYS = (
    "AB_measureA", "AB_measureB",
    "AC_measureA", "AC_measureC",
    "BC_measureB", "BC_measureC",
)
KW_KEYS = ("ABC", "BCA", "CAB")


def fmt12(value: float) -> str:
    """Decimal text with 12 significant digits, locale-independent."""
    return format(float(value), ".12g")


def _fmt_bound(value: float) -> str:
    """A bound as short mantissa-exponent text: 1e-4, not 0.0001 or 1e-04."""
    mantissa, exponent = format(float(value), "e").split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent)}"


_STATUS = ("FAIL", "PASS")  # indexed by a check's passed flag


def _check_line(check) -> str:
    return f"{_STATUS[check.passed]} {check.name}: {check.detail}"


def _residual_window(low: float, high: float) -> str:
    """Where Koashi-Winter residuals fell, against the window that judges them."""
    return (f"residuals in [{low:.2e}, {high:.2e}], "
            f"bounds [{_fmt_bound(RESIDUAL_LOW)}, {_fmt_bound(RESIDUAL_HIGH)}]")


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, (str, int)) else fmt12(value)


def _json_object(fields) -> str:
    return "{" + ", ".join(
        f'"{key}": {json.dumps(value) if isinstance(value, str) else _text(value)}'
        for key, value in fields) + "}"


def _render(fields, fmt: str) -> str:
    """(key, value) pairs as one JSON object, quantity,value CSV rows or an
    aligned table."""
    if fmt == "json":
        return _json_object(fields) + "\n"
    if fmt == "csv":
        return "quantity,value\n" + "".join(f"{k},{_text(v)}\n" for k, v in fields)
    width = max(len(k) for k, _ in fields)
    return "".join(f"{k:<{width}}  {_text(v)}\n" for k, v in fields)


def _require_keys(mapping: dict, keys: tuple, what: str):
    if tuple(mapping.keys()) != keys:
        raise ConsistencyError(f"{what} must have keys {keys}, got {tuple(mapping.keys())}")


@dataclass(frozen=True)
class CorrelationReport:
    """Every measure for one stage of a scenario.

    Directional quantities are keyed by pair plus measured subsystem,
    e.g. "AC_measureC" is the pair (A, C) with the measurement on C.
    filter_equivalence_distance is only set on stages produced by a
    filter that was cross-checked against a global-operator route.
    """

    stage: str
    purity: float
    marginal_entropies: dict
    bipartition_entropies: dict
    pairwise_eof: dict
    pairwise_j: dict
    pairwise_discord: dict
    mutual_information_ac: float
    kw_residuals: dict
    filter_equivalence_distance: Optional[float] = None

    def __post_init__(self):
        if self.stage not in ("pre", "post"):
            raise ConsistencyError(f"stage must be 'pre' or 'post', got {self.stage!r}")
        _require_keys(self.marginal_entropies, MARGINAL_KEYS, "marginal_entropies")
        _require_keys(self.bipartition_entropies, PAIR_KEYS, "bipartition_entropies")
        _require_keys(self.pairwise_eof, PAIR_KEYS, "pairwise_eof")
        _require_keys(self.pairwise_j, DIRECTIONAL_KEYS, "pairwise_j")
        _require_keys(self.pairwise_discord, DIRECTIONAL_KEYS, "pairwise_discord")
        _require_keys(self.kw_residuals, KW_KEYS, "kw_residuals")
        for key, value in self.numeric_items():
            if key == "filter_equivalence_distance" or key.startswith("kw_"):
                continue  # the identity window alone judges a residual
            if value < MEASURE_FLOOR:
                raise ConsistencyError(f"report field {key} = {value!r} below {MEASURE_FLOOR}")
        if self.filter_equivalence_distance is not None and self.filter_equivalence_distance < 0:
            raise ConsistencyError("equivalence distance cannot be negative")

    def numeric_items(self) -> list:
        """Flat (key, value) pairs in the locked serialization order."""
        items = [("purity", self.purity)]
        items += [(f"entropy_{k}", self.marginal_entropies[k]) for k in MARGINAL_KEYS]
        items += [(f"entropy_{k}", self.bipartition_entropies[k]) for k in PAIR_KEYS]
        items += [(f"eof_{k}", self.pairwise_eof[k]) for k in PAIR_KEYS]
        items += [(f"J_{k}", self.pairwise_j[k]) for k in DIRECTIONAL_KEYS]
        items += [(f"discord_{k}", self.pairwise_discord[k]) for k in DIRECTIONAL_KEYS]
        items.append(("mutual_information_AC", self.mutual_information_ac))
        items += [(f"kw_{k}", self.kw_residuals[k]) for k in KW_KEYS]
        if self.filter_equivalence_distance is not None:
            items.append(("filter_equivalence_distance", self.filter_equivalence_distance))
        return items


def report_json_object(report: CorrelationReport) -> str:
    return _json_object([("stage", report.stage), *report.numeric_items()])


def reproduce_json(pre: CorrelationReport, post: CorrelationReport, checks) -> str:
    """One JSON document for a full reproduction run."""
    check_objs = ", ".join(
        _json_object([("name", c.name), ("status", _STATUS[c.passed]), ("detail", c.detail)])
        for c in checks)
    return (f'{{"pre": {report_json_object(pre)}, "post": {report_json_object(post)}, '
            f'"checks": [{check_objs}], "all_pass": {_text(all(c.passed for c in checks))}}}\n')


def reproduce_csv(pre: CorrelationReport, post: CorrelationReport) -> str:
    lines = ["stage,quantity,value"]
    for report in (pre, post):
        for key, value in report.numeric_items():
            lines.append(f"{report.stage},{key},{fmt12(value)}")
    return "\n".join(lines) + "\n"


def report_table(report: CorrelationReport) -> str:
    return f"stage: {report.stage}\n" + indent(_render(report.numeric_items(), "table"), "  ")


def _render_reproduce(pre: CorrelationReport, post: CorrelationReport, checks, fmt: str) -> str:
    if fmt == "json":
        return reproduce_json(pre, post, checks)
    if fmt == "csv":
        return reproduce_csv(pre, post)
    return report_table(pre) + "\n" + report_table(post) + "\n"
