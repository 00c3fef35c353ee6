import json

import pytest

from qcorr import CorrelationReport
from qcorr.exceptions import ConsistencyError
from qcorr.report import (
    _fmt_bound,
    fmt12,
    report_json_object,
    report_table,
    reproduce_csv,
    reproduce_json,
)
from qcorr.scenario import Check

EXPECTED_KEY_ORDER = [
    "purity",
    "entropy_A", "entropy_B", "entropy_C",
    "entropy_AB", "entropy_AC", "entropy_BC",
    "eof_AB", "eof_AC", "eof_BC",
    "J_AB_measureA", "J_AB_measureB",
    "J_AC_measureA", "J_AC_measureC",
    "J_BC_measureB", "J_BC_measureC",
    "discord_AB_measureA", "discord_AB_measureB",
    "discord_AC_measureA", "discord_AC_measureC",
    "discord_BC_measureB", "discord_BC_measureC",
    "mutual_information_AC",
    "kw_ABC", "kw_BCA", "kw_CAB",
]


def make_report(stage="pre", **overrides):
    fields = dict(
        stage=stage,
        purity=1.0,
        marginal_entropies={"A": 1.0, "B": 1.0, "C": 0.5},
        bipartition_entropies={"AB": 0.5, "AC": 1.0, "BC": 1.0},
        pairwise_eof={"AB": 0.25, "AC": 0.0, "BC": 0.0},
        pairwise_j={k: 0.5 for k in (
            "AB_measureA", "AB_measureB", "AC_measureA",
            "AC_measureC", "BC_measureB", "BC_measureC")},
        pairwise_discord={k: 0.125 for k in (
            "AB_measureA", "AB_measureB", "AC_measureA",
            "AC_measureC", "BC_measureB", "BC_measureC")},
        mutual_information_ac=0.75,
        kw_residuals={"ABC": 1e-9, "BCA": 2e-9, "CAB": 0.0},
    )
    fields.update(overrides)
    return CorrelationReport(**fields)


def test_fmt12_cases():
    assert fmt12(1.0) == "1"
    assert fmt12(0.5) == "0.5"
    assert fmt12(0.2017520733857121) == "0.201752073386"
    assert fmt12(1e-15) == "1e-15"
    assert fmt12(-0.0) == "-0"
    # bounds print as written in their constants, not as 0.0001 or 1e-04
    for bound, text in ((1e-4, "1e-4"), (-1e-6, "-1e-6"), (2e-3, "2e-3"), (1e-12, "1e-12")):
        assert _fmt_bound(bound) == text


def test_numeric_items_key_order():
    keys = [k for k, _ in make_report().numeric_items()]
    assert keys == EXPECTED_KEY_ORDER
    with_distance = make_report(filter_equivalence_distance=0.0)
    keys = [k for k, _ in with_distance.numeric_items()]
    assert keys == EXPECTED_KEY_ORDER + ["filter_equivalence_distance"]


def test_report_validation_rejects_bad_input():
    with pytest.raises(ConsistencyError):
        make_report(stage="middle")
    with pytest.raises(ConsistencyError):
        make_report(marginal_entropies={"A": 1.0, "B": 1.0})  # missing C
    with pytest.raises(ConsistencyError):
        make_report(pairwise_eof={"AB": 0.0, "AC": 0.0, "XY": 0.0})
    with pytest.raises(ConsistencyError):
        make_report(mutual_information_ac=-1e-3)  # below the measure floor
    with pytest.raises(ConsistencyError):
        make_report(filter_equivalence_distance=-0.5)


def test_report_json_round_trip():
    report = make_report(filter_equivalence_distance=3e-13)
    doc = json.loads(report_json_object(report))
    assert doc["stage"] == "pre"
    for key, value in report.numeric_items():
        assert fmt12(doc[key]) == fmt12(value)


def test_reproduce_json_shape(scenario_reports):
    pre, post = scenario_reports
    checks = [Check("one", True, "fine"), Check("two", False, "broken")]
    doc = json.loads(reproduce_json(pre, post, checks))
    assert set(doc) == {"pre", "post", "checks", "all_pass"}
    assert doc["all_pass"] is False
    assert [c["status"] for c in doc["checks"]] == ["PASS", "FAIL"]
    assert doc["pre"]["stage"] == "pre"
    assert doc["post"]["stage"] == "post"
    assert "filter_equivalence_distance" in doc["post"]
    assert "filter_equivalence_distance" not in doc["pre"]
    for report, blob in ((pre, doc["pre"]), (post, doc["post"])):
        for key, value in report.numeric_items():
            assert fmt12(blob[key]) == fmt12(value)


def test_reproduce_csv_structure(scenario_reports):
    pre, post = scenario_reports
    lines = reproduce_csv(pre, post).splitlines()
    assert lines[0] == "stage,quantity,value"
    body = [line.split(",") for line in lines[1:]]
    assert all(len(parts) == 3 for parts in body)
    stages = [parts[0] for parts in body]
    assert stages == ["pre"] * len(pre.numeric_items()) + ["post"] * len(post.numeric_items())
    pre_keys = [parts[1] for parts in body if parts[0] == "pre"]
    assert pre_keys == EXPECTED_KEY_ORDER
    for parts in body:
        float(parts[2])  # every value cell parses as a number


def test_report_table_lists_every_key():
    text = report_table(make_report())
    assert text.startswith("stage: pre\n")
    for key in EXPECTED_KEY_ORDER:
        assert f"  {key}" in text


def test_emitted_json_is_stable_bytes(scenario_reports):
    pre, post = scenario_reports
    checks = [Check("c", True, "d")]
    assert reproduce_json(pre, post, checks) == reproduce_json(pre, post, checks)
    assert reproduce_csv(pre, post) == reproduce_csv(pre, post)
