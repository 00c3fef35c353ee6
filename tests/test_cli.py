import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorr
from qcorr import density_to_json, pure_to_json, random_pure_state
from qcorr.cli import FORMATS, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_table_passes(capsys):
    code, out, err = run_cli(["reproduce"], capsys)
    assert code == 0
    assert out.count("PASS ") == 8
    assert "FAIL" not in out
    assert err == ""
    assert "stage: pre" in out and "stage: post" in out
    assert "discord_AC_measureC" in out


def test_reproduce_json_output(capsys):
    code, out, err = run_cli(["reproduce", "--format", "json"], capsys)
    assert code == 0
    # machine stream stays parseable: status lines go to stderr
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert err.count("PASS ") == 8
    target = 0.2017520733857121
    assert abs(doc["post"]["discord_AC_measureC"] - target) < 1e-4
    assert doc["post"]["discord_AC_measureA"] < 1e-6


def test_reproduce_csv_output(capsys):
    code, out, err = run_cli(["reproduce", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stage,quantity,value"
    assert err.count("PASS ") == 8
    row = next(line for line in lines if line.startswith("post,discord_AC_measureC,"))
    assert abs(float(row.split(",")[2]) - 0.2017520733857121) < 1e-4


def test_reproduce_starved_optimizer_fails(capsys, unrefined, optimizer_constants):
    with optimizer_constants(NEWTON_MAXITER=1):
        code, out, err = run_cli(["reproduce"], capsys)
    assert code == 1
    assert "FAIL discord_asymmetry" in out


def test_reproduce_matches_golden_json(capsys, tmp_path):
    stored = json.loads(GOLDEN.joinpath("reproduce.json").read_text())
    code, out, err = run_cli(["reproduce", "--format", "json"], capsys)
    assert code == 0
    fresh = json.loads(out)
    for stage in ("pre", "post"):
        assert list(fresh[stage]) == list(stored[stage])  # key order is locked
        for key, value in stored[stage].items():
            if key == "stage":
                assert fresh[stage][key] == value
            else:
                # small cross-platform drift allowed, far below any tolerance
                assert abs(fresh[stage][key] - value) <= 5e-10, key
    assert fresh["all_pass"] is True
    # emitting twice locally is byte-identical
    again_code, again_out, _ = run_cli(["reproduce", "--format", "json"], capsys)
    assert again_out == out


def test_reproduce_matches_golden_csv(capsys):
    stored = GOLDEN.joinpath("reproduce.csv").read_text().splitlines()
    code, out, err = run_cli(["reproduce", "--format", "csv"], capsys)
    assert code == 0
    fresh = out.splitlines()
    assert len(fresh) == len(stored)
    assert fresh[0] == stored[0]
    for got, want in zip(fresh[1:], stored[1:]):
        g_stage, g_key, g_val = got.split(",")
        w_stage, w_key, w_val = want.split(",")
        assert (g_stage, g_key) == (w_stage, w_key)
        assert abs(float(g_val) - float(w_val)) <= 5e-10


def test_reproduce_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["reproduce", "--format", "json", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["all_pass"] is True


def test_cli_writes_nothing_without_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(["reproduce", "--format", "csv"] , capsys)
    assert list(tmp_path.iterdir()) == []


# the exact text of `value` on the hand-built fixtures, per --measure kind
MEASURE_VALUES = {
    "bell_pair": {"entropy": "0", "mi": "2", "eof": "1", "concurrence": "1",
                  "discord": "1", "j": "1"},
    "pair_pre": {"entropy": "1", "mi": "1", "eof": "0", "concurrence": "0",
                 "discord": "0", "j": "1"},
}


def printed_fields(out: str, fmt: str):
    """The (key, text) pairs of one measure output as printed, and the keys
    whose JSON value is a quoted string."""
    if fmt == "json":
        assert out.endswith("}\n") and out.count("\n") == 1
        json.loads(out)
        pairs = re.findall(r'"(\w+)": ("[^"]*"|[^,}]+)', out)
        return [(k, v.strip('"')) for k, v in pairs], {k for k, v in pairs if v[0] == '"'}
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == "quantity,value"
        return [tuple(line.split(",")) for line in lines[1:]], set()
    width = max(len(line.split()[0]) for line in lines)
    assert all(line[width:width + 2] == "  " and line[width + 2] != " " for line in lines)
    return [tuple(line.split(None, 1)) for line in lines], set()


@pytest.mark.parametrize("fixture", sorted(MEASURE_VALUES))
def test_measure_prints_the_same_fields_in_every_format(fixture, request, tmp_path, capsys):
    # every kind and measured side: table, csv and json carry the same (key,
    # text) pairs in the same order, and only the strings are quoted in json
    path = tmp_path / "state.json"
    path.write_text(density_to_json(request.getfixturevalue(fixture)), encoding="utf-8")
    for kind, value in MEASURE_VALUES[fixture].items():
        directional = kind in ("discord", "j")
        for measured in ((0, 1) if directional else (None,)):
            flags = [] if measured is None else ["--measured", str(measured)]
            printed = {}
            for fmt in FORMATS:
                code, out, err = run_cli(
                    ["measure", str(path), "--measure", kind, *flags, "--format", fmt], capsys)
                assert (code, err) == (0, "")
                printed[fmt] = printed_fields(out, fmt)
            fields, quoted = printed["json"]
            assert printed["table"] == printed["csv"] == (fields, set())
            want = [("measure", kind), ("value", value)]
            if directional:
                want += [("measured", str(measured)),
                         ("direction", ("rightward", "leftward")[measured]),
                         ("optimal_theta", "0"), ("optimal_phi", "0")]
                assert fields[-1][0] == "optimizer_evals" and fields[-1][1].isdigit()
                fields = fields[:-1]
            assert fields == want
            assert quoted == ({"measure", "direction"} if directional else {"measure"})


def test_measure_discord_on_state_file(tmp_path, capsys, pair_post):
    path = tmp_path / "pair.json"
    path.write_text(density_to_json(pair_post), encoding="utf-8")
    code, out, err = run_cli(
        ["measure", str(path), "--measure", "discord", "--measured", "1",
         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["measure"] == "discord"
    assert doc["direction"] == "leftward"
    assert abs(doc["value"] - 0.2017520733857121) < 1e-6
    assert 0.0 <= doc["optimal_theta"] <= math.pi
    assert doc["optimizer_evals"] > 0


def test_measure_j_direction_flag(tmp_path, capsys, pair_post):
    path = tmp_path / "pair.json"
    path.write_text(density_to_json(pair_post), encoding="utf-8")
    code, out, err = run_cli(
        ["measure", str(path), "--measure", "j", "--measured", "0",
         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["direction"] == "rightward"
    assert abs(doc["value"] - 0.6008760366928562) < 1e-6


def test_measure_entropy_on_amplitudes_file(tmp_path, capsys):
    psi = random_pure_state((2, 2), 600)
    path = tmp_path / "pure.json"
    path.write_text(pure_to_json(psi), encoding="utf-8")
    code, out, err = run_cli(
        ["measure", str(path), "--measure", "entropy", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value"
    value = float(dict(line.split(",") for line in lines[1:])["value"])
    assert abs(value) < 1e-9  # pure state has zero entropy


def test_measure_mi_on_maximally_mixed(tmp_path, capsys):
    doc = {
        "dims": [2, 2],
        "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(
        ["measure", str(path), "--measure", "mi", "--format", "json"], capsys)
    assert code == 0
    assert abs(json.loads(out)["value"]) < 1e-9


def test_measure_concurrence_table(tmp_path, capsys, entangled_pair):
    path = tmp_path / "pair.json"
    path.write_text(density_to_json(entangled_pair), encoding="utf-8")
    code, out, err = run_cli(
        ["measure", str(path), "--measure", "concurrence"], capsys)
    assert code == 0
    assert "concurrence" in out
    shown = float(out.splitlines()[-1].split()[-1])
    assert abs(shown - 1.0 / math.sqrt(2.0)) < 1e-6


def test_measure_bad_trace_diagnostic(tmp_path, capsys):
    doc = '{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.4, 0]]]}'
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = run_cli(["measure", str(path), "--measure", "entropy"], capsys)
    assert code == 2
    assert "error:" in err
    assert "trace deviates from 1" in err


def test_measure_corrupt_entry_diagnostic(tmp_path, capsys):
    doc = '{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], "x"]]}'
    path = tmp_path / "corrupt.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = run_cli(["measure", str(path), "--measure", "entropy"], capsys)
    assert code == 2
    assert "matrix row 1, column 1" in err


def test_measure_missing_file(capsys):
    code, out, err = run_cli(
        ["measure", "/nonexistent/state.json", "--measure", "entropy"], capsys)
    assert code == 2
    assert "cannot read state file" in err


def test_kw_audit_deterministic(capsys):
    args = ["kw-audit", "--count", "1", "--seed", "7", "--format", "json"]
    code1, out1, err1 = run_cli(args, capsys)
    code2, out2, err2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["count"] == 1 and doc["seed"] == 7
    assert doc["within_bounds"] is True
    assert "PASS identity_audit" in err1


def test_kw_audit_layout(capsys):
    # key order and layout in each format; the residual digits are not pinned
    keys = ["count", "seed", "min_residual", "max_residual", "mean_residual", "within_bounds"]
    args = ["kw-audit", "--count", "1", "--seed", "7", "--format"]
    code, out, err = run_cli(args + ["json"], capsys)
    assert code == 0 and out.endswith("}\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert list(doc) == keys
    assert (doc["count"], doc["seed"], doc["within_bounds"]) == (1, 7, True)
    assert all(isinstance(doc[k], float) for k in keys[2:5])
    assert err.startswith("PASS identity_audit: 3 residuals in [")
    code, out, err = run_cli(args + ["csv"], capsys)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "quantity,value"
    assert [line.split(",")[0] for line in lines[1:]] == keys
    assert lines[1:3] == ["count,1", "seed,7"] and lines[-1] == "within_bounds,true"
    assert err.startswith("PASS identity_audit:")
    code, out, err = run_cli(args + ["table"], capsys)
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert [line[:15] for line in lines[:6]] == [f"{k:<13}  " for k in keys]
    assert lines[0] == "count          1" and lines[5] == "within_bounds  true"
    assert lines[6].startswith("PASS identity_audit:") and len(lines) == 7


def test_kw_audit_rejects_zero_count(capsys):
    code, out, err = run_cli(["kw-audit", "--count", "0"], capsys)
    assert (code, out, err) == (2, "", "error: count must be >= 1, got 0\n")


def test_kw_audit_negative_seed_reports_error(capsys):
    code, out, err = run_cli(["kw-audit", "--count", "1", "--seed", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_refine_tol_flag_is_gone(capsys):
    # the optimizer takes no settings from the command line
    for command in (["reproduce"], ["measure", "state.json", "--measure", "j"], ["kw-audit"]):
        for flag in ("--refine-tol", "--grid-theta", "--grid-phi", "--refine-iters"):
            with pytest.raises(SystemExit) as info:
                main([*command, flag, "3"])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_measure_product_state_prints_plain_zero(tmp_path, capsys):
    # the pure |00>: S and J are exactly zero and print as 0, never -0
    path = tmp_path / "product.json"
    path.write_text(pure_to_json(qcorr.PureState(np.eye(4)[0], (2, 2))), encoding="utf-8")
    for kind in ("entropy", "j"):
        code, out, err = run_cli(
            ["measure", str(path), "--measure", kind, "--format", "csv"], capsys)
        assert code == 0
        assert "\nvalue,0\n" in out


def src_env(**extra) -> dict:
    """This process's environment with the tested package first on the path."""
    src = os.path.dirname(os.path.dirname(qcorr.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_overflowing_norm_prints_only_the_error_line(tmp_path):
    # a fresh interpreter, so any numpy warning would reach the real stderr
    path = tmp_path / "huge.json"
    path.write_text('{"dims": [2], "amplitudes": [[1e308, 0], [1e308, 0]]}', encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "qcorr", "measure", str(path), "--measure", "entropy"],
        capture_output=True, text=True, timeout=60, env=src_env())
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: state vector norm deviates from 1 by inf\n"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qcorr", "reproduce", "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode in (0, 1)
    json.loads(result.stdout)  # stdout holds only the document


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(unbuffered):
    # the reader is gone before the child writes, as in `qcorr reproduce | head`;
    # buffered, the write fails when stdout is flushed, unbuffered at once
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = src_env(PYTHONUNBUFFERED=unbuffered)
    with os.fdopen(write_end, "wb") as closed:
        result = subprocess.run([sys.executable, "-m", "qcorr", "reproduce"], stdout=closed,
                                stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    # the table format writes everything to stdout, so stderr stays empty:
    # no "internal error", no traceback, no "Exception ignored"
    assert (result.returncode, result.stderr) == (2, "")


def openblas_kernel_skip_reason():
    """None when OPENBLAS_CORETYPE picks numpy's BLAS kernel, else why not."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy.show_config does not report its BLAS build"
    if ("openblas" not in blas.get("name", "").lower()
            or "DYNAMIC_ARCH" not in blas.get("openblas configuration", "")):
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS with DYNAMIC_ARCH"
    return None


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_reproduce_matches_the_goldens_under_other_blas_kernels(kernel):
    # the goldens are byte-identical across OpenBLAS kernels, not only on
    # the kernel this host picks; one child prints json, then csv
    reason = openblas_kernel_skip_reason()
    if reason:
        pytest.skip(reason)
    code = ("import sys; from qcorr.cli import main; sys.exit("
            "main(['reproduce', '--format', 'json']) or main(['reproduce', '--format', 'csv']))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120,
                            env=src_env(OPENBLAS_CORETYPE=kernel))
    assert result.returncode == 0, result.stderr.decode()
    golden = GOLDEN.joinpath("reproduce.json").read_bytes() + GOLDEN.joinpath("reproduce.csv").read_bytes()
    assert result.stdout == golden


def test_all_exports_resolve_once():
    # a stale name in __all__ would break `from qcorr import *`
    assert len(qcorr.__all__) == len(set(qcorr.__all__))
    assert [name for name in qcorr.__all__ if not hasattr(qcorr, name)] == []


def test_import_loads_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, qcorr, qcorr.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60, env=src_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
