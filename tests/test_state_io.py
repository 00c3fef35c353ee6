import json
import math

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    PureState,
    density_from_pure,
    density_to_json,
    load_state,
    parse_state,
    pure_to_json,
    random_pure_state,
)
from qcorr.exceptions import StateFormatError


def test_density_round_trip(pair_post):
    parsed = parse_state(density_to_json(pair_post))
    assert isinstance(parsed, DensityMatrix)
    assert parsed.dims == (2, 2)
    assert np.abs(parsed.mat - pair_post.mat).max() < 1e-11


def test_pure_round_trip():
    psi = random_pure_state((2, 2, 2), 500)
    parsed = parse_state(pure_to_json(psi))
    assert isinstance(parsed, PureState)
    assert parsed.dims == (2, 2, 2)
    assert np.abs(parsed.amplitudes - psi.amplitudes).max() < 1e-11


def test_round_trip_through_density(pair_pre):
    # writing, reading, and rebuilding the matrix does not drift
    text = density_to_json(pair_pre)
    again = density_to_json(parse_state(text))
    assert text == again


def test_emitted_document_is_plain_json(pair_post):
    doc = json.loads(density_to_json(pair_post))
    assert doc["dims"] == [2, 2]
    assert len(doc["matrix"]) == 4
    assert all(len(row) == 4 for row in doc["matrix"])
    psi = random_pure_state((2,), 501)
    doc = json.loads(pure_to_json(psi))
    assert doc["dims"] == [2]
    assert len(doc["amplitudes"]) == 2


def test_parse_rejects_structural_errors():
    with pytest.raises(StateFormatError, match="not valid JSON"):
        parse_state("{nope")
    with pytest.raises(StateFormatError, match="top level"):
        parse_state("[1, 2]")
    with pytest.raises(StateFormatError, match="missing field 'dims'"):
        parse_state('{"matrix": []}')
    with pytest.raises(StateFormatError, match="'dims'"):
        parse_state('{"dims": [2, 0], "amplitudes": []}')
    with pytest.raises(StateFormatError, match="'dims'"):  # not read as (1, 2)
        parse_state('{"dims": [true, 2], "amplitudes": [[1, 0], [0, 0]]}')
    with pytest.raises(StateFormatError, match="exactly one"):
        parse_state('{"dims": [2]}')
    with pytest.raises(StateFormatError, match="exactly one"):
        parse_state('{"dims": [2], "matrix": [], "amplitudes": []}')


def test_parse_rejects_wrong_sizes():
    with pytest.raises(StateFormatError, match="list of 4 entries"):
        parse_state('{"dims": [2, 2], "amplitudes": [[1, 0]]}')
    with pytest.raises(StateFormatError, match="list of 2 rows"):
        parse_state('{"dims": [2], "matrix": [[[1, 0], [0, 0]]]}')
    with pytest.raises(StateFormatError, match="matrix row 1: expected 2 entries"):
        parse_state('{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}')


def test_parse_errors_name_the_entry():
    bad_matrix = '{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], "x"]]}'
    with pytest.raises(StateFormatError, match="matrix row 1, column 1"):
        parse_state(bad_matrix)
    bad_amp = '{"dims": [2], "amplitudes": [[1, 0], [0]]}'
    with pytest.raises(StateFormatError, match="amplitude row 1"):
        parse_state(bad_amp)
    bad_bool = '{"dims": [2], "amplitudes": [[1, 0], [true, 0]]}'
    with pytest.raises(StateFormatError, match="amplitude row 1"):
        parse_state(bad_bool)


def test_parse_rejects_non_finite():
    doc = '{"dims": [2], "amplitudes": [[1, 0], [NaN, 0]]}'
    with pytest.raises(StateFormatError, match="amplitude row 1"):
        parse_state(doc)
    # an integer too large for a float is as non-finite as 1e400
    huge = "1" + "0" * 400
    doc = '{"dims": [1], "matrix": [[[0, %s]]]}' % huge
    with pytest.raises(StateFormatError, match="matrix row 0, column 0: non-finite"):
        parse_state(doc)


def test_parsed_state_is_validated():
    # trace 0.9: well-formed JSON, invalid density matrix
    doc = '{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.4, 0]]]}'
    with pytest.raises(Exception, match="trace deviates from 1"):
        parse_state(doc)
    doc = '{"dims": [2], "amplitudes": [[1, 0], [1, 0]]}'
    with pytest.raises(Exception, match="norm"):
        parse_state(doc)


def test_load_state_reads_files(tmp_path, pair_pre):
    path = tmp_path / "state.json"
    path.write_text(density_to_json(pair_pre), encoding="utf-8")
    parsed = load_state(str(path))
    assert np.abs(parsed.mat - pair_pre.mat).max() < 1e-11


def test_load_state_missing_file(tmp_path):
    with pytest.raises(StateFormatError, match="cannot read state file"):
        load_state(str(tmp_path / "absent.json"))


def test_round_trip_preserves_entropy_numerics():
    psi = random_pure_state((2, 2), 502)
    rho = density_from_pure(psi)
    parsed = parse_state(density_to_json(rho))
    assert np.abs(parsed.mat - rho.mat).max() < 1e-11
    # 12 significant digits keep every matrix element within 1e-11
    assert math.isclose(np.trace(parsed.mat).real, 1.0, abs_tol=1e-10)
