"""State file parsing and writing.

A state file is a JSON document with a `dims` list plus either `matrix`
(density matrix; list of rows, each entry a [re, im] pair) or
`amplitudes` (pure state; list of [re, im] pairs). Indices in error
messages are 0-based.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .exceptions import StateFormatError
from .report import fmt12
from .states import DensityMatrix, PureState


def _parse_pair(raw, where: str) -> complex:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)):
        raise StateFormatError(f"{where}: expected a [re, im] number pair, got {raw!r}")
    try:
        re, im = float(raw[0]), float(raw[1])
    except OverflowError:  # an integer too large for a float
        re = im = math.inf
    if not (math.isfinite(re) and math.isfinite(im)):
        raise StateFormatError(f"{where}: non-finite entry {raw!r}")
    return complex(re, im)


def parse_state(text: str):
    """Parse a state document into a DensityMatrix or PureState."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFormatError("top level must be an object")
    if "dims" not in doc:
        raise StateFormatError("missing field 'dims'")
    dims = doc["dims"]
    if (not isinstance(dims, list) or not dims
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                       for d in dims)):
        raise StateFormatError(f"'dims' must be a list of positive integers, got {dims!r}")
    has_matrix = "matrix" in doc
    has_amplitudes = "amplitudes" in doc
    if has_matrix == has_amplitudes:
        raise StateFormatError("exactly one of 'matrix' or 'amplitudes' is required")
    size = 1
    for d in dims:
        size *= d

    if has_amplitudes:
        amps = doc["amplitudes"]
        if not isinstance(amps, list) or len(amps) != size:
            raise StateFormatError(
                f"'amplitudes' must be a list of {size} entries for dims {dims}")
        vec = np.array([_parse_pair(a, f"amplitude row {i}") for i, a in enumerate(amps)])
        return PureState(vec, tuple(dims))

    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != size:
        raise StateFormatError(f"'matrix' must be a list of {size} rows for dims {dims}")
    mat = np.zeros((size, size), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise StateFormatError(f"matrix row {i}: expected {size} entries")
        for j, entry in enumerate(row):
            mat[i, j] = _parse_pair(entry, f"matrix row {i}, column {j}")
    return DensityMatrix(mat, tuple(dims))


def load_state(path: str):
    """Read and parse a state file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}") from exc
    return parse_state(text)


def _pair_text(z: complex) -> str:
    return f"[{fmt12(z.real)}, {fmt12(z.imag)}]"


def density_to_json(rho: DensityMatrix) -> str:
    rows = ",\n    ".join(
        "[" + ", ".join(_pair_text(z) for z in row) + "]" for row in rho.mat)
    dims = ", ".join(str(d) for d in rho.dims)
    return f'{{\n  "dims": [{dims}],\n  "matrix": [\n    {rows}\n  ]\n}}\n'


def pure_to_json(psi: PureState) -> str:
    amps = ", ".join(_pair_text(z) for z in psi.amplitudes)
    dims = ", ".join(str(d) for d in psi.dims)
    return f'{{\n  "dims": [{dims}],\n  "amplitudes": [{amps}]\n}}\n'
