"""Deterministic file formats for reports and matrices.

Matrices travel as CSV with a shape comment line and shortest
round-trip float representations, so read + write reproduces the file
byte for byte.  JSON reports are sorted-key, newline-terminated, and
free of bare NaN/Infinity tokens.  All writes go through a temp file in
the target directory followed by an atomic rename.
"""
from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x) -> str:
    """Shortest representation that parses back to the same double."""
    return repr(float(x))


def matrix_to_csv_text(mat) -> str:
    """CSV text for a 1-d or 2-d array: '# rows,cols' then row-major
    data lines. Vectors are written as a single column."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ConfigError(f"matrix CSV needs a 1-d or 2-d array, got ndim={arr.ndim}")
    # repr of the Python floats of tolist() is format_float's text.
    lines = [f"# {arr.shape[0]},{arr.shape[1]}"]
    lines += [",".join(map(repr, row)) for row in arr.tolist()]
    return "\n".join(lines) + "\n"


def write_matrix_csv(path, mat) -> None:
    atomic_write_text(path, matrix_to_csv_text(mat))


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix CSV written by write_matrix_csv, checking the
    declared shape."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ConfigError(f"{path}: missing '# rows,cols' header line")
    try:
        rows, cols = (int(part) for part in lines[0][1:].strip().split(","))
    except ValueError:
        raise ConfigError(f"{path}: malformed shape header {lines[0]!r}") from None
    data = [line for line in lines[1:] if line]
    if len(data) != rows:
        raise ConfigError(f"{path}: header declares {rows} rows, found {len(data)}")
    out = np.empty((rows, cols))
    for i, line in enumerate(data):
        parts = line.split(",")
        if len(parts) != cols:
            raise ConfigError(
                f"{path}: row {i} has {len(parts)} values, expected {cols}"
            )
        out[i] = [float(p) for p in parts]
    return out


def to_jsonable(obj):
    """Recursively coerce report values to strict-JSON types.

    Non-finite floats become their repr strings ('nan', 'inf', '-inf')
    so the output stays valid JSON without losing the diagnostic."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def dump_json(path, obj) -> None:
    text = json.dumps(to_jsonable(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    atomic_write_text(path, text)


def report_to_dict(report) -> dict:
    """Scalar and small-matrix content of an InfoReport; the grid-sized
    arrays go to their own CSV files."""
    cat = report.category
    out = {
        "schema_version": SCHEMA_VERSION,
        "label": report.label,
        "p": report.p,
        "m": report.m,
        "tangent": report.tangent,
        "engine": report.engine,
        "category": {
            "category": cat.category.value,
            "gamma_min": cat.gamma_min,
            "gamma_max": cat.gamma_max,
            "abs_gamma_max": cat.abs_gamma_max,
            "tol_zero": cat.tol_zero,
            "bound": cat.bound,
        },
        "structural_max_se": report.structural.max_se(),
        "fisher": report.fisher,
        "v_min_eigen": report.v_min_eigen,
        "normalization_deficit": report.normalization_deficit,
        "diagnostics": report.diagnostics,
    }
    if report.lfd is not None:
        sr = report.lfd.solve_result
        out["lfd_solve"] = {
            "rank": sr.rank,
            "relative_residual": sr.relative_residual,
            "condition": sr.condition,
            "sigma_min": sr.sigma_min,
            "sigma_max": sr.sigma_max,
        }
    if report.efficient is not None:
        out["efficient_information"] = {
            "by_score": report.efficient.by_score,
            "by_adjoint": report.efficient.by_adjoint,
            "discrepancy": report.efficient.discrepancy,
        }
    if report.identifiability is not None:
        out["identifiability"] = {
            "min_eigen": report.identifiability.min_eigen,
            "dimension": report.identifiability.dimension,
        }
    return to_jsonable(out)


def property_results_to_dict(results) -> dict:
    """Suite results as a JSON-ready document; deterministic given the
    results, with no clock or environment fields."""
    return {
        "schema_version": SCHEMA_VERSION,
        "checks": [
            {
                "name": r.name,
                "max_discrepancy": r.max_discrepancy,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "context": to_jsonable(r.context),
            }
            for r in results
        ],
        "n_checks": len(results),
        "n_failed": sum(1 for r in results if not r.passed),
    }
