import json
import os

import numpy as np
import pytest

from semiinfo import analyze_model, run_suite, zoo
from semiinfo.errors import ConfigError
from semiinfo.serialize import (
    SCHEMA_VERSION,
    atomic_write_text,
    dump_json,
    format_float,
    matrix_to_csv_text,
    property_results_to_dict,
    read_matrix_csv,
    report_to_dict,
    to_jsonable,
    write_matrix_csv,
)


def test_matrix_csv_text_matches_format_float_per_element():
    rng = np.random.default_rng(7)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, -3.0,
               123456789.0, 2.0 ** 53, 1e-300, 1.0 / 3.0]
    mat = np.concatenate([special, rng.normal(size=37) *
                          np.exp(rng.normal(size=37) * 20)]).reshape(5, 10)
    for arr in (mat, mat[:, 0], mat[:, :0]):
        rows = arr[:, np.newaxis] if arr.ndim == 1 else arr
        want = "".join(
            [f"# {rows.shape[0]},{rows.shape[1]}\n"] +
            [",".join(format_float(v) for v in row) + "\n" for row in rows])
        assert matrix_to_csv_text(arr) == want


def test_matrix_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(31)
    mat = rng.normal(size=(4, 3)) * np.exp(rng.normal(size=(4, 3)) * 8)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, mat)
    first = path.read_bytes()
    back = read_matrix_csv(path)
    np.testing.assert_array_equal(back, mat)
    write_matrix_csv(path, back)
    assert path.read_bytes() == first


def test_vector_becomes_column(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix_csv(path, np.array([1.5, -2.0]))
    text = path.read_text()
    assert text.startswith("# 2,1\n")
    back = read_matrix_csv(path)
    assert back.shape == (2, 1)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0)], ids=["0x0", "3x0"])
def test_empty_matrix_round_trips(tmp_path, shape):
    path = tmp_path / "e.csv"
    write_matrix_csv(path, np.zeros(shape))
    first = path.read_bytes()
    back = read_matrix_csv(path)
    assert back.shape == shape
    write_matrix_csv(path, back)
    assert path.read_bytes() == first


def test_csv_header_is_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(ConfigError):
        read_matrix_csv(path)
    path.write_text("# 2,2\n1.0,2.0\n")
    with pytest.raises(ConfigError):
        read_matrix_csv(path)
    path.write_text("# 1,2\n1.0,2.0,3.0\n")
    with pytest.raises(ConfigError):
        read_matrix_csv(path)


def test_format_float_uses_repr():
    assert format_float(0.1) == "0.1"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def test_csv_text_shape_header():
    text = matrix_to_csv_text(np.arange(6.0).reshape(2, 3))
    lines = text.splitlines()
    assert lines[0] == "# 2,3"
    assert len(lines) == 3
    assert text.endswith("\n")


def test_to_jsonable_types():
    out = to_jsonable({
        "flag": np.bool_(True),
        "n": np.int64(3),
        "x": np.float64(0.25),
        "arr": np.array([1.0, 2.0]),
        "nested": (1, {"y": False}),
        "bad": float("nan"),
        "worse": float("-inf"),
    })
    assert out["flag"] is True
    assert out["n"] == 3 and isinstance(out["n"], int)
    assert out["x"] == 0.25
    assert out["arr"] == [1.0, 2.0]
    assert out["nested"] == [1, {"y": False}]
    assert out["bad"] == "nan"
    assert out["worse"] == "-inf"
    # booleans must survive as JSON booleans, not integers
    assert json.dumps(to_jsonable(np.bool_(False))) == "false"


def test_dump_json_sorted_and_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dump_json(a, {"z": 1, "a": [2, 3]})
    dump_json(b, {"a": [2, 3], "z": 1})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def test_atomic_write_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_report_to_dict_keys():
    model = zoo.build("cox_rc")
    report = analyze_model(model.components, model.state, model.exact)
    doc = report_to_dict(report)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["category"]["category"] == "invertible_multiplier"
    assert "timestamp" not in doc
    for key in ("p", "m", "tangent", "engine", "fisher", "v_min_eigen",
                "efficient_information", "identifiability", "diagnostics"):
        assert key in doc, key
    json.dumps(doc)  # must already be JSON clean


def test_property_results_to_dict_is_deterministic():
    results = run_suite(["mixture"], seed=3)
    doc = property_results_to_dict(results)
    assert doc["n_checks"] == len(results)
    assert doc["n_failed"] == 0
    assert "timestamp" not in doc
    again = property_results_to_dict(run_suite(["mixture"], seed=3))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)
