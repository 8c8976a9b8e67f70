import json
import os
import stat

import numpy as np
import pytest

from semiinfo import analyze_model, run_suite, serialize, zoo
from semiinfo.engines import outcome_law, structural_functions
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
    # Two quiet NaNs with different payloads and a negative NaN: three
    # bit patterns that each print as 'nan'.
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002,
                     0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    repeated = np.tile([0.1, -2.5, 0.1, 7.0], (6, 3))
    zeros = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])
    specials = np.array([[np.inf, -np.inf, 5e-324, -5e-324],
                         [2.2250738585072009e-308, -1e-310, np.inf, 1e-320]])
    cases = (mat, mat[:, 0], mat[:, :0], repeated, zeros, nans,
             np.concatenate([nans, nans[::-1], [0.0, np.nan]]).reshape(2, 4),
             specials, mat.T, np.asfortranarray(mat), mat[::2, 1::3],
             mat[0, ::3], np.arange(-6, 6, dtype=np.int64).reshape(3, 4),
             np.array([[0.1, 1.0 / 3.0, -2.5e-40, 3e38],
                       [1e-45, -0.0, 7.0, 0.1]], dtype=np.float32),
             np.zeros((4, 0)), np.zeros((0, 3)),
             np.zeros((0, 0)))
    for arr in cases:
        rows = arr[:, np.newaxis] if arr.ndim == 1 else arr
        want = "".join(
            [f"# {rows.shape[0]},{rows.shape[1]}\n"] +
            [",".join(format_float(v) for v in row) + "\n" for row in rows])
        assert matrix_to_csv_text(arr) == want


def test_kappa_formats_each_distinct_double_once(monkeypatch):
    # On cox_cs, kappa(v, u) depends only on max(u, v): m distinct doubles
    # among the m * m entries of the matrix the analyze command writes.
    model = zoo.build("cox_cs", m=100)
    c, s = model.components, model.state
    kappa = structural_functions(outcome_law(model.exact, c, s), c, s).kappa
    want = "".join(["# 100,100\n"] + [
        ",".join(format_float(v) for v in row) + "\n" for row in kappa])
    calls = []

    def counting(x):
        calls.append(x)
        return format_float(x)

    monkeypatch.setattr(serialize, "format_float", counting)
    assert matrix_to_csv_text(kappa) == want
    assert kappa.size == 10_000
    assert len(calls) == 100


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


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("x\n")
        atomic_write_text(tmp_path / "atomic.txt", "x \u00e9\n")
    finally:
        os.umask(umask)
    plain, atomic = (stat.S_IMODE((tmp_path / name).stat().st_mode)
                     for name in ("plain.txt", "atomic.txt"))
    assert atomic == plain == 0o644
    assert (tmp_path / "atomic.txt").read_bytes() == "x \u00e9\n".encode("utf-8")


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
