import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiinfo import nonparametric_influence, zoo
from semiinfo.cli import _functional_derivative, main
from semiinfo.operators import SIGMA_MIN_REL_TOL
from semiinfo.serialize import read_matrix_csv, write_matrix_csv


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main([str(a) for a in args])


ANALYZE_FILES = ("report.json", "gamma.csv", "kappa.csv",
                 "adjoint_score.csv", "lfd.csv")


def test_analyze_writes_expected_files(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "analyze",
        "model": {"id": "cox_rc"},
    })
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out]) == 0
    for name in ANALYZE_FILES:
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["category"]["category"] == "invertible_multiplier"
    assert "timestamp" in report


def test_analyze_timestamp_is_the_only_varying_field(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "model": {"id": "mixture", "params": {"theta": 0.25}},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["analyze", "--config", cfg, "--out", out1]) == 0
    assert run(["analyze", "--config", cfg, "--out", out2]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("timestamp"), r2.pop("timestamp")
    assert r1 == r2
    for name in ANALYZE_FILES[1:]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_analyze_csvs_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "analyze",
        "model": {"id": "cox_cs"},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    for name in ("gamma.csv", "kappa.csv", "adjoint_score.csv", "lfd.csv"):
        path = tmp_path / name
        original = path.read_bytes()
        write_matrix_csv(path, read_matrix_csv(path))
        assert path.read_bytes() == original, name


def test_validate_reports_are_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "validate",
        "validate": {"models": ["cox_rc", "mixture"], "seed": 7},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["--config", cfg, "--out", out1]) == 0
    first_stdout = capsys.readouterr().out
    assert run(["--config", cfg, "--out", out2]) == 0
    second_stdout = capsys.readouterr().out
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert first_stdout == second_stdout
    assert "checks passed" in first_stdout


def test_validate_report_at_seed_318_has_the_pinned_digest(tmp_path):
    # perfbench/workloads.py pins the seed-318 report's SHA-256; output
    # bytes depend on the BLAS thread count, so BLAS runs on one thread.
    root = Path(__file__).resolve().parents[1]
    pinned = re.search(r'VALIDATE_DIGEST = \\\s*"([0-9a-f]{64})"',
                       (root / "perfbench" / "workloads.py").read_text())
    assert pinned is not None
    cfg = write_cfg(tmp_path, {"schema_version": 1, "command": "validate",
                               "validate": {"seed": 318}})
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "semiinfo.cli", "--config", cfg,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digest == pinned.group(1)


def test_validate_failure_exits_one(tmp_path, capsys):
    # a step this small drowns the difference quotients in rounding noise,
    # which the bound checks must flag
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "validate",
        "validate": {"models": ["mixture"], "h": 1e-8},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_failed"] > 0
    assert "FAIL" in capsys.readouterr().out


def read_influence(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["outcome", "influence"]
    return [float(v) for _, v in rows[1:]]


def test_influence_matches_closed_form(tmp_path):
    model = zoo.build("kaplan_meier")
    t = float(model.state.eta.grid.points[1])
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "influence",
        "model": {"id": "kaplan_meier"},
        "influence": {"functional": "survival_at", "t": t},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    got = read_influence(tmp_path / "influence.csv")
    closed = model.references["influence"](t)
    want = [closed(o) for o in model.exact.outcomes]
    np.testing.assert_allclose(got, want, atol=1e-8)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["non_regular"] is False


def test_influence_reports_the_singular_values_of_its_solve(tmp_path):
    model = zoo.build("kaplan_meier")
    icfg = {"functional": "survival_at", "t": 1.0}
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "influence",
        "model": {"id": "kaplan_meier"},
        "influence": icfg,
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    chi_dot = _functional_derivative(icfg, model)
    sr = nonparametric_influence(model.exact, model.components, model.state,
                                 chi_dot).solve_result
    assert report["sigma_min"] == sr.sigma_min
    assert report["sigma_max"] == sr.sigma_max
    assert 0.0 < report["sigma_min"] <= report["sigma_max"]
    # full rank: the condition is over all singular values, as it was
    # before it was restricted to the kept ones
    assert report["rank"] == model.state.eta.size
    assert report["condition"] == sr.sigma_max / sr.sigma_min


def test_influence_condition_is_over_the_kept_singular_values(tmp_path):
    # The rank-4 solve on mixture m=400 drops singular values below
    # SIGMA_MIN_REL_TOL * sigma_max, so the condition of what it solves is
    # at most 1 / SIGMA_MIN_REL_TOL; sigma_min still shows the dropped ones.
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "influence",
        "model": {"id": "mixture", "params": {"parametric": False, "m": 400}},
        "influence": {"functional": "mean"},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rank"] == 4
    assert 1.0 <= report["condition"] <= 1.0 / SIGMA_MIN_REL_TOL
    assert report["sigma_min"] < SIGMA_MIN_REL_TOL * report["sigma_max"]


def test_influence_zero_derivative_gives_zeros(tmp_path):
    model = zoo.build("kaplan_meier")
    zeros = tmp_path / "chi.csv"
    write_matrix_csv(zeros, np.zeros((model.state.eta.size, 1)))
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "influence",
        "model": {"id": "kaplan_meier"},
        "influence": {"functional": "csv", "path": str(zeros)},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    assert all(v == 0.0 for v in read_influence(tmp_path / "influence.csv"))


def test_influence_flags_non_regular_without_failing(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "influence",
        "model": {"id": "mixture", "params": {"parametric": False, "m": 25}},
        "influence": {"functional": "mean"},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["non_regular"] is True
    # the rank-revealing solve keeps fewer singular values than the
    # reduced (mean-zero) system has dimensions
    assert 0 < report["rank"] < 25 - 1


def test_influence_rejects_parametric_model(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "influence",
        "model": {"id": "cox_rc"},
        "influence": {"functional": "survival_at", "t": 1.0},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_paramcheck_happy_path(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(5, 5))
    mat = a @ a.T + 5.0 * np.eye(5)
    mat_path = tmp_path / "info.csv"
    write_matrix_csv(mat_path, mat)
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "paramcheck",
        "paramcheck": {"path": str(mat_path), "p": 2},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["p"] == 2 and report["q"] == 3
    assert report["inverse_identity_discrepancy"] < 1e-10
    assert report["verdict"]["equivalence_holds"] is True
    eff = read_matrix_csv(tmp_path / "efficient_info.csv")
    assert eff.shape == (2, 2)


def test_paramcheck_rejects_non_psd(tmp_path, capsys):
    mat_path = tmp_path / "info.csv"
    write_matrix_csv(mat_path, np.array([[1.0, 0.0], [0.0, -1.0]]))
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "paramcheck",
        "paramcheck": {"path": str(mat_path), "p": 1},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_paramcheck_names_singular_block(tmp_path, capsys):
    mat_path = tmp_path / "info.csv"
    write_matrix_csv(mat_path, np.diag([1.0, 1.0, 0.0]))
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "paramcheck",
        "paramcheck": {"path": str(mat_path), "p": 2},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 3
    assert "i_pp" in capsys.readouterr().err


@pytest.mark.parametrize("p", [True, False, 1.0, -1, "1", 4])
def test_paramcheck_refuses_a_p_that_is_no_block_size(tmp_path, capsys, p):
    mat_path = tmp_path / "info.csv"
    write_matrix_csv(mat_path, 2.0 * np.eye(3))
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "paramcheck",
        "paramcheck": {"path": str(mat_path), "p": p},
    })
    assert run(["--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "paramcheck.p must be" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_config_errors_exit_two(tmp_path, capsys):
    cases = [
        {"schema_version": 2, "command": "analyze", "model": {"id": "cox_rc"}},
        {"schema_version": 1, "command": "analyze"},
        {"schema_version": 1, "command": "analyze", "model": {"id": "nope"}},
        {"schema_version": 1, "command": "analyze",
         "model": {"id": "cox_rc"}, "surprise": 1},
        {"schema_version": 1, "command": "analyze",
         "model": {"id": "cox_rc", "params": {"mass_scale": "tiny"}}},
        {"schema_version": 1, "command": "analyze",
         "model": {"id": "cox_rc"}, "ridge_ladder": [-1.0]},
        {"schema_version": 1, "command": "analyze",
         "model": {"id": "cox_rc"}, "engine": {"kind": "mc"}},
        {"schema_version": 1},
    ]
    for i, doc in enumerate(cases):
        cfg = write_cfg(tmp_path, doc, name=f"cfg{i}.json")
        assert run(["--config", cfg, "--out", tmp_path]) == 2, doc
        assert "configuration error" in capsys.readouterr().err


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert run(["analyze", "--config", tmp_path / "absent.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", "--config", bad]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_an_out_path_that_is_no_directory_exits_two(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("a regular file\n")
    cfg = write_cfg(tmp_path, {"schema_version": 1, "command": "analyze",
                               "model": {"id": "cox_rc"}})
    assert run(["--config", cfg, "--out", tmp_path / out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--out" in err
    assert (tmp_path / "taken").read_text() == "a regular file\n"


def test_command_flag_and_positional_must_agree(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "model": {"id": "cox_rc"},
    })
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--command", "validate", "--config", cfg])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_command_is_rejected_by_argparse(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"schema_version": 1})
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", "--config", cfg])
    assert exc.value.code == 2
    capsys.readouterr()


def test_mc_engine_analyze(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema_version": 1,
        "command": "analyze",
        "model": {"id": "cox_rc"},
        "engine": {"kind": "mc", "n": 2000, "seed": 5},
    })
    assert run(["--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["engine"] == "mc"
    assert report["structural_max_se"] > 0.0


MC_ANALYZE = {"schema_version": 1, "command": "analyze",
              "model": {"id": "cox_rc"}, "engine": {"kind": "mc", "n": 200}}
VALIDATE_MIXTURE = {"schema_version": 1, "command": "validate",
                    "validate": {"models": ["mixture"]}}


BAD_VALUES = [
    (MC_ANALYZE, "engine", "n", True),
    (MC_ANALYZE, "engine", "n", 2.0),
    (MC_ANALYZE, "engine", "seed", "x"),
    (MC_ANALYZE, "engine", "seed", -1),
    (MC_ANALYZE, "engine", "seed", 1.7),
    (MC_ANALYZE, "engine", "seed", False),
    (MC_ANALYZE, None, "seed", -1),
    (VALIDATE_MIXTURE, "validate", "seed", "x"),
    (VALIDATE_MIXTURE, "validate", "seed", -3),
    (VALIDATE_MIXTURE, "validate", "seed", 2.5),
    (VALIDATE_MIXTURE, None, "seed", True),
]


@pytest.mark.parametrize(
    "base, section, key, value", BAD_VALUES,
    ids=[f"{b['command']}-{s or 'top'}.{k}={v!r}"
         for b, s, k, v in BAD_VALUES])
def test_bad_seeds_and_counts_exit_two(tmp_path, capsys, base, section, key,
                                       value):
    doc = json.loads(json.dumps(base))
    (doc[section] if section else doc)[key] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(value) in err


ANALYZE_COX_RC = {"schema_version": 1, "command": "analyze",
                  "model": {"id": "cox_rc"}}
INFLUENCE_KM = {"schema_version": 1, "command": "influence",
                "model": {"id": "kaplan_meier"},
                "influence": {"functional": "survival_at", "t": 1.0}}
INF, NAN = float("inf"), float("nan")
# A JSON integer beyond the float range.
HUGE = 10 ** 401

# (base config, section, key, value, field the error names, bad entry)
BAD_NUMBERS = [
    (VALIDATE_MIXTURE, "validate", "h", 0, "config.validate.h", 0),
    (VALIDATE_MIXTURE, "validate", "h", -1e-6, "config.validate.h", -1e-6),
    (VALIDATE_MIXTURE, "validate", "h", "x", "config.validate.h", "x"),
    (VALIDATE_MIXTURE, "validate", "h", NAN, "config.validate.h", NAN),
    (VALIDATE_MIXTURE, "validate", "n_pair", "x", "config.validate.n_pair",
     "x"),
    (VALIDATE_MIXTURE, "validate", "n_pair", 2.5, "config.validate.n_pair",
     2.5),
    (VALIDATE_MIXTURE, "validate", "n_pair", -1, "config.validate.n_pair",
     -1),
    (VALIDATE_MIXTURE, "validate", "n_op_dirs", 0,
     "config.validate.n_op_dirs", 0),
    (VALIDATE_MIXTURE, "validate", "n_outcomes", True,
     "config.validate.n_outcomes", True),
    (INFLUENCE_KM, "influence", "nonregular_tol", "abc",
     "config.influence.nonregular_tol", "abc"),
    (INFLUENCE_KM, "influence", "nonregular_tol", None,
     "config.influence.nonregular_tol", None),
    (INFLUENCE_KM, "influence", "nonregular_tol", -1e-3,
     "config.influence.nonregular_tol", -1e-3),
    (INFLUENCE_KM, "influence", "t", True, "config.influence.t", True),
    (INFLUENCE_KM, "influence", "t", INF, "config.influence.t", INF),
    (INFLUENCE_KM, "influence", "t", "x", "config.influence.t", "x"),
    (VALIDATE_MIXTURE, "validate", "h", HUGE, "config.validate.h", HUGE),
    # h * h underflows to 0, which the finite-difference tolerances scale
    # with.
    (VALIDATE_MIXTURE, "validate", "h", 1e-300, "config.validate.h", 1e-300),
    (INFLUENCE_KM, "influence", "nonregular_tol", HUGE,
     "config.influence.nonregular_tol", HUGE),
    (INFLUENCE_KM, "influence", "t", HUGE, "config.influence.t", HUGE),
    # Sample sizes numpy refuses to draw (beyond its largest index).
    (MC_ANALYZE, "engine", "n", HUGE, "config.engine.n", HUGE),
    (MC_ANALYZE, "engine", "n", 2 ** 63, "config.engine.n", 2 ** 63),
]


@pytest.mark.parametrize(
    "base, section, key, value, field, bad", BAD_NUMBERS,
    ids=[f"{b['command']}-{s or 'top'}.{k}="
         + ("10**401" if v is HUGE else repr(v))
         for b, s, k, v, _, _ in BAD_NUMBERS])
def test_malformed_numbers_exit_two(tmp_path, capsys, base, section, key,
                                    value, field, bad):
    doc = json.loads(json.dumps(base))
    (doc[section] if section else doc)[key] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"{field} must be" in err and repr(bad) in err


@pytest.mark.parametrize("base", [MC_ANALYZE, VALIDATE_MIXTURE],
                         ids=["analyze", "validate"])
def test_negative_seed_flag_exits_two(tmp_path, capsys, base):
    cfg = write_cfg(tmp_path, base)
    assert run(["--config", cfg, "--out", tmp_path / "out",
                "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_seed_flag_overrides_the_config_seed(tmp_path, capsys):
    doc = dict(MC_ANALYZE, engine={"kind": "mc", "n": 200, "seed": 4})
    flagged = write_cfg(tmp_path, dict(doc, engine=dict(doc["engine"],
                                                        seed=-1)), "a.json")
    plain = write_cfg(tmp_path, doc, "b.json")
    assert run(["--config", flagged, "--out", tmp_path / "a",
                "--seed", "4"]) == 0
    assert run(["--config", plain, "--out", tmp_path / "b"]) == 0
    for name in ANALYZE_FILES[1:]:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    capsys.readouterr()


def _paramcheck(path):
    return {"schema_version": 1, "command": "paramcheck",
            "paramcheck": {"path": str(path), "p": 1}}


def _influence_csv(path):
    return {"schema_version": 1, "command": "influence",
            "model": {"id": "kaplan_meier"},
            "influence": {"functional": "csv", "path": str(path)}}


def _validate(**vcfg):
    return lambda tmp_path: {"schema_version": 1, "command": "validate",
                             "validate": vcfg}


def _unparsable_matrix(tmp_path):
    path = tmp_path / "info.csv"
    path.write_text("# 2,2\n1.0,abc\nabc,1.0\n")
    return _paramcheck(path)


def _empty_matrix(tmp_path):
    # what analyze writes as the lfd.csv of a p = 0 model
    path = tmp_path / "info.csv"
    write_matrix_csv(path, np.zeros((0, 0)))
    assert path.read_text() == "# 0,0\n"
    return dict(_paramcheck(path), paramcheck={"path": str(path), "p": 0})


def _non_finite_matrix(entry):
    def build(tmp_path):
        path = tmp_path / "info.csv"
        path.write_text(f"# 2,2\n1.0,{entry}\n{entry},1.0\n")
        return _paramcheck(path)
    return build


def _path_value(build, value):
    """``build``'s config with its path set to ``value`` as is."""
    def with_value(tmp_path):
        doc = build(tmp_path / "info.csv")
        section = doc["command"]
        return dict(doc, **{section: dict(doc[section], path=value)})
    return with_value


def _non_finite_derivative(tmp_path):
    values = np.ones((zoo.build("kaplan_meier").state.eta.size, 1))
    values[1, 0] = np.nan
    path = tmp_path / "chi.csv"
    write_matrix_csv(path, values)
    return _influence_csv(path)


# (id, config built in the test's directory, field the error names)
BAD_INPUTS = [
    ("paramcheck-missing-csv",
     lambda tmp_path: _paramcheck(tmp_path / "absent.csv"),
     "config.paramcheck.path"),
    ("paramcheck-unparsable-csv", _unparsable_matrix,
     "config.paramcheck.path"),
    ("influence-missing-csv",
     lambda tmp_path: _influence_csv(tmp_path / "absent.csv"),
     "config.influence.path"),
    ("validate-empty-models", _validate(models=[]),
     "config.validate.models"),
    ("validate-models-string", _validate(models="cox_rc"),
     "config.validate.models"),
    ("validate-params-list", _validate(models=["cox_rc"],
                                       params={"cox_rc": [1]}),
     "config.validate.params.cox_rc"),
    ("paramcheck-inf-csv", _non_finite_matrix("inf"),
     "config.paramcheck.path"),
    ("paramcheck-nan-csv", _non_finite_matrix("nan"),
     "config.paramcheck.path"),
    ("paramcheck-empty-csv", _empty_matrix, "config.paramcheck.path"),
    ("influence-nan-csv", _non_finite_derivative, "config.influence.path"),
    ("validate-params-misspelt-model",
     _validate(models=["kaplan_meier"],
               params={"kaplan_meir": {"mass_scale": 1.0}}),
     "config.validate.params.kaplan_meir"),
    ("validate-params-unknown-model",
     _validate(params={"no_such_model": {}}),
     "config.validate.params.no_such_model"),
    ("analyze-theta-beyond-float",
     lambda tmp_path: dict(ANALYZE_COX_RC, model={
         "id": "cox_rc", "params": {"theta": HUGE}}),
     "cannot build 'cox_rc'"),
    ("validate-params-theta-beyond-float",
     _validate(models=["cox_rc"], params={"cox_rc": {"theta": HUGE}}),
     "cannot build 'cox_rc'"),
    # open() reads an integer as a file descriptor: true is fd 1.
    ("paramcheck-path-true", _path_value(_paramcheck, True),
     "config.paramcheck.path must be a non-empty string, got True"),
    ("paramcheck-path-empty", _path_value(_paramcheck, ""),
     "config.paramcheck.path must be a non-empty string, got ''"),
    ("influence-path-true", _path_value(_influence_csv, True),
     "config.influence.path must be a non-empty string, got True"),
    ("influence-path-zero", _path_value(_influence_csv, 0),
     "config.influence.path must be a non-empty string, got 0"),
    ("influence-path-missing",
     lambda tmp_path: dict(INFLUENCE_KM, influence={"functional": "csv"}),
     "config.influence.path must be a non-empty string, got None"),
    ("validate-params-theta-empty",
     _validate(models=["cox_cs"], params={"cox_cs": {"theta": []}}),
     "cannot build 'cox_cs': theta must be a finite vector of length 1"),
    ("analyze-ridge-ladder-unknown-key",
     lambda tmp_path: dict(ANALYZE_COX_RC, ridge_ladder=[1e-4]),
     "unknown keys ['ridge_ladder']"),
]


@pytest.mark.parametrize("build, field", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_fields_exit_two(tmp_path, capsys, build, field):
    cfg = write_cfg(tmp_path, build(tmp_path))
    assert run(["--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("build", [_paramcheck, _influence_csv],
                         ids=["paramcheck", "influence"])
def test_a_file_descriptor_path_exits_two(tmp_path, capsys, build):
    # The descriptor of an opened, well-formed matrix CSV is not a path.
    path = tmp_path / "info.csv"
    m = zoo.build("kaplan_meier").state.eta.size
    write_matrix_csv(path, np.ones((m, 1)) if build is _influence_csv
                     else np.eye(2))
    fd = os.open(path, os.O_RDONLY)
    try:
        doc = _path_value(build, fd)(tmp_path)
        cfg = write_cfg(tmp_path, doc)
        assert run(["--config", cfg, "--out", tmp_path / "out"]) == 2
    finally:
        os.close(fd)
    err = capsys.readouterr().err
    assert f"config.{doc['command']}.path must be a non-empty string, " \
        f"got {fd}" in err
    assert not (tmp_path / "out" / "report.json").exists()


# Malformed build parameters, each refused by name before it can divide
# by zero (cox_cs m <= 0), round to a grid size (m=2.5, m=true) or be
# taken for its truth value (a non-bool flag).
BAD_MODEL_PARAMS = [
    ("cox_cs", {"m": 0}, "m must be an integer >= 2, got 0"),
    ("cox_cs", {"m": -1}, "m must be an integer >= 2, got -1"),
    ("cox_cs", {"m": 1}, "m must be an integer >= 2, got 1"),
    ("cox_cs", {"m": 2.5}, "m must be an integer >= 2, got 2.5"),
    ("mixture", {"m": True}, "m must be an integer >= 1, got True"),
    ("mixture", {"m": 0}, "m must be an integer >= 1, got 0"),
    ("mixture", {"parametric": "no"},
     "parametric must be true or false, got 'no'"),
    ("mixture", {"constant_kernel": 1},
     "constant_kernel must be true or false, got 1"),
    ("missing_cov", {"zero_cell": "false"},
     "zero_cell must be true or false, got 'false'"),
    ("missing_cov", {"degenerate_z": 1},
     "degenerate_z must be true or false, got 1"),
    ("cox_rc", {"duplicated_covariate": "no"},
     "duplicated_covariate must be true or false, got 'no'"),
    ("kaplan_meier", {"zero_mass_point": 0},
     "zero_mass_point must be true or false, got 0"),
    # A theta of the wrong length or kind, refused before it can index
    # past its end, broadcast into a wrong-sized score or reach numpy.
    ("cox_cs", {"theta": []},
     "theta must be a finite vector of length 1, got ()"),
    ("cox_cs", {"theta": [1, 2]},
     "theta must be a finite vector of length 1, got (1, 2)"),
    ("recurrent_transform", {"theta": [1, 2]},
     "theta must be a finite vector of length 1, got (1, 2)"),
    ("missing_cov", {"theta": [1]},
     "theta must be a finite vector of length 2, got (1,)"),
    ("missing_cov", {"theta": [1, 2, 3]},
     "theta must be a finite vector of length 2, got (1, 2, 3)"),
    ("cox_rc", {"theta": [1, 2, 3]},
     "theta must be a finite vector of length 1, got (1, 2, 3)"),
    ("mixture", {"theta": "x"},
     "theta must be a finite vector of length 1, got 'x'"),
    ("cox_cs", {"theta": True},
     "theta must be a finite vector of length 1, got True"),
]


@pytest.mark.parametrize(
    "model_id, params, message", BAD_MODEL_PARAMS,
    ids=[f"{model_id}-{key}={value!r}"
         for model_id, params, _ in BAD_MODEL_PARAMS
         for key, value in params.items()])
def test_malformed_model_params_exit_two(tmp_path, capsys, model_id, params,
                                         message):
    cfg = write_cfg(tmp_path, {"schema_version": 1, "command": "analyze",
                               "model": {"id": model_id, "params": params}})
    assert run(["--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"cannot build {model_id!r}: {message}" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("model_id, params", [
    ("cox_cs", {"m": 2}), ("mixture", {"m": 1}),
    ("mixture", {"parametric": False, "constant_kernel": True}),
    ("kaplan_meier", {"zero_mass_point": True})])
def test_well_formed_model_params_build(model_id, params):
    model = zoo.build(model_id, **params)
    assert model.state.eta.size == params.get("m", model.state.eta.size)
