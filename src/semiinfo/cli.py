"""Command line front end: config in, reports and CSV tables out.

Exit codes: 0 success (including expected findings such as a
non-regular functional), 1 validation suite failures, 2 configuration
problems, 3 numerical failures (the message names the stage).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import io
import json
import math
import os
import sys

import numpy as np

from . import zoo
from .calculus import analyze_model, nonparametric_influence
from .engines import MonteCarlo
from .errors import ConfigError, SemiinfoError
from .likelihood import TangentKind
from .measure import MeasureKind, center
from .operators import (EIGEN_REL_CUT, BlockInformation, _spectrum,
                        block_inverse_identity_check,
                        efficient_info_parametric, invertibility_verdict)
from .serialize import (SCHEMA_VERSION, atomic_write_text, dump_json,
                        format_float, property_results_to_dict,
                        read_matrix_csv, report_to_dict, write_matrix_csv)
from .validate import SUITE_SEED_DEFAULT, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("analyze", "validate", "influence", "paramcheck")

# A paramcheck matrix is symmetric when no entry differs from its mirror
# by more than this times max(largest |entry|, 1).
PARAMCHECK_SYMMETRY_TOL = 1e-10

_TOP_KEYS = {"schema_version", "command", "model", "seed", "engine",
             "validate", "influence", "paramcheck"}
_MODEL_KEYS = {"id", "params"}
_ENGINE_KEYS = {"kind", "n", "seed"}
_VALIDATE_KEYS = {"models", "params", "seed", "h"}
_INFLUENCE_KEYS = {"functional", "t", "path", "nonregular_tol"}
_PARAMCHECK_KEYS = {"path", "p"}


class NumericalFailure(Exception):
    """A numerical stage failed; carries the stage name for the exit-3
    message."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}"
        )


def _whole(value, where, minimum):
    """``value`` if it is an int of at least ``minimum`` (0 for a seed, 1
    for a count); a bool, a float or a string is a configuration error."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ConfigError(
            f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


def _real(value, where, *, above=None, at_least=None):
    """``value`` as a float if it is an int or float that is finite as a
    float, above ``above`` and at least ``at_least`` when given; a bool,
    a string, null, a non-finite number or an int beyond the float range
    is a configuration error."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            number = float(value)
    if not math.isfinite(number) \
            or (above is not None and number <= above) \
            or (at_least is not None and number < at_least):
        bound = (f" > {above}" if above is not None
                 else f" >= {at_least}" if at_least is not None else "")
        raise ConfigError(
            f"{where} must be a finite number{bound}, got {value!r}")
    return number


def _seed(cfg, section, default, seed_override):
    """The run's seed: ``--seed`` (checked by ``main``), else the seed of
    the config's ``section``, else its top-level seed, else ``default``."""
    if seed_override is not None:
        return seed_override
    if "seed" in cfg.get(section, {}):
        return _whole(cfg[section]["seed"], f"config.{section}.seed", 0)
    return _whole(cfg.get("seed", default), "config.seed", 0)


def load_config(path) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _check_keys(cfg, _TOP_KEYS, "config")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if "model" in cfg:
        _check_keys(cfg["model"], _MODEL_KEYS, "config.model")
    if "engine" in cfg:
        _check_keys(cfg["engine"], _ENGINE_KEYS, "config.engine")
    if "validate" in cfg:
        _check_keys(cfg["validate"], _VALIDATE_KEYS, "config.validate")
    if "influence" in cfg:
        _check_keys(cfg["influence"], _INFLUENCE_KEYS, "config.influence")
    if "paramcheck" in cfg:
        _check_keys(cfg["paramcheck"], _PARAMCHECK_KEYS, "config.paramcheck")
    return cfg


def _read_matrix(path, where):
    """The matrix CSV a config field names; a file that cannot be read
    or parsed, or that holds a non-finite entry, is a configuration
    error, and so is a ``path`` that is not a non-empty string (``open``
    would read an integer as a file descriptor)."""
    if not isinstance(path, str) or not path:
        raise ConfigError(f"{where} must be a non-empty string, got {path!r}")
    try:
        mat = read_matrix_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: cannot read matrix CSV {path!r}: "
                          f"{exc}") from None
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        i, j = bad[0].tolist()
        raise ConfigError(f"{where}: matrix CSV {path!r} has a non-finite "
                          f"entry {float(mat[i, j])!r} at row {i}, column {j}")
    return mat


def _build_model(cfg):
    model_cfg = cfg.get("model")
    if not model_cfg or "id" not in model_cfg:
        raise ConfigError("config needs a model section with an 'id'")
    params = model_cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.model.params must be a JSON object")
    kwargs = {}
    for key, value in params.items():
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return zoo.build(model_cfg["id"], **kwargs)
    except ConfigError:
        raise
    except (SemiinfoError, TypeError, ValueError, KeyError) as exc:
        raise ConfigError(
            f"model {model_cfg['id']!r} construction failed: {exc}"
        ) from None


def _resolve_engine(cfg, model, seed_override):
    engine_cfg = cfg.get("engine", {"kind": "exact"})
    kind = engine_cfg.get("kind", "exact")
    if kind == "exact":
        return model.exact
    if kind == "mc":
        n = _whole(engine_cfg.get("n"), "config.engine.n", 1)
        # numpy refuses to draw a sample larger than its largest index.
        largest = int(np.iinfo(np.intp).max)
        if n > largest:
            raise ConfigError(
                f"config.engine.n must be at most {largest}, got {n!r}")
        return MonteCarlo(model.exact, n,
                          _seed(cfg, "engine", 0, seed_override))
    raise ConfigError(f"unknown engine kind {kind!r}; use 'exact' or 'mc'")


def cmd_analyze(cfg, out_dir, seed_override):
    model = _build_model(cfg)
    engine = _resolve_engine(cfg, model, seed_override)
    try:
        report = analyze_model(model.components, model.state, engine,
                               label=model.model_id)
    except SemiinfoError as exc:
        raise NumericalFailure("operator analysis", exc) from exc

    doc = report_to_dict(report)
    doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    dump_json(os.path.join(out_dir, "report.json"), doc)
    write_matrix_csv(os.path.join(out_dir, "gamma.csv"), report.structural.gamma)
    write_matrix_csv(os.path.join(out_dir, "kappa.csv"), report.structural.kappa)
    write_matrix_csv(os.path.join(out_dir, "adjoint_score.csv"), report.adjoint)
    lfd_values = report.lfd.values if report.lfd is not None \
        else np.zeros((report.m, 0))
    write_matrix_csv(os.path.join(out_dir, "lfd.csv"), lfd_values)
    print(f"analyze: {model.model_id} category={report.category.category.value} "
          f"report written to {out_dir}")
    return EXIT_OK


def cmd_validate(cfg, out_dir, seed_override):
    vcfg = cfg.get("validate", {})
    seed = _seed(cfg, "validate", SUITE_SEED_DEFAULT, seed_override)
    kwargs = {}
    if "h" in vcfg:
        kwargs["h"] = _real(vcfg["h"], "config.validate.h", above=0)
        if kwargs["h"] ** 2 == 0.0:
            # The finite-difference tolerances scale with h * h.
            raise ConfigError("config.validate.h must be a number whose "
                              f"square is above 0, got {vcfg['h']!r}")
    models = vcfg.get("models")
    if models is not None and (
            not isinstance(models, list) or not models
            or not all(isinstance(mid, str) for mid in models)):
        raise ConfigError("config.validate.models must be a non-empty list "
                          f"of model ids, got {models!r}")
    params = vcfg.get("params")
    if params is not None and not isinstance(params, dict):
        raise ConfigError("config.validate.params must map model id to params")
    validated = models if models is not None else list(zoo.MODELS)
    for mid, value in (params or {}).items():
        if mid not in validated:
            raise ConfigError(f"config.validate.params.{mid} names no model "
                              f"being validated; models: {validated}")
        if not isinstance(value, dict):
            raise ConfigError(f"config.validate.params.{mid} must be a JSON "
                              f"object, got {value!r}")
    try:
        results = run_suite(models, seed=seed, params=params, **kwargs)
    except ConfigError:
        raise
    except SemiinfoError as exc:
        raise NumericalFailure("validation suite", exc) from exc

    dump_json(os.path.join(out_dir, "report.json"),
              property_results_to_dict(results))
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name:<{width}} max_discrepancy={r.max_discrepancy:.3e} "
              f"tolerance={r.tolerance:.3e}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def _functional_derivative(icfg, model):
    eta = model.state.eta
    kind = icfg.get("functional")
    if kind in ("survival_at", "point_mass_at"):
        t = _real(icfg.get("t"), "config.influence.t")
    if kind == "survival_at":
        if eta.kind is not MeasureKind.POSITIVE_FINITE:
            raise ConfigError(
                "survival_at applies to a cumulative-intensity measure, "
                "not a probability measure"
            )
        below = eta.grid.points <= t
        surv = float(np.exp(-np.sum(eta.masses[below])))
        return -surv * below.astype(float)
    if kind == "point_mass_at":
        chi = (eta.grid.points == t).astype(float)
        if not chi.any():
            raise ConfigError(f"no grid point at t={t}")
        return chi
    if kind == "mean":
        return eta.grid.points.astype(float)
    if kind == "csv":
        values = _read_matrix(icfg.get("path"), "config.influence.path")
        if values.shape != (eta.size, 1):
            raise ConfigError(
                f"chi_dot CSV has shape {values.shape}, expected ({eta.size}, 1)"
            )
        return values[:, 0]
    raise ConfigError(
        f"unknown functional {kind!r}; use survival_at, point_mass_at, "
        "mean, or csv"
    )


def cmd_influence(cfg, out_dir, seed_override):
    model = _build_model(cfg)
    if model.components.p != 0:
        raise ConfigError(
            f"influence needs a model without parametric part; "
            f"{model.model_id} has p={model.components.p}"
        )
    icfg = cfg.get("influence")
    if not icfg:
        raise ConfigError("config needs an influence section")
    engine = _resolve_engine(cfg, model, seed_override)
    chi_dot = _functional_derivative(icfg, model)
    if model.components.tangent is TangentKind.L2_ZERO:
        chi_dot = center(chi_dot, model.state.eta).values
    kwargs = {}
    if "nonregular_tol" in icfg:
        kwargs["nonregular_tol"] = _real(icfg["nonregular_tol"],
                                         "config.influence.nonregular_tol",
                                         at_least=0)
    try:
        result = nonparametric_influence(engine, model.components,
                                         model.state, chi_dot, **kwargs)
        rows = [(repr(o), result.influence(o)) for o in model.exact.outcomes]
    except SemiinfoError as exc:
        raise NumericalFailure("influence computation", exc) from exc

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["outcome", "influence"])
    for oid, value in rows:
        writer.writerow([oid, format_float(value)])
    atomic_write_text(os.path.join(out_dir, "influence.csv"), buffer.getvalue())
    write_matrix_csv(os.path.join(out_dir, "lfd.csv"), result.lfd)
    sr = result.solve_result
    dump_json(os.path.join(out_dir, "report.json"), {
        "schema_version": SCHEMA_VERSION,
        "model": model.model_id,
        "functional": {k: icfg[k] for k in sorted(icfg)},
        "non_regular": result.non_regular,
        "factorization": result.factorization,
        "score_mean": result.score_mean,
        "relative_residual": sr.relative_residual,
        "rank": sr.rank,
        "condition": sr.condition,
        "sigma_min": sr.sigma_min,
        "sigma_max": sr.sigma_max,
    })
    flag = " (non-regular)" if result.non_regular else ""
    print(f"influence: {model.model_id}{flag} tables written to {out_dir}")
    return EXIT_OK


def cmd_paramcheck(cfg, out_dir, seed_override):
    del seed_override
    pcfg = cfg.get("paramcheck")
    if not pcfg or "path" not in pcfg or "p" not in pcfg:
        raise ConfigError("config needs a paramcheck section with 'path' and 'p'")
    mat = _read_matrix(pcfg["path"], "config.paramcheck.path")
    if mat.size == 0:
        raise ConfigError(f"config.paramcheck.path: matrix CSV "
                          f"{pcfg['path']!r} is empty, shape {mat.shape}")
    p = _whole(pcfg["p"], "config.paramcheck.p", 0)
    if p > mat.shape[0]:
        raise ConfigError(f"paramcheck.p must be an integer in [0, {mat.shape[0]}]")
    try:
        if mat.shape[0] != mat.shape[1] or np.max(np.abs(mat - mat.T)) \
                > PARAMCHECK_SYMMETRY_TOL * max(np.max(np.abs(mat)), 1.0):
            raise ConfigError("paramcheck matrix must be square symmetric")
        eigs = _spectrum(mat)[0]
        if eigs[0] < -EIGEN_REL_CUT * eigs[-1]:
            raise SemiinfoError(
                f"input matrix is not positive semidefinite "
                f"(min eigenvalue {eigs[0]:.3e})"
            )
        info = BlockInformation.from_matrix(mat, p)
        efficient = efficient_info_parametric(info)
        discrepancy = block_inverse_identity_check(info)
        verdict = invertibility_verdict(info)
    except ConfigError:
        raise
    except SemiinfoError as exc:
        raise NumericalFailure("partitioned-matrix check", exc) from exc

    write_matrix_csv(os.path.join(out_dir, "efficient_info.csv"), efficient)
    dump_json(os.path.join(out_dir, "report.json"), {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "q": int(mat.shape[0] - p),
        "inverse_identity_discrepancy": discrepancy,
        "verdict": verdict,
    })
    print(f"paramcheck: discrepancy={discrepancy:.3e} "
          f"full_invertible={verdict['full_invertible']}")
    return EXIT_OK


_HANDLERS = {
    "analyze": cmd_analyze,
    "validate": cmd_validate,
    "influence": cmd_influence,
    "paramcheck": cmd_paramcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiinfo",
        description="Information-operator calculus for semiparametric models",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        metavar="command",
                        help="one of: " + " | ".join(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        seed = None if args.seed is None else _whole(args.seed, "--seed", 0)
        cfg = load_config(args.config)
        command = args.command or cfg.get("command")
        if command not in _HANDLERS:
            raise ConfigError(
                "no command given (positional or config); "
                f"choose from {', '.join(COMMANDS)}"
            )
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"--out {args.out!r} is not a usable output directory: {exc}"
            ) from None
        return _HANDLERS[command](cfg, args.out, seed)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure in {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
