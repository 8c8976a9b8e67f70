"""Print one SHA-256 digest per fixed `semiinfo` CLI config.

Usage, from the root of a checkout:

    python3 tools/output_digest.py > digest.txt

Run it at two commits and diff the two files: a change that promises
bit-identical outputs must print the same lines. Each line is
``<config> <exit code> <sha256>``. The script exits 1 when any config
exits nonzero (a config error, or a `validate` check that fails).

Each matrix CSV a config writes (`gamma`, `kappa`, `adjoint_score`,
`lfd` and `efficient_info`; `influence.csv` is not one) is also read
back with `read_matrix_csv` and written out again with
`matrix_to_csv_text`. The script names on stderr each file whose bytes
differ, and exits 1; its printed lines do not change.

BLAS is pinned to one thread before numpy is imported, as in the
benchmark: output bytes depend on the BLAS thread count (`analyze` on
`mixture` m=400 writes different bytes with one thread than with two).

For `validate` the digest is of `report.json` as written, so seed 318
prints the digest that `perfbench/workloads.py` pins. For the other
commands it covers every output file, in name order, with the line
holding the report's `timestamp` dropped. The `paramcheck` config reads
a fixed symmetric positive definite matrix that the script first writes
into its temporary directory.

The last line, `validate-pairs-318`, is not a CLI config. It is the
digest of the repr of every result of the one-pair checks
(`check_adjoint_identity`, `check_score_fd` and
`check_centering_construction`) over the six default builds, with
directions drawn from a generator seeded with 318, so that each pair's
context is pinned, not only the suite's aggregates. Its exit code is 1
when any of those checks fails.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from semiinfo import (TangentKind, check_adjoint_identity,  # noqa: E402
                      check_centering_construction, check_score_fd, zoo)
from semiinfo.cli import main as cli_main  # noqa: E402
from semiinfo.engines import outcome_law, structural_functions  # noqa: E402
from semiinfo.measure import center  # noqa: E402
from semiinfo.serialize import (matrix_to_csv_text,  # noqa: E402
                                read_matrix_csv, write_matrix_csv)

# The paramcheck matrix, written as SPD_CSV into the temporary directory.
SPD_4X4 = ((4.0, 1.0, 0.5, 0.25),
           (1.0, 3.0, 0.5, 0.125),
           (0.5, 0.5, 2.0, 0.25),
           (0.25, 0.125, 0.25, 1.5))
SPD_CSV = "spd-4x4.csv"

MATRIX_CSVS = ("gamma.csv", "kappa.csv", "adjoint_score.csv", "lfd.csv",
               "efficient_info.csv")

ZOO = ("cox_rc", "cox_cs", "recurrent_transform", "kaplan_meier", "mixture",
       "missing_cov")


def analyze(model_id, params=None, engine=None):
    return {"schema_version": 1, "command": "analyze",
            "model": {"id": model_id, "params": params or {}},
            "engine": engine or {"kind": "exact"}}


def influence(model_id, params, functional, engine=None):
    return {"schema_version": 1, "command": "influence",
            "model": {"id": model_id, "params": params},
            "engine": engine or {"kind": "exact"},
            "influence": functional}


def validate(seed, **options):
    return {"schema_version": 1, "command": "validate",
            "validate": dict(options, seed=seed)}


def paramcheck(p):
    return {"schema_version": 1, "command": "paramcheck",
            "paramcheck": {"path": SPD_CSV, "p": p}}


def mc(n, seed):
    return {"kind": "mc", "n": n, "seed": seed}


NONPARAMETRIC = {"parametric": False}
MEAN = {"functional": "mean"}

CONFIGS = dict(
    [(f"analyze-exact-{model_id}", analyze(model_id)) for model_id in ZOO]
    + [
        ("analyze-exact-mixture-np-m30",
         analyze("mixture", dict(NONPARAMETRIC, m=30))),
        # The only analyze line at p = 2: a two-column r_dot stack and a
        # singular Fisher information.
        ("analyze-exact-cox_rc-duplicated",
         analyze("cox_rc", {"duplicated_covariate": True})),
        ("analyze-exact-cox_cs-m100", analyze("cox_cs", {"m": 100})),
        # Most of the exact structural pass at m=200 is rows an outcome
        # cannot reach, which the pass skips: this pins that it skips
        # only zeros.
        ("analyze-exact-cox_cs-m200", analyze("cox_cs", {"m": 200})),
        # m=30 and m=400 leave the operator rank deficient: these pin the
        # truncated solve at a small and a large size.
        ("analyze-exact-mixture-m30", analyze("mixture", {"m": 30})),
        ("analyze-exact-mixture-m400", analyze("mixture", {"m": 400})),
        ("analyze-mc-cox_cs-m60", analyze("cox_cs", {"m": 60}, mc(100000, 7))),
        ("analyze-mc-mixture-m30", analyze("mixture", {"m": 30}, mc(20000, 1))),
        ("analyze-mc-cox_rc", analyze("cox_rc", engine=mc(20000, 5))),
        ("analyze-mc-missing_cov-zerocell",
         analyze("missing_cov", {"zero_cell": True}, mc(20000, 4))),
        ("analyze-mc-recurrent_transform",
         analyze("recurrent_transform", engine=mc(20000, 6))),
        # kaplan_meier is the only model with p = 0 and an L term: this
        # pins zero-width alpha and beta under a sampled law.
        ("analyze-mc-kaplan_meier",
         analyze("kaplan_meier", engine=mc(20000, 5))),
        # The only sampled p = 0 model on a mean-zero tangent: this pins
        # the centered gamma rows and the centered-basis Gram as products.
        ("analyze-mc-mixture-np-m30",
         analyze("mixture", dict(NONPARAMETRIC, m=30), mc(20000, 2))),
        # The exact mixture influence runs in outcome space (five
        # outcomes): these pin it at a small and two large sizes, m=30
        # next to the Monte Carlo line, which keeps the operator solve.
        ("influence-exact-mixture-m30",
         influence("mixture", dict(NONPARAMETRIC, m=30), MEAN)),
        ("influence-exact-mixture-m400",
         influence("mixture", dict(NONPARAMETRIC, m=400), MEAN)),
        ("influence-exact-mixture-m800",
         influence("mixture", dict(NONPARAMETRIC, m=800), MEAN)),
        ("influence-mc-mixture-m30",
         influence("mixture", dict(NONPARAMETRIC, m=30), MEAN, mc(20000, 3))),
        ("influence-exact-kaplan_meier-survival",
         influence("kaplan_meier", {}, {"functional": "survival_at", "t": 1})),
        ("validate-318", validate(318)),
        ("validate-7", validate(7)),
        # The build options that move the grid's support or the
        # likelihood's form: this pins the measure scores, L's
        # representer among them, at dead cells and flat directions.
        ("validate-318-options", validate(318, params={
            "cox_rc": {"duplicated_covariate": True},
            "kaplan_meier": {"zero_mass_point": True},
            "missing_cov": {"zero_cell": True},
            "mixture": NONPARAMETRIC,
            "recurrent_transform": {"transform": "identity"}})),
        # A coarser finite-difference step, and refined grids: these pin
        # the batched finite-difference checks where the step and the
        # number of outcomes and grid points differ from seed 318's.
        ("validate-318-h1e-3", validate(318, h=1e-3)),
        ("validate-318-grids", validate(318, params={
            "cox_cs": {"m": 20}, "mixture": {"m": 30}})),
        ("paramcheck-spd4-p2", paramcheck(2)),
        # The build options no line above analyzes: a dead grid cell
        # (log mass -inf, which L must select rather than multiply), a
        # covariate constant within each cell, a kernel that ignores the
        # latent point, and the identity transform's constant derivatives.
        ("analyze-exact-kaplan_meier-zero_mass_point",
         analyze("kaplan_meier", {"zero_mass_point": True})),
        ("analyze-exact-missing_cov-degenerate_z",
         analyze("missing_cov", {"degenerate_z": True})),
        ("analyze-exact-mixture-constant_kernel",
         analyze("mixture", {"constant_kernel": True})),
        ("analyze-exact-recurrent_transform-identity",
         analyze("recurrent_transform", {"transform": "identity"})),
        # The point-mass functional on an L2 and on a mean-zero tangent
        # space (the default four-point mixture grid holds t=1.5), and a
        # selection mapping keyed by a "y,cell" string.
        ("influence-exact-kaplan_meier-point_mass",
         influence("kaplan_meier", {}, {"functional": "point_mass_at",
                                        "t": 2})),
        ("influence-exact-mixture-np-point_mass",
         influence("mixture", NONPARAMETRIC, {"functional": "point_mass_at",
                                              "t": 1.5})),
        ("analyze-exact-missing_cov-selection",
         analyze("missing_cov", {"selection": {"0,1": 0.2}})),
    ])


def output_digest(cfg, out):
    if cfg["command"] == "validate":
        with open(os.path.join(out, "report.json"), "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            data = handle.read()
        if name == "report.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.lstrip().startswith(b'"timestamp":'))
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def round_trips(out):
    """Whether every matrix CSV in ``out`` reads back and writes out again
    as the same bytes; names each one that does not on stderr."""
    ok = True
    for name in MATRIX_CSVS:
        path = os.path.join(out, name)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        if matrix_to_csv_text(read_matrix_csv(path)).encode() != data:
            print(f"{os.path.basename(out)}/{name}: does not round-trip",
                  file=sys.stderr)
            ok = False
    return ok


def run(name, cfg, tmp):
    if cfg["command"] == "paramcheck":
        cfg = dict(cfg, paramcheck=dict(
            cfg["paramcheck"],
            path=os.path.join(tmp, cfg["paramcheck"]["path"])))
    path = os.path.join(tmp, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    out = os.path.join(tmp, name)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["--config", path, "--out", out])
    return code, output_digest(cfg, out), round_trips(out)


def pair_results(seed):
    """Every result of the one-pair checks on each default build: the
    adjoint identity of each parameter-score component and of one
    measure-score direction, the score check at the three most probable
    outcomes and, on a mean-zero tangent, the centering check at t = 0.1,
    each with directions drawn in that order from one generator."""
    rng = np.random.default_rng(seed)
    results = []
    for model_id in ZOO:
        model = zoo.build(model_id)
        c, s = model.components, model.state

        def draw():
            raw = rng.uniform(-1.0, 1.0, s.eta.size)
            return (center(raw, s.eta).values
                    if c.tangent is TangentKind.L2_ZERO else raw)

        law = outcome_law(model.exact, c, s)
        sf = structural_functions(law, c, s)
        for which in list(range(c.p)) + [draw()]:
            results.append(check_adjoint_identity(law, c, s, which, draw(),
                                                  sf=sf))
        for i in np.argsort(law.weights)[::-1][:3]:
            results.append(check_score_fd(c, s, law.outcomes[i], draw()))
        if c.tangent is TangentKind.L2_ZERO:
            results.append(check_centering_construction(law, c, s, draw(),
                                                        0.1, seed=seed))
    return results


def pairs_digest(seed):
    """``(exit code, sha256)`` of the repr of :func:`pair_results`, one
    result per line."""
    results = pair_results(seed)
    text = "".join(f"{res!r}\n" for res in results)
    code = 0 if all(res.passed for res in results) else 1
    return code, hashlib.sha256(text.encode()).hexdigest()


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        write_matrix_csv(os.path.join(tmp, SPD_CSV), SPD_4X4)
        for name, cfg in CONFIGS.items():
            code, digest, ok = run(name, cfg, tmp)
            print(f"{name} {code} {digest}", flush=True)
            failed = failed or code != 0 or not ok
    code, digest = pairs_digest(318)
    print(f"validate-pairs-318 {code} {digest}", flush=True)
    return 1 if failed or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
