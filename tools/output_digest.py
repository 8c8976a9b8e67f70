"""Print one SHA-256 digest per fixed `semiinfo` CLI config.

Usage, from the root of a checkout:

    python3 tools/output_digest.py > digest.txt

Run it at two commits and diff the two files: a change that promises
bit-identical outputs must print the same lines. Each line is
``<config> <exit code> <sha256>``. The script exits 1 when any config
exits nonzero (a config error, or a `validate` check that fails).

BLAS is pinned to one thread before numpy is imported, as in the
benchmark: output bytes depend on the BLAS thread count (`influence` on
`mixture` m=400 writes different bytes with one thread than with two).

For `validate` the digest is of `report.json` as written, so seed 318
prints the digest that `perfbench/workloads.py` pins. For the other
commands it covers every output file, in name order, with the line
holding the report's `timestamp` dropped. The `paramcheck` config reads
a fixed symmetric positive definite matrix that the script first writes
into its temporary directory.
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

from semiinfo.cli import main as cli_main  # noqa: E402
from semiinfo.serialize import write_matrix_csv  # noqa: E402

# The paramcheck matrix, written as SPD_CSV into the temporary directory.
SPD_4X4 = ((4.0, 1.0, 0.5, 0.25),
           (1.0, 3.0, 0.5, 0.125),
           (0.5, 0.5, 2.0, 0.25),
           (0.25, 0.125, 0.25, 1.5))
SPD_CSV = "spd-4x4.csv"

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


def validate(seed):
    return {"schema_version": 1, "command": "validate",
            "validate": {"seed": seed}}


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
        ("analyze-exact-cox_cs-m100", analyze("cox_cs", {"m": 100})),
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
        ("influence-exact-mixture-m400",
         influence("mixture", dict(NONPARAMETRIC, m=400), MEAN)),
        ("influence-mc-mixture-m30",
         influence("mixture", dict(NONPARAMETRIC, m=30), MEAN, mc(20000, 3))),
        ("influence-exact-kaplan_meier-survival",
         influence("kaplan_meier", {}, {"functional": "survival_at", "t": 1})),
        ("validate-318", validate(318)),
        ("validate-7", validate(7)),
        ("paramcheck-spd4-p2", paramcheck(2)),
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
    return code, output_digest(cfg, out)


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        write_matrix_csv(os.path.join(tmp, SPD_CSV), SPD_4X4)
        for name, cfg in CONFIGS.items():
            code, digest = run(name, cfg, tmp)
            print(f"{name} {code} {digest}", flush=True)
            failed = failed or code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
