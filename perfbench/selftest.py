"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Smoke: run.py runs one small operation per workload, traced and
   untraced; every metric named in BENCHMARK.json must come back with
   its unit, both in the JSON line and in the printed table.
2. Each output check must reject a corrupted output: a `gamma.csv`
   entry off by 1e-6, a Monte Carlo table that differs between two
   same-seed runs, an influence value or direction that was moved, a
   flipped non-regular flag, a flipped byte in a `validate` report.

Exits 0 when every test passes.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from semiinfo.serialize import read_matrix_csv, write_matrix_csv  # noqa: E402

import workloads  # noqa: E402
from worker import run_cli  # noqa: E402


def smoke(spec):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            table = "\n".join(lines[:-1])
            for name, unit in units.items():
                assert any(line.split()[:1] == [name]
                           and line.split()[2] == unit
                           for line in table.splitlines()), (name, unit)
            print(f"smoke ok: {workload} trace {trace}")


def operation(cfg, tmp, label):
    path = os.path.join(tmp, f"{label}.json")
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    out = os.path.join(tmp, label)
    error, _ = run_cli(["--config", path, "--out", out])
    assert error is None, error
    return out


def shift_entry(path, delta, index=(0, 0)):
    values = read_matrix_csv(path)
    values[index] += delta
    write_matrix_csv(path, values)


def flip_digit(path):
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    at = next(i for i, b in enumerate(data) if chr(b) in "123456789"
              and chr(data[i - 1]) in "0123456789.")
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    with open(path, "wb") as handle:
        handle.write(bytes(data))


def rejects(checker, out):
    problems = checker(out)
    assert problems, f"{type(checker).__name__} accepted a corrupted output"
    return problems[0]


def corruption(tmp):
    seed = 5

    cfg = workloads.analyze_exact_config(seed, smoke=True)
    out = operation(cfg, tmp, "exact")
    check = workloads.AnalyzeExactCheck(cfg, None)
    assert check(out) == [], check(out)
    shift_entry(os.path.join(out, "gamma.csv"), 1e-6)
    print("rejected:", rejects(check, out))

    cfg = workloads.analyze_mc_config(seed, smoke=True)
    first = operation(cfg, tmp, "mc1")
    second = operation(cfg, tmp, "mc2")
    check = workloads.AnalyzeMcCheck(cfg, None)
    assert check(first) == [] and check(second) == [], "mc repeat rejected"
    shift_entry(os.path.join(second, "kappa.csv"), 1e-6, (1, 2))
    print("rejected:", rejects(check, second))
    shift_entry(os.path.join(first, "gamma.csv"), 1e-6)
    print("rejected:",
          rejects(workloads.AnalyzeMcCheck(cfg, None), first))

    cfg = workloads.influence_config(seed, smoke=True)
    out = operation(cfg, tmp, "influence")
    check = workloads.InfluenceCheck(cfg, None)
    assert check(out) == [], check(out)
    path = os.path.join(out, "influence.csv")
    with open(path) as handle:
        rows = handle.read().splitlines()
    name, value = rows[1].split(",")
    good = "\n".join(rows) + "\n"
    with open(path, "w") as handle:
        handle.write("\n".join([rows[0], f"{name},{float(value) + 1e-6!r}"]
                               + rows[2:]) + "\n")
    print("rejected:", rejects(check, out))
    with open(path, "w") as handle:
        handle.write(good)
    # The operator smooths, so the residual sees a moved direction only
    # once the move is well above rounding.
    shift_entry(os.path.join(out, "lfd.csv"), 1e-3, (3, 0))
    print("rejected:", rejects(check, out))
    out = operation(cfg, tmp, "influence2")
    path = os.path.join(out, "report.json")
    with open(path) as handle:
        report = json.load(handle)
    report["non_regular"] = not report["non_regular"]
    with open(path, "w") as handle:
        json.dump(report, handle)
    print("rejected:", rejects(check, out))

    cfg = workloads.validate_config(workloads.VALIDATE_SEED, smoke=True)
    first = operation(cfg, tmp, "validate1")
    second = operation(cfg, tmp, "validate2")
    check = workloads.ValidateCheck(cfg, None)
    assert check(first) == [] and check(second) == [], "validate rejected"
    flip_digit(os.path.join(second, "report.json"))
    print("rejected:", rejects(check, second))
    flip_digit(os.path.join(first, "report.json"))
    print("rejected:",
          rejects(workloads.ValidateCheck(cfg, None), first))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    smoke(spec)
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        corruption(tmp)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
