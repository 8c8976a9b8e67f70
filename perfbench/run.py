"""The semiinfo benchmark: times the `semiinfo` CLI in-process on four
fixed workloads and checks every output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py ... --smoke       # one small operation

Each workload runs in fresh worker processes (perfbench/worker.py) with
BLAS pinned to one thread, one after another: eight slices of
``--seconds`` / 8 each. A slice sets up, runs the first operation, and
then runs the closed loop (one client, the next operation starts when
the last one ends) for the rest of its time. Set-up and
first-operation times are medians over the eight processes; loop
operations are pooled. Every operation's outputs are checked after the
timed region; an operation fails on a nonzero exit code or a failed
check. The failure fraction is ``failed`` over ``attempted`` in the
result line; it is printed, not reported as a metric, because it is
zero on a correct program.

The machine is a few cores of a shared host, and its speed drifts by
20% and more within minutes, so raw operation seconds spread too much
from run to run to bound a regression. A slice therefore times a
reference block, fixed work that does not touch `semiinfo`
(worker.reference_block, about 25 ms), before its first operation and
after every operation, and each operation's time is divided by the mean
of the two blocks around it (unit ``ref``). `op_ref.p50`, `op_ref.tail`
and `first_op_ref` are medians and the tail of those ratios, and
`ops_per_kref` is operations completed per thousand reference-block
times. `setup_s` must stay in seconds, so it is set-up wall time
scaled to a nominal machine on which the reference block takes
`NOMINAL_REFERENCE_S`: set-up seconds times `NOMINAL_REFERENCE_S` over
the block timed right after set-up, median over the slices. Raw set-up
seconds drifted by 21% between two sets of runs of the same code, the
scaled value by under 3%. `peak_rss_mb` is the median over the slices
of the process's peak resident memory after set-up and the first
operation, as for one CLI invocation; later loop operations would make
it depend on how many fit into a slice. The raw seconds and the
reference time are printed too, but are not in the metrics.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced loop (see
tracer.py), including the tracing overhead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric with
its unit, the failure fraction, and the environment. The full result
also goes to ``perfbench/.work/``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
WORKLOADS = ("analyze-exact-coxcs", "influence-exact-mixture",
             "analyze-mc-coxcs", "validate-zoo")
SLICES = 8
# Reference-block time of the nominal machine that setup_s is scaled to;
# the block's median on the machine the baseline was recorded on.
NOMINAL_REFERENCE_S = 0.025
# Wall-clock budget for one invocation, under the 180 s a run may take.
DEADLINE_S = 170.0
# Set in every worker, before numpy loads. One BLAS thread: the machine
# is shared. No transparent huge pages for large numpy arrays: whether
# the kernel grants one depends on the host's memory at the time, and
# each grant adds up to 2 MB to the resident size; peak_rss_mb must not
# depend on that.
WORKER_ENV = dict({name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    NUMPY_MADVISE_HUGEPAGE="0")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(durations):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond). Below eleven samples it is the
    maximum, with none beyond."""
    ordered = sorted(durations)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def run_worker(args, role, index, seconds, deadline):
    result = os.path.join(WORKDIR, f"{args.workload}-{role}-{index}.json")
    if os.path.exists(result):
        os.unlink(result)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--role", role, "--seconds", str(seconds), "--workdir", WORKDIR,
           "--result", result] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, **WORKER_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    with open(result) as handle:
        data = json.load(handle)
    os.unlink(result)
    return data


def end_to_end(runs):
    """The end-to-end metrics, and the raw seconds behind them. Each
    operation's time in ``ref`` units is its wall time over the mean of
    the two reference blocks around it."""
    first, loop_ops = [], []
    for r in runs:
        refs = r["reference_s"]
        first.append(r["first_op_s"] / ((refs[0] + refs[1]) / 2))
        loop_ops += [d / ((refs[i + 1] + refs[i + 2]) / 2)
                     for i, d in enumerate(r["durations"])]
    value, pct, beyond = tail(loop_ops)
    metrics = {
        "ops_per_kref": (1000.0 * len(loop_ops) / sum(loop_ops), "1/kref"),
        "op_ref.p50": (statistics.median(loop_ops), "ref"),
        "op_ref.tail": (value, "ref"),
        "first_op_ref": (statistics.median(first), "ref"),
        "setup_s": (NOMINAL_REFERENCE_S * statistics.median(
            r["setup_s"] / r["reference_s"][0] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        "MB"),
    }
    of_runs = f"median of {len(runs)} process(es)"
    notes = {"op_ref.tail": f"p{pct:.1f}, {beyond} of {len(loop_ops)} "
                            "samples beyond",
             "first_op_ref": of_runs, "setup_s": of_runs,
             "peak_rss_mb": of_runs}
    durations = [d for r in runs for d in r["durations"]]
    raw = {"ref_s": statistics.median(s for r in runs
                                      for s in r["reference_s"]),
           "ops_per_s": len(durations) / sum(durations),
           "op_s.p50": statistics.median(durations),
           "op_s.tail": tail(durations)[0],
           "first_op_s": statistics.median(r["first_op_s"] for r in runs),
           "setup_s": statistics.median(r["setup_s"] for r in runs)}
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            notes, raw)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small operation per process")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "semiinfo", "cli.py")):
        print(f"no semiinfo sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
    os.makedirs(WORKDIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            runs = [run_worker(args, "trace", 0, args.seconds, deadline)]
        else:
            slices = 1 if args.smoke else SLICES
            runs = [run_worker(args, "slice", i, args.seconds / slices,
                               deadline) for i in range(slices)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        metrics, notes, raw = runs[0]["per_layer"], {}, {}
    else:
        metrics, notes, raw = end_to_end(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    durations = [d for r in runs for d in r["durations"]]
    env = dict(runs[0]["environment"], seed=args.seed,
               ops_per_run=len(durations), trace=args.trace,
               smoke=args.smoke)
    full = {"workload": args.workload, "environment": env, "metrics": metrics,
            "notes": notes, "raw": raw, "attempted": attempted,
            "failed": failed,
            "problems": [p for r in runs for p in r["problems"]],
            "durations": durations,
            "processes": [{key: r[key] for key in (
                "setup_s", "first_op_s", "peak_rss_mb", "durations",
                "reference_s") if key in r} for r in runs]}
    with open(os.path.join(WORKDIR, f"result-{args.workload}-trace"
                                    f"{args.trace}.json"), "w") as handle:
        json.dump(full, handle, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}{note}")
    for name, value in raw.items():
        unit = "1/s" if name == "ops_per_s" else "s"
        print(f"  raw {name:<44} {value:.6g} {unit}")
    print(f"  {'fail_frac':<48} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for problem in full["problems"]:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
