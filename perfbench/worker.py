"""One workload process: set up, run the first operation, run operations
back to back, check every output, and write a JSON result file.

Started by run.py, never by hand. Roles:

- ``slice``: set up, run the first operation, then run operations back
  to back until ``--seconds`` have passed since set-up ended (one
  client, each operation starts when the last ends). Before the first
  operation and after every operation it times one reference block
  (`reference_block`), fixed work that does not touch `semiinfo`, so
  that run.py can express each operation's time in units of the
  machine's speed at that moment. run.py starts several
  slices one after another, so set-up and first-operation times are
  medians over processes spread across the run.
- ``trace``: the same loop without reference blocks; the first half of
  the time runs untraced and the second half traced, which gives the
  per-layer metrics and the tracing overhead.

Set-up time runs from the first line of this file to ready: the
`semiinfo` import, config generation and temp-dir creation.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import semiinfo.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# The traced run's tail needs this many operations to have ten beyond it.
MIN_TRACE_OPS = 11


@functools.lru_cache(maxsize=None)
def reference_inputs():
    """The reference block's arrays, made on first use, after set-up."""
    rng = np.random.default_rng(0)
    return (rng.standard_normal((40, 40)), rng.standard_normal((200, 200)),
            rng.standard_normal(200_000))


def reference_block():
    """About 25 ms of fixed work that does not touch `semiinfo`, of the
    kinds the workloads do: an integer loop, a string-keyed dict, small
    and mid-sized SVDs, a streaming pass over a 1.6 MB vector and a
    loop of tiny numpy calls. Its time tracks how fast the shared
    machine runs at the moment, so operation times divided by it drift
    much less across runs than the times themselves. Returns its wall
    seconds."""
    small, large, vector = reference_inputs()
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    table = {str(i): i for i in range(5000)}
    for _ in range(20):
        np.linalg.svd(small)
    np.linalg.svd(large)
    for _ in range(5):
        (vector * 1.5 + vector).sum()
    x = np.arange(50.0)
    for _ in range(1000):
        x = np.exp(-x * 0.001) + x.sum() * 1e-9
    del total, table
    return time.perf_counter() - start


def run_cli(argv):
    """One CLI operation; returns (error or None, wall seconds). Anything
    the operation prints is kept out of the benchmark's own output."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = semiinfo.cli.main(argv)
        error = None if code == 0 else f"exit code {code}: {sink.getvalue()}"
    except Exception as exc:  # a crashing operation counts as failed
        error = f"{type(exc).__name__}: {exc}"
    return error, time.perf_counter() - start


class Workspace:
    """The workload's temp dir, config and operation outputs."""

    def __init__(self, workload, seed, smoke, workdir):
        config_fn, self.checker_cls = workloads.WORKLOADS[workload]
        self.cfg = config_fn(seed, smoke)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir)
        self.cfg_path = self.write_config(self.cfg, "config")
        self.done = []  # (out dir, error) per operation, in run order

    def write_config(self, cfg, label):
        path = os.path.join(self.tmp, f"{label}.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle)
        return path

    def op(self, label):
        out = os.path.join(self.tmp, label)
        error, seconds = run_cli(["--config", self.cfg_path, "--out", out])
        self.done.append((out, error))
        return seconds

    def untimed_op(self, cfg, label):
        """An extra operation a checker asks for; returns its output dir,
        or None when it failed."""
        out = os.path.join(self.tmp, label)
        error, _ = run_cli(["--config", self.write_config(cfg, label),
                            "--out", out])
        self.done.append((out, error))
        return None if error else out

    def check(self):
        """Check every output; returns (attempted, failed, problems)."""
        checker = self.checker_cls(self.cfg, self.untimed_op)
        failed = 0
        problems = []
        for out, error in list(self.done):
            if error:
                found = [error]
            else:
                try:
                    found = checker(out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            failed += bool(found)
            problems += [f"{os.path.basename(out)}: {p}" for p in found]
        finish = checker.finish()
        failed += bool(finish)
        return len(self.done), failed, problems + finish

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def bytes_written(outs):
    return sum(os.path.getsize(os.path.join(out, name))
               for out in outs if os.path.isdir(out)
               for name in os.listdir(out))


def loop(workspace, seconds, min_ops, prefix, on_op=None, references=None,
         start=None):
    """Operations back to back until `seconds` have passed since `start`
    (default now) and at least `min_ops` ran. With a `references` list,
    appends the time of one reference block after each operation."""
    durations = []
    start = time.perf_counter() if start is None else start
    while True:
        if on_op is not None:
            on_op(len(durations))
        durations.append(workspace.op(f"{prefix}-{len(durations):04d}"))
        if references is not None:
            references.append(reference_block())
        if (time.perf_counter() - start >= seconds
                and len(durations) >= min_ops):
            return durations


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(cfg):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "config": cfg,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("slice", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workspace = Workspace(args.workload, args.seed, args.smoke, args.workdir)
    ready = time.perf_counter()
    setup_s = ready - T_START
    try:
        if args.role == "slice":
            # Every operation sits between two reference blocks:
            # reference_s[0] and [1] bracket the first operation,
            # [i + 1] and [i + 2] loop operation i.
            references = [reference_block()]
            result = {"setup_s": setup_s, "first_op_s": workspace.op("first"),
                      "reference_s": references,
                      "peak_rss_mb": peak_rss_mb()}
            references.append(reference_block())
            result["durations"] = loop(workspace, args.seconds, 1, "op",
                                       references=references, start=ready)
        else:
            result = {"setup_s": setup_s, "first_op_s": workspace.op("first")}
            min_ops = 1 if args.smoke else MIN_TRACE_OPS
            result.update(trace_loop(workspace, args.seconds, min_ops,
                                     args.workdir, args.workload))
        attempted, failed, problems = workspace.check()
        result.update(attempted=attempted, failed=failed,
                      problems=problems[:20],
                      environment=environment(workspace.cfg))
    finally:
        workspace.close()
    with open(args.result, "w") as handle:
        json.dump(result, handle)


def trace_loop(workspace, seconds, min_ops, workdir, workload):
    half = seconds / 2.0
    plain = loop(workspace, half, min_ops, "plain")
    spans = tracer.Tracer()
    spans.install()
    spans.active = True

    def on_op(index):
        spans.op_index = index

    traced = loop(workspace, half, min_ops, "traced", on_op)
    spans.active = False
    outs = [out for out, _ in workspace.done[-len(traced):]]
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = spans.per_layer(len(traced), bytes_written(outs),
                              overhead)
    spans.save(os.path.join(workdir, f"spans-{workload}.npz"))
    return {"durations": traced, "untraced_durations": plain,
            "per_layer": metrics}


if __name__ == "__main__":
    main()
