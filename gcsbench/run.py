"""Benchmark for gcslib: one workload, one seed, one closed-loop client.

    python3 gcsbench/run.py --workload {figures,images,stats,drive} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (setup_s, op_p50_ms, op_tail_ms, peak_rss_mb); with
--trace 1 they are the per-layer means per operation, from a run in which
each operation is done once untraced and once traced.  See README.md.
"""

import os
import sys

# One BLAS/OpenMP thread, fixed before NumPy loads: with the default two
# threads on two shared cores the dense-algebra calls stall at random
# (README.md, "BLAS threads").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import io
import json
import resource
import shutil
import statistics
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import numpy as np

    import gcslib
    from tracing import LAYERS, Tracer
    from workloads import WORKLOADS
except ImportError as exc:
    sys.exit(f"error: cannot import the program from {ROOT}/src: {exc}")

SETUP_PROBES = 3
# About the median of reference() on the 2-core Xeon the figures in
# README.md come from.  Reported times are scaled by REF_MS over the
# median of reference() measured around them, so they read as times on a
# machine where reference() takes REF_MS.  See README.md, "Machine speed".
REF_MS = 4.0
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    LAYER_METRICS = [(m["name"], m["unit"]) for m in json.load(_fh)["per_layer"]]

_REF_RNG = np.random.default_rng(20131)
_REF_VALUES = _REF_RNG.standard_normal(600).tolist()
_REF_H = _REF_RNG.standard_normal((48, 48)) + 1j * _REF_RNG.standard_normal((48, 48))
_REF_H = _REF_H + _REF_H.conj().T
_REF_Y = np.linspace(-8.0, 8.0, 65536)


def reference():
    """Milliseconds of a fixed computation that uses nothing from gcslib.

    It does a little of each kind of work the workloads spend their time
    on: formatting floats into CSV rows, a three-term recurrence over an
    array, and dense Hermitian eigensolves.  Its time tracks how fast the
    shared machine runs at the moment.
    """
    start = time.perf_counter()
    writer = csv.writer(io.StringIO())
    for i in range(0, len(_REF_VALUES), 3):
        writer.writerow([f"{v:.17g}" for v in _REF_VALUES[i:i + 3]])
    p0 = np.exp(-0.5 * _REF_Y * _REF_Y)
    p1 = _REF_Y * p0
    for k in range(1, 6):
        p0, p1 = p1, np.sqrt(2.0 / (k + 1)) * _REF_Y * p1 - np.sqrt(k / (k + 1)) * p0
    for _ in range(2):
        np.linalg.eigh(_REF_H)
    return 1e3 * (time.perf_counter() - start)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up operation, print 'ready' and exit")
    return p.parse_args(argv)


def fresh(out):
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    return out


def setup_time(args):
    """Wall time from starting a fresh process to its first timed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {proc.returncode} after {line!r}")
    return elapsed


def attempt(wl, op, out, run):
    """One operation: timed call, then untimed checks; (seconds, failures)."""
    fresh(out)
    start = time.perf_counter()
    try:
        result = run(op, out)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(op, out, result)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
        return elapsed, [f"unreadable output: {type(exc).__name__}: {exc}"]


def output_stats(out):
    """Rows written to CSV files (header excluded) and bytes written, under out."""
    rows = size = 0
    for base, _, files in os.walk(out):
        for name in files:
            path = os.path.join(base, name)
            size += os.path.getsize(path)
            if name.endswith(".csv"):
                with open(path, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
    return rows, size


def measure(args, wl, out, again):
    setup_refs = [reference() for _ in range(5)]
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setups.append(setup_time(args))
        setup_refs += [reference() for _ in range(5)]
    rng = np.random.default_rng(args.seed)
    ops = wl.round(rng, 0)
    wl.run(ops[0], fresh(out))  # warm-up, as in the setup probe

    tracer = Tracer([getattr(gcslib, m) for m in LAYERS])
    # enough operations for ten beyond the tail percentile; the traced run
    # reports means only
    min_ops = 0 if args.trace else round(10 / (1 - wl.tail_pct / 100))
    times, refs, traced_times, failures = [], [], [], []
    rows = size = attempted = rounds = 0
    measured = 0.0
    while measured < args.seconds or attempted < min_ops:
        for op in ops:
            elapsed, fails = attempt(wl, op, out, wl.run)
            times.append(elapsed)
            refs.append(reference())
            measured += elapsed
            attempted += 1
            if not fails and args.trace:
                op_id = attempted
                elapsed, fails = attempt(
                    wl, op, out, lambda o, d: tracer.run(op_id, wl.run, o, d))
                traced_times.append(elapsed)
                measured += elapsed
                r, s = output_stats(out)
                rows, size = rows + r, size + s
            elif not fails and hasattr(wl, "check_rerun") and attempted % 10 == 1:
                fails = wl.check_rerun(op, out, fresh(again))
            if fails:
                failures.append(fails)
        rounds += 1
        ops = wl.round(rng, rounds)

    for fails in failures[:5]:
        print(f"check failed: {fails}", file=sys.stderr)
    ref_ms = statistics.median(refs)
    print(f"reference() median {ref_ms:.4f} ms over {len(refs)} calls", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(tracer, REF_MS / ref_ms, traced_times, times, rows, size)
        metrics["bench.ref_ms"] = (ref_ms, "ms")
        trace_dir = os.path.join(ROOT, ".gcsbench-out", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{wl.name}-seed{args.seed}.jsonl"))
    else:
        ms = 1e3 * np.asarray(times) * local_scale(refs)
        metrics = {
            "setup_s": (REF_MS / statistics.median(setup_refs) * statistics.median(setups), "s"),
            "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "op_tail_ms": (float(np.percentile(ms, wl.tail_pct)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def local_scale(refs, half=7):
    """REF_MS over the median of reference() around each operation.

    A window of 2 * half + 1 operations follows the machine's drift within
    a run, so a slow spell scales down the operations it slowed.
    """
    r = np.asarray(refs)
    return np.array([REF_MS / np.median(r[max(0, i - half):i + half + 1]) for i in range(len(r))])


def layer_metrics(tracer, scale, traced_times, times, rows, size):
    """Per-operation means; times scaled like the end-to-end ones."""
    ops = len(traced_times)
    means = tracer.summary(ops)
    traced_ms = 1e3 * statistics.fmean(traced_times)
    means["trace.op_ms"] = traced_ms
    means["trace.overhead_ms"] = traced_ms - 1e3 * statistics.fmean(times)
    means["cli.rows_written"] = rows / ops
    means["cli.bytes_written"] = size / ops
    return {name: (float(means.get(name, 0.0)) * (scale if unit == "ms" else 1.0), unit)
            for name, unit in LAYER_METRICS}


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".gcsbench-out", f"{wl.name}-{args.seed}-{os.getpid()}")
    out, again = os.path.join(scratch, "op"), os.path.join(scratch, "again")
    try:
        if args.setup_probe:
            wl.run(wl.round(np.random.default_rng(args.seed), 0)[0], fresh(out))
            print("ready", flush=True)
            return 0
        result = measure(args, wl, out, again)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
