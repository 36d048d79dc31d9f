#!/usr/bin/env python3
"""Benchmark of the bcabe command line, driven in-process.

Run from the repository root:

    python3 bench/run.py --workload cuts --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One client calls `bcabe.cli.main(argv)` in a closed loop: the next op starts
when the previous one has finished and been checked.  BLAS is pinned to one
thread.  With `--trace 0` the run measures set-up time in fresh interpreters,
runs one untimed warm-up op, then times whole cycles of the workload's ops
until `--seconds` have passed, and prints the end-to-end metrics.  With
`--trace 1` it runs one cycle twice with span wrappers installed (and once
without, interleaved, to measure the tracing overhead) and prints the
per-layer metrics.  Every op's output is checked; see README.md.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import EXPECTED_LAYERS, WORKLOADS, check_op, cycle, warmup_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ".bench_out"   # relative to ROOT, so reports name the same paths in every checkout
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
TAIL_BEYOND = 10         # ops that must lie beyond the tail percentile


# --- one op ----------------------------------------------------------------------

class OpLog:
    """Outcomes of the ops of one pass: wall times of the good ones, failures, digests."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.report_bytes = 0


def run_op(cli, argv, log: OpLog, tracer=None, timed=True) -> None:
    out_path = f"{OUT_DIR}/{argv[0]}.json"
    for stale in (out_path, out_path + ".transcript"):
        if os.path.exists(stale):
            os.remove(stale)
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv + ["--out", out_path])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = "exception"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    problems, digest = check_op(argv, code, out_path)
    log.attempted += 1
    key = " ".join(argv)
    if problems:
        log.failed += 1
        more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
        print(f"FAILED {key}: {'; '.join(problems[:3])}{more}", file=sys.stderr)
    elif timed:
        log.times.append(elapsed)
    if digest is not None:
        if log.digests.setdefault(key, digest) != digest:
            log.digests[key] = "varies"
        log.report_bytes += os.path.getsize(out_path)


# --- statistics ------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float, int]:
    """Wall time at the highest percentile with TAIL_BEYOND ops beyond it.

    Returns (value, percentile, ops beyond).  With fewer than 2 * TAIL_BEYOND
    ops that percentile would sit below the median, so the maximum is
    reported instead, with no ops beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until `bcabe.cli` is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import sys, bcabe.cli; sys.stdout.write('ready'); sys.stdout.flush()"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env) as proc:
            ready = proc.stdout.read(5)
            times.append(time.perf_counter() - start)
        if ready != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"fresh interpreter could not import bcabe.cli "
                               f"(exit {proc.returncode})")
    return times


def _blas_threads_reported():
    """Thread count OpenBLAS reports in this process, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_build,
        "blas_threads_pinned": BLAS_THREADS, "blas_threads_reported": _blas_threads_reported(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 client, in-process, 1 thread",
    }


def print_digests(digests: dict[str, str]) -> None:
    """Payload digests, reported without gating, so a later change can show byte-identity."""
    combined = hashlib.sha256("".join(
        f"{k} {v}\n" for k, v in sorted(digests.items())).encode()).hexdigest()
    print("payload_sha256 " + json.dumps({"all_ops": combined, "ops": digests}, sort_keys=True))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# --- untraced run: end-to-end metrics ----------------------------------------------

def run_timed(cli, workload: str, rng: random.Random, seconds: int, setup: list[float]) -> int:
    ops = cycle(workload, rng)
    log = OpLog()
    run_op(cli, warmup_op(workload, ops), log, timed=False)
    start = time.perf_counter()
    while True:
        for argv in ops:
            run_op(cli, argv, log)
        if time.perf_counter() - start >= seconds:
            break
        ops = cycle(workload, rng)

    times = log.times or [float("nan")]
    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_value, "s"),
        "ops_per_s": (len(log.times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    failed_ratio = log.failed / log.attempted
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing bcabe.cli",
        "op_s_p50": f"median of {len(log.times)} timed ops after 1 untimed warm-up op",
        "op_s_tail": (f"p{tail_pct:.1f} of {len(log.times)} ops, {beyond} beyond"
                      + ("" if beyond else f" (fewer than {2 * TAIL_BEYOND} ops: the maximum)")),
        "ops_per_s": f"{len(log.times)} ops over {sum(times):.3f} s spent in ops",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    print(f"{workload}: {len(log.times)} timed ops, {log.attempted} attempted")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13}{value:>12.6g} {unit:<4} {notes[name]}")
    print(f"  {'failed_ratio':<13}{failed_ratio:>12.6g}      {log.failed} of {log.attempted} "
          "ops failed (non-zero exit or failed output check)")
    print_digests(log.digests)
    print(result_line(log.failed == 0 and bool(log.times), log.attempted, log.failed, metrics))
    return 0


# --- traced run: per-layer metrics ---------------------------------------------------

def run_traced(cli, workload: str, rng: random.Random) -> int:
    from spans import TRACED, Tracer  # imports numpy, so only after BLAS pinning

    tracer = Tracer()
    ops = cycle(workload, rng)
    untraced, traced = OpLog(), OpLog()
    run_op(cli, warmup_op(workload, ops), untraced, timed=False)
    passes = []
    for rep in range(2):
        tracer.reset()
        for argv in ops:
            if rep == 0:
                run_op(cli, argv, untraced)
            run_op(cli, argv, traced, tracer=tracer)
        passes.append((tracer.calls(), dict(tracer.counters),
                       {name: s[1] for name, s in tracer.stats.items()}))

    (calls, counters, self_a), (calls_b, counters_b, self_b) = passes
    problems = []
    if (calls, counters) != (calls_b, counters_b):
        changed = sorted(k for k in set(calls) | set(calls_b) if calls.get(k) != calls_b.get(k))
        problems.append(f"call counts differ between two traced passes: {changed} "
                        f"{counters} vs {counters_b}")
    for layer in EXPECTED_LAYERS[workload]:
        if not any(n for name, n in calls.items() if name.startswith(layer + ".")):
            problems.append(f"layer {layer} saw no call")

    names = ["tensor.eigvalsh"] + [f"{layer}.{name}" for layer, names in TRACED.items()
                                   for name in names]
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = ((self_a.get(name, 0.0) + self_b.get(name, 0.0)) / 2, "s")
    metrics["tensor.eigvalsh.dim3_sum"] = (counters["eigvalsh_dim3"], "d3_computed")
    metrics["states.bell_tuple_decomposition.kept_ratio"] = (
        counters["tuples_kept"] / counters["tuples_candidates"]
        if counters["tuples_candidates"] else 0.0, "ratio")
    metrics["protocol.teleport.kept_ratio"] = (
        counters["branches_used"] / counters["branches_built"]
        if counters["branches_built"] else 0.0, "ratio")
    metrics["cli.report_bytes"] = (traced.report_bytes // 2, "bytes")
    p50_traced = statistics.median(traced.times or [float("nan")])
    p50_untraced = statistics.median(untraced.times or [float("nan")])
    metrics["trace.op_s_p50_traced"] = (p50_traced, "s")
    metrics["trace.op_s_p50_untraced"] = (p50_untraced, "s")
    metrics["trace.overhead_s"] = (p50_traced - p50_untraced, "s")

    print(f"{workload}: traced {len(ops)} ops twice, untraced once; per-layer totals "
          f"are per pass of {len(ops)} ops")
    print("  waits: none; every layer runs synchronously in one thread, nothing queues")
    for name in sorted(names, key=lambda n: -metrics[f"{n}.self_s"][0]):
        n_calls = metrics[f"{name}.calls"][0]
        if n_calls:
            print(f"  {name:<42}{n_calls:>9} calls {metrics[f'{name}.self_s'][0]:>10.4f} s self")
    for name in ("tensor.eigvalsh.dim3_sum", "states.bell_tuple_decomposition.kept_ratio",
                 "protocol.teleport.kept_ratio", "cli.report_bytes"):
        print(f"  {name:<42}{metrics[name][0]:>12.6g} {metrics[name][1]}")
    print(f"  tracing overhead: traced p50 {p50_traced:.6g} s - untraced p50 "
          f"{p50_untraced:.6g} s = {p50_traced - p50_untraced:.6g} s")
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)
    failed = untraced.failed + traced.failed
    print_digests(traced.digests)
    print(result_line(failed == 0 and not problems, untraced.attempted + traced.attempted,
                      failed, metrics))
    return 0


# --- entry point -------------------------------------------------------------------

def run_all(args) -> int:
    """Run every workload in its own process and print each one's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bcabe" / "cli.py").is_file():
        print(f"bcabe sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})  # before numpy loads
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    setup = [] if args.trace else measure_setup(SETUP_REPEATS)

    import bcabe.cli as cli

    os.makedirs(OUT_DIR, exist_ok=True)
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    rng = random.Random(f"{args.workload}/{args.seed}")
    if args.trace:
        return run_traced(cli, args.workload, rng)
    return run_timed(cli, args.workload, rng, args.seconds, setup)


if __name__ == "__main__":
    sys.exit(main())
