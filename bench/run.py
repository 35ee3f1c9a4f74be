"""spherefp benchmark: time to a verified verdict, end to end and per layer.

    python3 bench/run.py --workload {boxsets,lifts,quadrics,cli} --seed N
                         --seconds T --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src.  Load model: closed loop, one caller, no threads and no worker
pools.  Each workload runs in fresh interpreters (bench/worker.py), one at a
time, so the cold import is measured.  The benchmark pins itself and every
process it starts to the CPU it was started on.

--trace 0 starts SETUP_REPEATS workers in turn, each measuring set-up and
then T / SETUP_REPEATS seconds of whole rounds, continuing the instance
stream where the previous one stopped, and reports the end-to-end metrics:
setup_s (median over workers), verdicts_per_s (instances per second of
instance time, over all instances), verdict_p50_ms and verdict_tail_ms
(over all instances), and peak_rss_mb (median over workers).  Every time
is reported at the reference speed of bench/calibrate.py; the wall-clock
figures are printed beside them.

--trace 1 runs the same fixed number of rounds twice, untraced and then
with every layer wrapped (bench/tracing.py), checks that both give the same
verdict hashes, and reports the per-layer metrics together with
trace.unattributed_frac and trace.overhead_frac.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A failed instance (unexpected raise, wrong branch,
certificate or witness failing the check, or a verdict hash differing from
bench/reference.json on its seed) makes correct false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
DEFAULT_SEED = 1  # the seed bench/reference.json pins
SETUP_REPEATS = 3
WORKER_TIMEOUT = 170

# per workload: the fixed tail percentile, the least whole rounds each
# worker runs (so at least ten samples lie beyond that percentile), and the
# rounds of one traced run
CONFIG = {
    "boxsets": {"tail": 85, "min_rounds": 2, "trace_rounds": 1},
    "lifts": {"tail": 97, "min_rounds": 7, "trace_rounds": 8},
    "quadrics": {"tail": 90, "min_rounds": 3, "trace_rounds": 4},
    "cli": {"tail": 75, "min_rounds": 1, "trace_rounds": 1},
}


class WorkerFailed(Exception):
    pass


def run_worker(workdir, workload, seed, first_round, seconds, min_rounds, max_rounds, trace):
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--first-round", str(first_round), "--seconds", str(seconds),
        "--min-rounds", str(min_rounds), "--max-rounds", str(max_rounds),
        "--trace", str(trace), "--workdir", workdir,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated q-th percentile of a sorted list."""
    pos = (len(values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def spread(values):
    """(max - min) / median: the within-run spread printed beside a metric."""
    return (max(values) - min(values)) / statistics.median(values)


def report_failures(results):
    failures = [f for r in results for f in r["failures"]]
    for f in failures[:20]:
        print(f"FAILED instance {f['index']} ({f['kind']}): {f['error']}", file=sys.stderr)
    return len(failures)


def end_to_end(workdir, workload, seed, seconds):
    cfg = CONFIG[workload]
    results = []
    first = 0
    for _ in range(SETUP_REPEATS):
        r = run_worker(workdir, workload, seed, first, seconds / SETUP_REPEATS,
                       cfg["min_rounds"], 10**9, 0)
        results.append(r)
        first = r["next_round"]
    # every time at the reference speed (bench/calibrate.py)
    lat, raw = [], []
    for r in results:
        lat += r["scaled"]
        raw += r["latencies"]
    rates = [len(r["scaled"]) / sum(r["scaled"]) for r in results]  # per worker
    lat.sort()
    raw.sort()
    n = len(lat)
    failed = report_failures(results)
    q = cfg["tail"]
    beyond = n * (100 - q) / 100
    if beyond < 10:
        raise WorkerFailed(f"only {n} samples: fewer than ten beyond p{q}")
    setups = [r["setup_scaled"] for r in results]
    kernels = [k for r in results for k in r["kernel_s"]]
    rss = [r["peak_rss_mb"] for r in results]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (n / sum(lat), "1/s"),
        "verdict_p50_ms": (1000 * percentile(lat, 50), "ms"),
        "verdict_tail_ms": (1000 * percentile(lat, q), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    raw_setup = statistics.median(r["setup_s"] for r in results)
    notes = {
        "setup_s": f"median of {len(setups)} workers, spread {spread(setups):.3f}; "
                   f"wall {raw_setup:.4g} s",
        "verdicts_per_s": f"over {n} instances, spread over workers {spread(rates):.3f}; "
                          f"wall {n / sum(raw):.4g} 1/s",
        "verdict_p50_ms": f"over {n} instances; wall {1000 * percentile(raw, 50):.4g} ms",
        "verdict_tail_ms": f"p{q} over {n} instances, {beyond:.1f} beyond it; "
                           f"wall {1000 * percentile(raw, q):.4g} ms",
        "peak_rss_mb": f"median of {len(rss)} workers, spread {spread(rss):.3f}",
    }
    print(f"calibration kernel: median {1000 * statistics.median(kernels):.4g} ms over "
          f"{len(kernels)} timings, spread {spread(kernels):.3f}; "
          f"reference {1000 * calibrate.REFERENCE_S:.4g} ms")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={results[0]['numpy']}")
    print(f"workload={workload} seed={seed} attempted={n} failed={failed} "
          f"failed_frac={failed / n:.6f} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({notes[name]})")
    return n, failed, metrics


def traced(workdir, workload, seed):
    rounds = CONFIG[workload]["trace_rounds"]
    plain = run_worker(workdir, workload, seed, 0, 0, rounds, rounds, 0)
    wrapped = run_worker(workdir, workload, seed, 0, 0, rounds, rounds, 1)
    failed = report_failures([plain, wrapped])
    same = plain["hashes"] == wrapped["hashes"]
    if not same:
        print("traced run gave different verdict hashes than the untraced run", file=sys.stderr)
        failed += 1
    metrics = {k: tuple(v) for k, v in wrapped["layers"].items()}
    overhead = sum(wrapped["scaled"]) / sum(plain["scaled"]) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    print(f"workload={workload} seed={seed} traced rounds={rounds} "
          f"instances={len(plain['latencies'])} hashes_equal={same}")
    return len(plain["latencies"]) + len(wrapped["latencies"]), failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CONFIG))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    calibrate.pin_to_current_cpu()
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.trace:
            attempted, failed, metrics = traced(workdir, args.workload, args.seed)
        else:
            attempted, failed, metrics = end_to_end(workdir, args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
