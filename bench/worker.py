"""One benchmark process: cold import, shared set-up, then whole rounds of
instances in a closed loop with one caller.

Run from the root of a checkout by bench/run.py, never by hand:

    python3 bench/worker.py --workload W --seed S --first-round R --seconds T
        --min-rounds A --max-rounds B --trace 0|1 --t0 MONOTONIC

--t0 is the parent's time.monotonic() just before it started this
interpreter, so setup_s covers interpreter start, the import of numpy and
spherefp, and the workload's shared library set-up.  Between instances the
worker times the calibration kernel of bench/calibrate.py.  The last stdout
line is a JSON object with per-instance latencies, both as measured and at
the reference speed, outcomes and verdict hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)

import workloads  # noqa: E402  (imports numpy and spherefp)
import calibrate  # noqa: E402
import tracing  # noqa: E402


def verdict_hash(verdict):
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_hashes(workload, seed):
    try:
        with open(os.path.join(BENCH, "reference.json")) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        return []
    return ref["hashes"][workload] if ref["seed"] == seed else []


def merge_cli_spans(tracer, path, parent):
    """Attach the spans a traced CLI process wrote under the instance span."""
    if not os.path.exists(path):  # the process died before writing them
        return
    with open(path) as fh:
        data = json.load(fh)
    os.remove(path)
    base = len(tracer.spans)
    for name, start, end, par, _ in data["spans"]:
        tracer.spans.append((name, start, end, parent if par < 0 else par + base, tracer.instance))
    for key, value in data["work"].items():
        tracer.work[key] += value


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-round", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--max-rounds", type=int, default=10**9)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    if not workloads.counting.__file__.startswith(SRC + os.sep):
        sys.exit(f"spherefp was imported from {workloads.counting.__file__}, not {SRC}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        entry = os.path.join(BENCH, "cli_traced.py") if tracer else None
        wl = cls(args.workdir, SRC, entry)
    else:
        wl = cls()
    if tracer:
        start = tracer.begin(-1, tracing.SETUP)
    wl.library_setup()
    if tracer:
        tracer.end(start)
    setup_s = time.monotonic() - args.t0
    wl.bench_setup()
    refs = reference_hashes(args.workload, args.seed)

    latencies, failures, hashes = [], [], []
    # the calibration kernel's time right after set-up, then at most
    # calibrate.EVERY_S apart between instances, and after the last one;
    # instance i ran between kernel timings before[i] and before[i] + 1
    kernel_s = [calibrate.kernel_time(calibrate.SETUP_KERNEL_RUNS)]
    last_kernel = time.monotonic()
    before = []
    basket = wl.basket
    rnd = args.first_round
    started = time.monotonic()
    rounds = 0
    while rounds < args.max_rounds:
        for k, (kind, params) in enumerate(basket):
            index = rnd * len(basket) + k
            rng = random.Random(f"{args.workload}/{args.seed}/{index}")
            x, expected = getattr(wl, "gen_" + kind)(rng, *params)
            run = getattr(wl, "run_" + kind)
            error = None
            if time.monotonic() - last_kernel >= calibrate.EVERY_S:
                kernel_s.append(calibrate.kernel_time())
                last_kernel = time.monotonic()
            before.append(len(kernel_s) - 1)
            if tracer:
                t0 = tracer.begin(index)
            else:
                t0 = time.perf_counter()
            try:
                out = run(x)
            except Exception:  # an unexpected raise is a failed instance
                error = traceback.format_exc(limit=3)
            if tracer:
                root = tracer.stack[0]
                t1 = tracer.end(t0)
                if error is None and cls is workloads.Cli:
                    tracer.instance = index
                    merge_cli_spans(tracer, out[2], root)
                    tracer.instance = None
            else:
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if error is None:
                try:
                    verdict = getattr(wl, "check_" + kind)(x, expected, out)
                except workloads.Mismatch as exc:
                    error = f"Mismatch: {exc}"
                except Exception:  # a malformed verdict fails its instance
                    error = traceback.format_exc(limit=3)
            if error is None:
                h = verdict_hash(verdict)
                if index < len(refs) and refs[index] != h:
                    error = "verdict hash differs from the reference"
            else:
                h = "failed"
            hashes.append(h)
            if error is not None:
                failures.append({"index": index, "kind": kind, "error": error})
        rnd += 1
        rounds += 1
        if rounds >= args.min_rounds and time.monotonic() - started >= args.seconds:
            break

    kernel_s.append(calibrate.kernel_time())
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "latencies": latencies,
        "kernel_s": kernel_s,
        "scaled": [t * calibrate.REFERENCE_S * 2 / (kernel_s[b] + kernel_s[b + 1])
                   for t, b in zip(latencies, before)],
        "setup_scaled": setup_s * calibrate.REFERENCE_S / kernel_s[0],
        "hashes": hashes,
        "failures": failures,
        "next_round": rnd,
        "basket": len(basket),
        "numpy": workloads.np.__version__,
    }
    if tracer:
        path = os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}-{args.seed}.json")
        tracer.dump(path)
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.work)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
