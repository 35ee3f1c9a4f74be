"""Record the verdict hashes of the default seed in bench/reference.json.

    python3 bench/make_reference.py

Run from the root of a checkout whose outputs are the reference.  It runs
each workload untraced for REFERENCE_ROUNDS rounds from round 0 (more than
one benchmark run reaches on the default seed), refuses to write if any
instance fails its known-answer check, and stores one hash per instance.
Verdict hashes cover branches, exact counts, certificates and witnesses,
never cost counters, so a run on the default seed fails any instance whose
verdict changed.
"""

import json
import os
import shutil
import sys

import run

REFERENCE_ROUNDS = {"boxsets": 8, "lifts": 60, "quadrics": 24, "cli": 6}


def main():
    path = os.path.join(run.BENCH, "reference.json")
    if os.path.exists(path):  # the workers would check against the old hashes
        os.remove(path)
    workdir = os.path.join(run.ROOT, ".bench_work", f"ref-{os.getpid()}")
    os.makedirs(workdir)
    hashes = {}
    try:
        for workload, rounds in REFERENCE_ROUNDS.items():
            r = run.run_worker(workdir, workload, run.DEFAULT_SEED, 0, 0, rounds, rounds, 0)
            if r["failures"]:
                run.report_failures([r])
                return 1
            hashes[workload] = r["hashes"]
            print(f"{workload}: {len(r['hashes'])} instances")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "hashes": hashes}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
