"""The benchmark's fixed calibration kernel, a yardstick for machine speed.

The benchmark runs on shared hosts whose speed drifts by a third or more,
over tens of milliseconds as well as over minutes, with no CPU steal to
show for it.  Such a drift moves the wall times of all code in much the
same proportion.  So each worker times this kernel right after set-up,
then between instances whenever EVERY_S has passed since the last timing,
and once after the last instance.  Every time metric is reported at the
reference speed:

    reported = measured * REFERENCE_S / kernel time around the measurement

where an instance's kernel time is the mean of the timings just before and
just after it, and set-up's is the timing right after it.

The yardstick only holds if it runs on the CPU the work runs on: two vCPUs
of one VM drift apart.  So bench/run.py pins itself, and with it every
worker and CLI process it starts, to the CPU it was started on.

The kernel belongs to the benchmark and never calls spherefp, so a change
to the library moves the reported times as it moves the measured ones.
It mixes the two kinds of work the library does: interpreted integer,
Fraction and dict arithmetic, and numpy int64 evaluation mod p on a point
array.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np

EVERY_S = 0.05  # about 6% of a worker's time goes to the kernel
SETUP_KERNEL_RUNS = 3  # the timing right after set-up, which scales setup_s
# median kernel time on the machine in bench/baseline.json, so that reported
# times read close to wall times there
REFERENCE_S = 0.0030

_P = 11
_POINTS = np.random.default_rng(0).integers(0, _P, size=(6000, 5), dtype=np.int64)
_TERMS = [((i % 3, (i // 3) % 2, i % 2, (i // 2) % 3, 0), i % _P + 1) for i in range(12)]


def _kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 29 + 1)
        key = (i % 13, i % 5, i % 3)
        table[key] = (table.get(key, 0) + i * i) % 1000003
    powers = [[np.ones(len(_POINTS), dtype=np.int64)] for _ in range(5)]
    for j in range(5):
        for _ in range(2):
            powers[j].append(powers[j][-1] * _POINTS[:, j] % _P)
    values = np.zeros(len(_POINTS), dtype=np.int64)
    for exps, c in _TERMS:
        term = np.full(len(_POINTS), c, dtype=np.int64)
        for j, e in enumerate(exps):
            if e:
                term = term * powers[j][e] % _P
        values = (values + term) % _P
    return acc, len(table), int(values.sum())


def pin_to_current_cpu():
    """Restrict this process, and the processes it starts from now on, to
    the CPU it is running on.  A no-op where Linux affinity is missing."""
    try:
        with open("/proc/self/stat") as fh:
            # field 39, counted after the parenthesised command name
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass


def kernel_time(repeats=1):
    """Mean time of `repeats` kernel runs: the machine's current speed, in
    seconds of kernel time.  A mean, not a least, because the speed swings
    within milliseconds and the instances run at its average."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - t0) / repeats
