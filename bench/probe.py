"""Machine-speed probe: a sibling interpreter that times a fixed computation.

    python3 bench/probe.py

``run.py`` starts this script next to the workload interpreters, on the
same CPU, and reads its samples afterwards.  It writes ``ready`` once its
inputs are built, then one line ``<time.monotonic()> <seconds>`` per
sample, one sample every PROBE_INTERVAL_S, until its standard input is
closed.

A run is three products of one 400 x 400 integer scipy.sparse matrix, the
kind of call diagmod's relation checks spend their time in, about 1.5 ms of
work.  The probe shares the workload's CPU because the host slows each
virtual CPU on its own: a probe on the other CPU did not follow the
workload's speed.  An untimed run comes first, so the timed runs start with
warm caches and read the CPU's speed, not what the workload left in the
cache.  A sample is the fastest of TIMED_RUNS timed runs, which passes over
a run that the workload or a pause of the virtual CPU interrupted.  The
probe does not use diagmod, so no change to the library can speed it up,
and it runs in its own process, so the workload's heap is not in its way.
It takes about 3 % of the CPU.
"""

from __future__ import annotations

import select
import sys
import time

import numpy as np
from scipy import sparse

PROBE_INTERVAL_S = 0.2
TIMED_RUNS = 3


def main() -> int:
    rng = np.random.default_rng(1)
    rows, cols = rng.integers(0, 400, 1600), rng.integers(0, 400, 1600)
    matrix = sparse.csc_matrix((np.ones(1600, dtype=np.int64), (rows, cols)), shape=(400, 400))

    def products() -> float:
        start = time.perf_counter()
        for _ in range(3):
            product = matrix @ matrix
            product.sum_duplicates()
            product.eliminate_zeros()
        return time.perf_counter() - start

    print("ready", flush=True)
    while True:
        products()
        seconds = min(products() for _ in range(TIMED_RUNS))
        print(time.monotonic(), seconds, flush=True)
        # Sleep until the next sample; a closed standard input ends the probe.
        if select.select([sys.stdin], [], [], PROBE_INTERVAL_S)[0]:
            return 0


if __name__ == "__main__":
    sys.exit(main())
