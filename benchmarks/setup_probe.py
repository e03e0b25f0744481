"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py <workload> <seed>

Prints one JSON object: the wall seconds taken to import nctorus and build
the workload's inputs, and kernel samples taken in this process just
before and after, which run.py uses to normalise that time.  Loading the
reference data is not part of set-up.
"""

import json
import sys
import time

from calibrate import Calibration
from workloads import build_jobs, import_program

KERNEL_SAMPLES = 3


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    cal = Calibration()
    # The first sample of a fresh interpreter runs cold and is dropped.
    for _ in range(KERNEL_SAMPLES + 1):
        cal.sample()
    start = time.perf_counter()
    import_program()
    build_jobs(workload, seed)
    wall = time.perf_counter() - start
    for _ in range(KERNEL_SAMPLES):
        cal.sample()
    print(json.dumps({"wall_s": wall, "kernel_s": cal.samples[1:]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
