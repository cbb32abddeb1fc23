"""Benchmark entry point; see harness.py.

    python3 perf/run.py --workload train --seed 0 --seconds 20 --trace 0

BLAS and OpenMP are held to one thread before numpy loads, so a run uses one
core for its arithmetic whatever the machine.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import harness

    sys.exit(harness.main())
