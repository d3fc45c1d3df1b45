"""Benchmark entry point: pin BLAS to one thread before numpy loads, then run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The CLI's thread pool supplies the parallelism (--workers), so BLAS threads
are pinned to 1 to keep workers x BLAS threads within the core count.
"""

import os
import sys

BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import bench

    sys.exit(bench.main(sys.argv[1:]))
