"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload>

The clock starts before the package is imported, so the import counts.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workloads.prepare(sys.argv[1])
    print(time.perf_counter() - start)
