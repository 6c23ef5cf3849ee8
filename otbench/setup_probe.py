"""Time one benchmark set-up in a fresh interpreter.

    python3 otbench/setup_probe.py <workload> <seed> <seconds> <out_dir>

A set-up is importing otkit (and numpy with it) and building the workload's
inputs from the seed.  Prints the set-up's wall seconds and then the median
of three calibration-kernel calls made right after it in the same process,
so run.py can convert the one to reference seconds with the other; run.py
calls this several times and reports the median.
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    start = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS  # imports numpy and otkit

    name, seed, seconds, out_dir = sys.argv[1:5]
    WORKLOADS[name](int(seed), float(seconds), out_dir)
    setup = perf_counter() - start

    from calibrate import Pacer
    pacer = Pacer()
    for _ in range(3):
        pacer()
    print(setup, statistics.median(pacer.durations()))
