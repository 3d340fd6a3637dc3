"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed>

Times the import of numpy and oridom, building the workload's inputs in
memory, and the first numpy call, and prints the main thread's CPU seconds
they took at reference host speed (calibrate.py; CPU time leaves out steal
time on a shared host). run.py starts this several times per run, with a
bytecode cache it warmed first, and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

from calibrate import Calibrator

ROOT = Path(__file__).resolve().parent.parent

with Calibrator() as calibrator:
    start = time.thread_time()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    from workloads import build, first_numpy_call

    # build writes nothing for any workload; the directory only names the paths
    build(sys.argv[1], int(sys.argv[2]), ROOT / ".bench_build" / "perfbench" / "probe")
    first_numpy_call()
    cpu = time.thread_time() - start
print(f"{calibrator.scale(cpu):.9f}")
