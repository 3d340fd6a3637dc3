"""CPU seconds scaled to a reference host speed.

On a shared 2-vCPU Xeon VM, the CPU time of a fixed pure-Python loop
alternated between two levels about 1.8x apart, in stretches of a few seconds
to a minute (3-second medians of 90 s of 5 ms loops read 0.70-0.79 and
1.13-1.34 of the overall median). CPU time of an oridom pass moved with it:
over five 20-second props runs of the same code, the median raw pass read
2.56 s to 3.44 s, and the median scaled pass 2.93 s to 3.00 s.

Calibrator samples the host's speed while a pass runs: every INTERVAL_S of
process CPU time a SIGPROF handler times a small fixed loop (chunk()) on the
main thread. The pass's CPU time, less the loop's, is then scaled by
REF_CHUNK_S over the loop's mean time: the CPU seconds the pass would take
on a host that runs the loop in REF_CHUNK_S. The loop uses no oridom code,
so a change to oridom moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# Mean time of chunk() during passes on the host the baseline was measured on;
# it only sets the scale, so that scaled and raw CPU seconds read alike there.
REF_CHUNK_S = 0.00021
_KEYS = 64


def _loop(n: int) -> int:
    counts = dict.fromkeys(range(_KEYS), 0)
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFF
        counts[acc % _KEYS] += 1
    return acc


def chunk() -> float:
    """Thread CPU seconds of one calibration loop, run twice so that the timed
    run finds its code and data in cache whatever ran before it."""
    _loop(1000)
    start = time.thread_time()
    _loop(1000)
    return time.thread_time() - start


class Calibrator:
    """Context manager: samples chunk() every INTERVAL_S of process CPU time.

    Times use the thread clock: while ITIMER_PROF is armed, the process CPU
    clock of Linux advances only at scheduler ticks.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # thread CPU seconds the sampling itself used

    def _tick(self, *_):
        start = time.thread_time()
        self.samples.append(chunk())
        self.spent += time.thread_time() - start

    def __enter__(self):
        self.samples.append(chunk())  # so that even a block shorter than a tick has samples
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.samples.append(chunk())
        return False

    def scale(self, cpu_s: float) -> float:
        """CPU seconds measured inside the block, less the ticks', at reference speed."""
        return (cpu_s - self.spent) * REF_CHUNK_S / statistics.mean(self.samples)
