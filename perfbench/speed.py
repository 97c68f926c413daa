"""Host-speed calibration: CPU time rescaled to a fixed reference speed.

On a shared VM the host's speed drifts by a third and more within a minute,
in CPU time as much as in wall time, so a raw time says as much about the
neighbours as about the program. A Speedometer runs a fixed calibration loop
(plain interpreter work of the kind the package does: tuples and dict
lookups) in the process doing the work, three times at start, every PERIOD_S
of CPU time (SIGPROF) and once at stop, and records how long each loop took.
A span of work is reported as its CPU time, net of the calibration loops,
times REFERENCE_S over the mean loop time in that span: the CPU seconds the
work would take on a host where one loop takes REFERENCE_S (about the median
on the 2-core x86 VM the benchmark was built on).
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.004
PERIOD_S = 0.25


def calibration_loop(n: int = 10000) -> int:
    d = {}
    for i in range(n):
        t = (i % 97, i % 13)
        d[t] = d.get(t, 0) + 1
    return len(d)


class Speedometer:
    def __init__(self):
        self.samples = []         # CPU seconds of each calibration loop
        self.spent = 0.0          # CPU seconds spent calibrating

    def sample(self, *_signal_args) -> None:
        # the first loop warms the caches the work left cold; the second is
        # timed, so a sample measures the host, not the work's cache state
        t0 = time.thread_time()
        calibration_loop()
        t1 = time.thread_time()
        calibration_loop()
        t2 = time.thread_time()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def start(self) -> None:
        # three samples at start, so that a process too short for the timer
        # to fire is still judged by more than its two end points
        for _ in range(3):
            self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.sample()

    def mark(self) -> tuple[float, int]:
        """CPU seconds of the main thread so far, net of calibration, and the
        number of samples taken. (While the interval timer is armed, the
        process-wide CPU clock advances only once per kernel tick; the
        thread clock stays exact.)"""
        return time.thread_time() - self.spent, len(self.samples)

    def scaled(self, since, until) -> float:
        """CPU seconds between two marks at the reference speed, judged by
        the samples taken in between and the last one before."""
        (c0, i0), (c1, i1) = since, until
        window = self.samples[max(i0 - 1, 0):max(i1, 1)]
        return (c1 - c0) * REFERENCE_S * len(window) / sum(window)

    def scaled_total(self) -> float:
        """CPU seconds since process start at the reference speed, judged by
        every sample taken."""
        return (self.mark()[0] * REFERENCE_S * len(self.samples)
                / sum(self.samples))
