"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a small VM whose vCPUs the host lends at a speed
that drifts by up to 1.6x within seconds and stays changed for minutes,
for interpreter and NumPy work alike. A fixed calibration kernel, timed
in the worker process itself every PERIOD_S from a SIGALRM handler, reads
that speed next to the work it calibrates, on the same vCPU. A time
interval's reference time is its measured time multiplied by the mean of
REF_S / d over the probes d taken within it and its two neighbours: the
seconds it would have taken on a host where the kernel takes REF_S.
A probe on the other vCPU was tried and tracks this vCPU's speed far
worse.

The probe's own time is added to the worker's excluded time, like that of
the output checks, so it never counts in an operation's time.
"""

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.05
REF_S = 0.002         # the kernel's time at the reference speed: about its
                      # median on the 2-vCPU VM the benchmark was tuned on


class SpeedProbe:
    def __init__(self, ctx):
        rng = np.random.default_rng(0)
        self.ctx = ctx
        self.small = rng.random((24, 24))
        self.times = []
        self.speeds = []

    def kernel(self):
        # Interpreter work on tuples and dicts, as in type enumeration.
        table = {}
        for i in range(2400):
            key = (i % 7, i % 11, i % 13)
            table[key] = table.get(key, 0) + i
        # Small-array NumPy calls, as in per-type laws.
        v = self.small[0]
        for _ in range(120):
            v = self.small @ v
            v = v / v.sum()
        return float(v[0]) + len(table)

    def sample(self, *_):
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.speeds.append(REF_S / (end - start))
        self.ctx.excluded += end - start

    def forced_sample(self):
        with blocked():
            self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.forced_sample()

    def stop(self):
        self.forced_sample()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start, end):
        """Mean relative speed over [start, end] and the probes either side."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return statistics.fmean(self.speeds[max(lo - 1, 0):hi + 1])


@contextmanager
def blocked():
    """Hold SIGALRM, so no probe runs inside an excluded section and its
    time is never excluded twice; a probe due meanwhile runs right after."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
