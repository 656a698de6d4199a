"""How fast the shared machine runs at a given moment.

The benchmark was defined on a 2-vCPU virtual machine shared with other
guests. Its speed drifts by tens of percent within seconds and over minutes,
with no steal time visible inside the guest, and a run's median pass time
follows that drift. A fixed piece of pure-Python work, timed while the
workload runs, slows down with it, so the benchmark reports pass times
scaled by the ratio of this kernel's nominal time to its time during the
measurement, and set-up times scaled the same way by a reference
interpreter's start-up time.
"""

from __future__ import annotations

import math
import signal
import time

# Median time of reference_kernel on the machine the benchmark was defined
# on (CPython 3.11). Reported times are seconds at this speed.
REFERENCE_KERNEL_S = 0.0035

# Set-up is timed between two reference interpreters that only import numpy:
# the start-up work fockwitness's own set-up mostly consists of, but none of
# its code, so no change to the package moves them. Reported set-up times are
# seconds at a reference interpreter time of REFERENCE_SPAWN_S, its median on
# the machine the benchmark was defined on.
REFERENCE_SPAWN_ARGV = ("-I", "-c", "import numpy; print('ready', flush=True)")
REFERENCE_SPAWN_S = 0.13

# While a pass runs, a timer signal interrupts it every SAMPLE_PERIOD_S to
# time the kernel once (about 7% of the pass). A pass's scaled time is only as
# good as the few kernel times taken during it, and the 0.6 s passes of
# cat_sweeps need this many to be steady.
SAMPLE_PERIOD_S = 0.05


def reference_kernel() -> float:
    """Fixed work sharing no code with fockwitness, so no change to the
    package moves it: float series terms, dict traffic and math calls, the
    mix of the package's own Python loops."""
    table = {}
    total = 0.0
    for k in range(1, 4000):
        term = 1.0
        for j in range(3):
            term *= (k + j) / (k + j + 1.5)
        table[k & 1023] = term
        total += math.exp(-term) + table.get((k * 7) & 1023, 0.0)
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference kernel every SAMPLE_PERIOD_S while started.

    The samples are taken inside the pass, from a SIGALRM handler, because
    the machine's speed changes within a pass; the caller subtracts their
    time from the pass's.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(time_reference())

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
