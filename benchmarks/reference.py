"""A speedometer: a fixed reference computation timed while the mix runs.

The host's speed changes under the benchmark: a vCPU switches every few
seconds between a fast and a slow state about 1.4 times slower, and the
mix of the two drifts over minutes, so a mix's wall time alone moves by
25% and more with no change to numfac.  ``slice_s`` times a fixed slice
of pure-Python integer arithmetic that calls no numfac code and runs in
about ``SLICE_S`` on a 2 GHz Xeon vCPU.  ``Meter`` runs one slice every
``PERIOD_S`` of wall time from a timer signal while a query runs, so the
slices sample the machine in the states the query saw, weighted by time.
Dividing a measured time by the mean slice time and multiplying by
``SLICE_S`` gives the time at the reference speed, at which a slice
takes ``SLICE_S``.  The process and the set-up children are pinned to
one CPU (see ``pin``), so the slices see the CPU the work runs on.

Of the normalisations tried on the same passes of the ``omega`` mix
(slices between queries, slices around each query, slices during each
query), slices during each query cut the spread of pass times most:
the interquartile range fell from 14% to 5% of the median.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

STEPS = 40_000
SLICE_S = 0.004  # the reference speed: one slice takes this long
PERIOD_S = 0.2


def _work():
    acc = 0
    for i in range(STEPS):
        acc += i * i % 7
    return acc


def slice_s():
    """Wall time of one slice of the reference work, in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def pin():
    """Pin this process, and the children it starts, to its highest allowed CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass


class Meter:
    """Reference slices taken every ``PERIOD_S`` from SIGALRM while armed.

    ``slices`` holds ``(start, seconds)`` of every slice taken.  A slice
    runs in the main thread between bytecodes, so it adds its own time to
    whatever code it interrupts; ``within`` gives the slice time to take
    back out of an interval.
    """

    def __init__(self):
        self.slices = []
        signal.signal(signal.SIGALRM, self.take)

    def take(self, signum=None, frame=None):
        """Time one slice now; the timer calls this, and so does a pass it never reached."""
        start = time.perf_counter()
        _work()
        self.slices.append((start, time.perf_counter() - start))

    def arm(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, t0, t1):
        """Total time of the slices that started between ``t0`` and ``t1``."""
        return sum(s for start, s in self.slices if t0 <= start < t1)

    def mean_s(self, first=0):
        """Mean time of the slices from index ``first`` on."""
        return statistics.mean(s for _, s in self.slices[first:])
