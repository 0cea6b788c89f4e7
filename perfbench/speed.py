"""Speed-adjusted timing for a shared, noisy host.

On a machine shared with other tenants the speed of pure-Python code
drifts by a quarter or more for tens of seconds at a time, and the
process's CPU time drifts with it, so neither wall time nor CPU time
repeats from run to run.  A ``SpeedProbe`` therefore times a fixed
pure-Python kernel that does not touch the package (a small row
reduction, the kind of work the package spends its time in) every
``PROBE_INTERVAL_S`` of CPU time, from a ``SIGPROF`` handler, while the
jobs run.  A job's adjusted time is its own time (probe time excluded)
scaled by ``REFERENCE_PROBE_S`` over the median probe time during the
job: the time the job would have taken on a host that runs the kernel
in the reference time.  Jobs shorter than the probe interval borrow the
``MIN_PROBES`` probes nearest to them.  Of the kernels tried (dict and
``Fraction`` arithmetic, allocation-heavy loops, ``Fraction`` and F_p
row reduction), F_p row reduction tracked the jobs' own slowdowns best:
on a 2-core Intel Xeon sandbox it cut the coefficient of variation of a
repeated job from 13-18% raw to 6-8%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.01
MIN_PROBES = 9
PROBES_PER_JOB = 5
# About the kernel's time on a 2-core Intel Xeon sandbox under Python
# 3.11; it fixes the scale of adjusted times, not their ratios.
REFERENCE_PROBE_S = 1.5e-4


def probe_kernel() -> int:
    """Row-reduce a fixed 10 x 10 matrix over F_p with list
    comprehensions, the inner-loop shape of the package's elimination
    over Q, Z and F_p."""
    p = 1000003
    n = 10
    rows = [[(i * 31 + j * 17) % p for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = pow(rows[c][c] or 1, p - 2, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % p
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    return rows[-1][-1]


class SpeedProbe:
    """Probe samples of one process: start times and durations."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        """Index range of the probes taken in [start, end], widened to
        the MIN_PROBES nearest ones when it holds fewer."""
        times = self.times
        i, j = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while j - i < MIN_PROBES and (i > 0 or j < len(times)):
            if j >= len(times) or (i > 0 and start - times[i - 1] <= times[j] - end):
                i -= 1
            else:
                j += 1
        return i, j

    def adjust(self, start: float, end: float) -> float:
        """Adjusted duration of the interval [start, end]."""
        i, j = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        own = end - start - sum(self.durations[i:j])
        lo, hi = self._window(start, end)
        if lo == hi:
            raise RuntimeError("no speed probe was taken")
        return own * REFERENCE_PROBE_S / statistics.median(self.durations[lo:hi])
