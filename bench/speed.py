"""Host speed sampler: measures how fast the host runs while an item runs.

On a shared host other tenants slow this process by up to 2x, in bursts
shorter than a second whose share drifts over minutes, and CPU time slows
with it.  So while an item runs, a SIGALRM handler runs a fixed probe every
PERIOD_S seconds of wall time and times it.  The handler runs in the main
thread between bytecodes, so nothing else runs while the probe is timed.
The probes' own time is left out of the item's time (`Sampler.clock`), and
the item's time is divided by the host's slowdown: the mean probe time over
REF_PROBE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
# the probe's time on an idle core of the build host (2-vCPU Xeon VM); the
# scaled times are seconds at that speed
REF_PROBE_S = 3e-4


def probe() -> float:
    """Seconds for a fixed slice of dict and tuple work, the kind of work
    the library's polynomial arithmetic does."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(1500):
        t = (i % 7, i % 11, i % 13)
        d[t] = d.get(t, 0) + 1
    return time.perf_counter() - t0


class Sampler:
    def __init__(self):
        self.probe_s = 0.0  # wall time spent probing so far
        self.samples: list[float] = []

    def clock(self) -> float:
        """Wall-clock seconds, less the time spent probing."""
        return time.perf_counter() - self.probe_s

    def _probe_twice(self):
        t0 = time.perf_counter()
        self.samples.append(min(probe(), probe()))
        self.probe_s += time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.probe_s += time.perf_counter() - t0

    def start(self):
        """Probe once, then every PERIOD_S until stop()."""
        self.samples = []
        self._probe_twice()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop probing; return the host's slowdown since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe_twice()
        return statistics.fmean(self.samples) / REF_PROBE_S
