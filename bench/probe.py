"""CPU-speed probe for normalizing times on a shared machine.

CPU speed on a shared virtual machine swings by up to 2x within seconds and
drifts by tens of percent over minutes, with process CPU time tracking wall
time, so neither raw wall time nor CPU time repeats between runs.  While a
measured phase runs, a SIGALRM handler times a fixed probe every `interval`
seconds: PROBE_LOOPS rounds of integer arithmetic, small-tuple building and
dict counting, the operations the array and reduction kernels spend their
time on.  The collector is paused inside the probe, and the probe frees all
it allocates.  A phase's time is then reported as

    (raw time - time spent in probes) * PROBE_REF_S / mean probe time,

the phase's length on a CPU where the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PROBE_LOOPS = 1000
PROBE_REF_S = 0.0005


def _probe() -> int:
    counts: dict = {}
    x = 1
    for _ in range(PROBE_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 7, (x >> 3) & 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class SpeedProbe:
    """Samples the probe's duration every `interval` seconds between
    start() and stop()."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> "SpeedProbe":
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # the phase was shorter than one interval
            self._sample()
        return self

    def normalize(self, raw: float) -> float:
        """`raw` seconds of a phase, minus its probes, at the reference speed."""
        net = raw - sum(self.samples)
        return net * PROBE_REF_S / statistics.fmean(self.samples)
