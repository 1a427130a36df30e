"""Host time in seconds of a reference host, for a host whose speed drifts.

The benchmark runs on a share of a machine whose speed drifts by up to 2x
in phases of seconds to a minute: one scenario, run again and again, took
from 5.0 s to 9.9 s. A median within one run cannot remove a phase that
covers the run, so every execution is paced. Every INTERVAL_S a timer
signal runs a fixed pure-Python probe (a heap of tuples, dict updates and
float arithmetic, like the simulator's event loop) and times it. Each
stretch of the program's own time between two probes is then divided by
the host's slowness there: the median of the nearby probe times over
REFERENCE_PROBE_S. The result is the time the stretch would take on a host
where the probe takes REFERENCE_PROBE_S. Probe time is excluded, both from
paced and from plain host time, and from the traced spans a probe lands in.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

INTERVAL_S = 0.025
PROBE_STEPS = 400
# the probe's time in a fast phase of a 2-vCPU VM with Python 3.11, so that
# paced seconds are close to the host seconds of such a phase
REFERENCE_PROBE_S = 0.35e-3
# probes in the running median that gives the local slowness
WINDOW = 9


def probe() -> float:
    heap: list = []
    counts: dict = {}
    acc = 0.0
    for i in range(PROBE_STEPS):
        heapq.heappush(heap, (((i * 7919) % 1000) * 1e-3, i))
        counts[i & 63] = counts.get(i & 63, 0) + 1
        acc += (i * 0.5) ** 0.5
    while heap:
        heapq.heappop(heap)
    return acc


class Pace:
    """Times probes on a timer signal while the ``with`` block runs."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end)
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter()))

    def __enter__(self):
        probe()  # warm, untimed
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # one probe after the block, so that even a block shorter than
        # INTERVAL_S has a slowness
        self._on_timer(None, None)
        self._build()
        return False

    def slowness(self) -> list[float]:
        """Per probe, the median probe time around it over REFERENCE_PROBE_S."""
        times = [end - start for start, end in self.probes]
        half = WINDOW // 2
        return [
            statistics.median(times[max(0, i - half) : i + half + 1]) / REFERENCE_PROBE_S
            for i in range(len(times))
        ]

    def _build(self) -> None:
        # Paced time is a piecewise linear clock: flat during a probe, and
        # in the stretch before probe k (or after the last probe) running at
        # 1 / slowness of that probe. Host time is the same clock at slowness
        # 1. Both are kept at every probe start and end, so that a span of
        # any length is two bisections.
        slowness = self.slowness()
        knots, paced, host = [], [], []
        p = h = 0.0
        previous_end = None
        for (start, end), slow in zip(self.probes, slowness):
            if previous_end is not None:
                p += (start - previous_end) / slow
                h += start - previous_end
            knots += [start, end]
            paced += [p, p]
            host += [h, h]
            previous_end = end
        self._knots, self._paced, self._host = knots, paced, host
        self._slowness = slowness

    def _clock(self, t: float, values: list[float], paced: bool) -> float:
        i = bisect.bisect_right(self._knots, t)
        if i == 0:  # before the first probe
            rate = 1 / self._slowness[0] if paced else 1.0
            return values[0] - (self._knots[0] - t) * rate
        if i % 2:  # inside probe (i - 1) // 2
            return values[i - 1]
        # after probe i // 2 - 1, in the stretch before the next probe
        rate = 1 / self._slowness[min(i // 2, len(self._slowness) - 1)] if paced else 1.0
        return values[i - 1] + (t - self._knots[i - 1]) * rate

    def host_s(self, t0: float, t1: float) -> float:
        """Host seconds in [t0, t1] outside the probes."""
        return self._clock(t1, self._host, False) - self._clock(t0, self._host, False)

    def paced_s(self, t0: float, t1: float) -> float:
        """Reference-host seconds of the program's time in [t0, t1]."""
        return self._clock(t1, self._paced, True) - self._clock(t0, self._paced, True)
