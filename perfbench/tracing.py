"""Layer tracing from outside the program.

The traced run wraps the public functions of qrnet's layers from here, so
qrnet itself carries no tracing code. A wrapper records one span per call
(name, start, end, parent span); spans stay in memory until the run ends.
A layer's self time is its span duration minus the time its direct child
spans cover. A span's duration is ``seconds(start, end)``: plain clock time
unless the caller sets a clock of its own, such as pace.Pace.paced_s.
"""

from __future__ import annotations

import functools
import gc
import math
import time
from collections import Counter, defaultdict


class Tracer:
    """Wraps callables in place and records a span per call."""

    def __init__(self):
        # (name, start, end, parent index); None while the call runs
        self.spans: list = []
        self.seconds = _elapsed
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def durations(self, name: str) -> list[float]:
        seconds = self.seconds
        return [seconds(start, end) for n, start, end, _ in self.spans if n == name]

    def total_s(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def top_level_total_s(self, prefix: str) -> float:
        """Time in spans named ``prefix*`` not nested in another such span."""
        spans = self.spans
        total = []
        for name, start, end, parent in spans:
            if name.startswith(prefix) and (
                parent < 0 or not spans[parent][0].startswith(prefix)
            ):
                total.append(self.seconds(start, end))
        return math.fsum(total)

    def self_s(self, name: str) -> float:
        seconds = self.seconds
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += seconds(start, end)
        return math.fsum(
            seconds(start, end) - child_time[idx]
            for idx, (n, start, end, _) in enumerate(self.spans)
            if n == name
        )

    def write_tsv(self, path) -> None:
        with open(path, "w") as fp:
            fp.write("span\tname\tstart_s\tend_s\tparent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fp.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


class CountingSink:
    """A ``trace_fp`` that counts executed events per kind instead of storing them."""

    def __init__(self):
        self.kinds: Counter[str] = Counter()

    def write(self, line: str) -> None:
        # dump_trace writes one "time\tseq\tkind\tsummary\n" line per event
        self.kinds[line.split("\t", 3)[2]] += 1

    @property
    def events(self) -> int:
        return sum(self.kinds.values())


class GcMonitor:
    """Collections and pause time of the cyclic garbage collector."""

    def __init__(self):
        self.pauses: list[tuple[float, float]] = []
        self.gen2_collections = 0
        self.seconds = _elapsed
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pauses.append((self._started, time.perf_counter()))
        if info["generation"] == 2:
            self.gen2_collections += 1

    @property
    def pause_s(self) -> float:
        return math.fsum(self.seconds(start, end) for start, end in self.pauses)

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def _elapsed(start: float, end: float) -> float:
    return end - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the data at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
