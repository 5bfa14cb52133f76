"""Reference-speed time: wall time corrected for the machine's drifting speed.

On a shared host the same Python code runs up to twice as fast at one
minute as at the next, and the drift reaches every process alike.  So
while a round runs, a fixed pure-Python probe is timed about every
PROBE_EVERY_NS: at the first garbage collection or request boundary
after the interval has passed, and once before and once after the timed
loop.  The probe needs no engine code.

A timed interval is converted to reference speed by subtracting the probe
runs inside it, then scaling it by PROBE_REF_S over the median duration of
the probes around it: those inside, the last one before and the first one
after, and WINDOW more on each side.  So a reference-speed time is the
wall time the code would take on a machine where one probe takes exactly
PROBE_REF_S.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

PROBE_REF_S = 0.001
PROBE_EVERY_NS = 50_000_000
#: Probes on each side of an interval that also set its speed, so one
#: probe slowed by an interrupt does not skew it.
WINDOW = 2


def _probe_work() -> int:
    # Memoized recursion on pairs, the shape of the engine's evaluators,
    # then tuple keys and string joins, the shape of interning and
    # printing.
    memo: dict[tuple[int, int], int] = {}

    def f(a: int, b: int) -> int:
        key = (a, b)
        v = memo.get(key)
        if v is None:
            if a < 2 or b < 2:
                v = (a * 31 + b) % 97
            else:
                v = max(f(a - 1, b), f(a, b - 1)) + 1
            memo[key] = v
        return v

    names = {(i, i & 7): str(i) for i in range(300)}
    return f(30, 30) + len("".join(names.values()))


def probe_ns() -> int:
    """Duration of one probe run, with garbage collection held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter_ns()
        _probe_work()
        return perf_counter_ns() - t
    finally:
        if enabled:
            gc.enable()


_probe_work()  # the first run in a process pays for warming up


class Clock:
    """Probe schedule and garbage-collection pauses of one timed loop.

    Append the instance to ``gc.callbacks``; call ``maybe_probe`` between
    requests and ``probe`` before and after the loop.
    """

    def __init__(self) -> None:
        self.probe_starts: list[int] = []
        self.probe_durations: list[int] = []
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0
        self._next_probe = 0

    def probe(self) -> None:
        start = perf_counter_ns()
        duration = probe_ns()
        self.probe_starts.append(start)
        self.probe_durations.append(duration)
        self._next_probe = perf_counter_ns() + PROBE_EVERY_NS

    def maybe_probe(self) -> None:
        if perf_counter_ns() >= self._next_probe:
            self.probe()

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1
            self.maybe_probe()

    def reference_ns(self, start: int, end: int) -> float:
        """Reference-speed duration of the interval [start, end].

        The loop's first and last probes bracket every interval.
        """
        starts = self.probe_starts
        before = bisect_right(starts, start) - 1
        after = bisect_left(starts, end)
        inside = self.probe_durations[before + 1:after]
        window = self.probe_durations[max(0, before - WINDOW):after + 1 + WINDOW]
        busy = end - start - sum(inside)
        return busy * PROBE_REF_S * 1e9 / statistics.median(window)

    def scale(self) -> float:
        """Reference seconds per wall second, from the median probe."""
        return PROBE_REF_S * 1e9 / statistics.median(self.probe_durations)
