"""Wall time scaled to a reference CPU speed.

The hosts this benchmark runs on are shared virtual machines whose speed
drifts: on the 2-vCPU reference host a fixed pure-Python loop alternates
between ~48 ms and ~76 ms in phases lasting 5 to 30 seconds.  Raw wall times
of one 1-second compile spread by 13-27% (interquartile range over median)
over a few minutes, and timing a calibration loop just before and after the
call corrects that poorly, because the phase changes during the call.

So the speed is sampled *during* the call: an interval timer interrupts the
measured call every :data:`PROBE_INTERVAL_S` seconds and runs a ~1 ms probe
loop (the dict churn of the compiler's inner loops), once more before and
after the call.  The probes' own time is subtracted from the call's wall
time, and the rest is scaled by ``REFERENCE_PROBE_S / mean probe time``.
Over 200 seconds of repeated cold compiles this cut the per-sample spread
from 13.4% to 3.5% (WResNet-50-4, ~1 s) and from 8.5% to 2.5% (RNN-6-4K,
~4 s).  The probes cost ~2% of the call's CPU time; raw wall times are kept
next to the scaled ones in each run's detail file.

Only the standard library is imported, so the import of the program under
test can itself be timed this way.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time
from typing import Callable, List

__all__ = ["Clock", "PROBE_INTERVAL_S", "REFERENCE_PROBE_S", "probe"]

#: Seconds between speed probes inside a measured call.
PROBE_INTERVAL_S = 0.05

#: The probe's typical time, in seconds, on the reference host (2-vCPU
#: x86-64 VM, CPython 3.11).  A reported second is a wall second on that
#: host at that speed.
REFERENCE_PROBE_S = 0.00105


def probe() -> int:
    """A fixed pure-Python loop, ~1 ms on the reference host."""
    counts = {}
    for i in range(8000):
        key = i % 1000
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def _probe_ns() -> int:
    start = time.perf_counter_ns()
    probe()
    return time.perf_counter_ns() - start


class Clock:
    """Times calls in reference-speed seconds (not reentrant)."""

    def __init__(self) -> None:
        #: Mean probe seconds of every measured call, in order.
        self.readings: List[float] = []

    def time(self, fn: Callable, *args, **kwargs):
        """``(result, reference seconds, wall seconds)`` of one call.

        Wall seconds exclude the probes that ran inside the call.  Off the
        main thread no timer can interrupt the call, so only the probes
        before and after it set the speed.
        """
        readings = [_probe_ns()]
        sampled = threading.current_thread() is threading.main_thread()

        def on_alarm(signum, frame):
            readings.append(_probe_ns())

        if sampled:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall_ns = time.perf_counter_ns() - start - sum(readings[1:])
        readings.append(_probe_ns())
        speed = statistics.fmean(readings) / 1e9
        self.readings.append(speed)
        wall = wall_ns / 1e9
        return result, wall * REFERENCE_PROBE_S / speed, wall
