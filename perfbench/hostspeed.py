"""Host-speed probe, and a clock that reads in reference-host seconds.

The benchmark runs on a few cores of a shared host whose speed drifts, as
neighbours load it, by up to a factor of two over seconds to minutes;
identical work then takes up to twice as long. The probe is a fixed piece of
work timed between the timed segments of the program's work; a segment's
host time divided by the slowdown the probes on either side of it measured
(median probe time over REF_S) is its time on a host on which the probe
takes REF_S, and most of the drift cancels. The probe imitates the program's
mix (interpreter-bound loops over small numpy arrays, dict and attribute
access) and never imports the program, so a change to the program cannot
change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# about the median probe time on an otherwise idle 2-vCPU Intel Xeon at
# 2.0 GHz with Python 3.11.7 and numpy 2.4.6
REF_S = 0.005

_N = 12  # devices on the bench
_GRID = np.linspace(0.0, 1.0, 32)
_BASE = np.linspace(0.5, 1.5, _N)


class _State:
    __slots__ = ("t", "tj", "acc")

    def __init__(self):
        self.t = 0.0
        self.tj = _BASE.copy()
        self.acc = {"energy": 0.0, "steps": 0}


def _work(steps: int) -> float:
    s = _State()
    decay = np.exp(-_GRID[:_N])
    for k in range(steps):
        p = s.tj * s.tj * 0.01 + _BASE
        s.tj = s.tj * decay + p * (1.0 - decay)
        i = int(np.searchsorted(_GRID, (k % 29) / 29.0))
        s.acc["energy"] += float(p.sum()) * 1e-3 + _GRID[min(i, 31)]
        s.acc["steps"] += 1
        s.t += 1e-4
    return s.acc["energy"]


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    _work(500)
    return perf_counter() - t0


class Clock:
    """Times segments of work in host and in reference-host seconds.

    `probes` probes run after every segment (and once before the first);
    a segment's slowdown is the median of the probes on either side of it.
    With `probes=0` nothing is probed and both times are host times.
    """

    def __init__(self, probes: int = 3):
        self.probes = probes
        self.samples: list[float] = []   # every probe time, for reports
        self._gap = self._probe()

    def _probe(self) -> list:
        gap = [probe() for _ in range(self.probes)]
        self.samples += gap
        return gap

    def slowdown(self) -> float:
        """The host's slowdown in the latest gap between segments."""
        return statistics.median(self._gap) / REF_S if self._gap else 1.0

    def time(self, fn, *args):
        """(fn(*args), host seconds, reference-host seconds)."""
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        before, self._gap = self._gap, self._probe()
        both = before + self._gap
        slowdown = statistics.median(both) / REF_S if both else 1.0
        return result, wall, wall / slowdown
