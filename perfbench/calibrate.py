"""Host-speed sampling for timings on a shared machine.

On a shared host the speed of one core drifts by a third or more within
seconds (the same ``scatter`` call measured 0.19 s to 0.36 s back to
back), which no number of repeats averages away in a 20-second run.  While
a ``Speedometer`` is active, a timer signal interrupts the program every
PERIOD_S and times a fixed pure-Python probe loop (small-object
arithmetic, tuples, dict traffic, ``gcd``: what exact rational code spends
its time in).  A measured interval is then reported as

    (wall seconds - seconds spent in the probe) * REFERENCE_S / mean probe time

over the probes taken during the interval, widened to the MIN_PROBES most
recent ones when the interval is short.  Because the probes run during the
work rather than beside it, they see the same slow and fast phases.
REFERENCE_S is close to the probe's usual time on the machine the baseline
was measured on, so reported seconds read like wall seconds there.

Only built-in and start-up modules are used, so a Speedometer can run
before ``jkscatter`` is imported.
"""

import gc
import signal
import time
from math import gcd
from time import perf_counter

PERIOD_S = 0.01
REFERENCE_S = 0.0003
MIN_PROBES = 8
_ROUNDS = 200


class _Ratio:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def add(self, other):
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)


def _probe_loop() -> None:
    acc, table = _Ratio(0, 1), {}
    for i in range(1, _ROUNDS):
        key = (i % 97, i % 13, i * 7 % 5)
        table[key] = table.get(key, 0) + i
        acc = acc.add(_Ratio(i % 7 + 1, i % 11 + 1))


class Speedometer:
    """Probe the host's speed every PERIOD_S while inside ``with``.

    Uses SIGALRM and ITIMER_REAL, so only one may be active per process,
    in the main thread."""

    def __init__(self):
        self.probes: list[float] = []   # seconds per probe loop, in order
        self.spent = 0.0                # seconds spent in the handler so far

    def _tick(self, _signum, _frame):
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _probe_loop()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.probes.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        time.sleep(PERIOD_S * (MIN_PROBES + 1))  # the first interval needs probes before it
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.probes), self.spent

    def scaled(self, since: tuple[int, float], wall_s: float) -> float:
        """``wall_s`` measured from mark ``since`` until now, at reference speed."""
        n0, spent0 = since
        n1, spent1 = self.mark()
        window = self.probes[min(n0, max(0, n1 - MIN_PROBES)):n1]
        return (wall_s - (spent1 - spent0)) * REFERENCE_S * len(window) / sum(window)
