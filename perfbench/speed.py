"""Machine-speed probe: scales measured times to a fixed reference speed.

The benchmark shares its host's CPUs.  There, one request timed again and
again over three minutes varied by 15-21 % (coefficient of variation), and
whole 30 s windows ran up to 40 % slower than others.  A plain wall time
therefore says more about the neighbours than about the program.

While a probe is active, a SIGALRM timer runs a small fixed calibration
kernel (``kernel``, about 0.3 ms) every ``INTERVAL`` seconds on the
benchmark's thread and records how long it took.  ``scaled(t0, t1)`` takes
the interval ``[t0, t1]``, removes the kernel time spent inside it, and
multiplies by ``REF_KERNEL_S`` over the mean kernel time sampled around it.
The result is the interval's length at the reference speed, in seconds.
Dividing out the sampled speed cut the request-to-request variation above to
about 6 %.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02
WINDOW = 0.5  # kernel samples this far either side of an interval count too
# About the kernel's median time on the 2-CPU machine the seed numbers come
# from (Python 3.11.7); scaled times are seconds at that machine's speed.
REF_KERNEL_S = 0.00025
_MODULUS = 10**120 + 7


def kernel():
    """Fixed work like the program's hot paths: big integers, ``Fraction``
    normalisation, and small tuples and dicts."""
    acc, x = Fraction(0), 3**200
    for i in range(1, 40):
        acc += Fraction(i, i + 7)
        x = x * x % _MODULUS
    table = {}
    for i in range(300):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + i * i
    return acc, x, sorted(table.items())


class SpeedProbe:
    """Context manager sampling the kernel's speed on a SIGALRM timer."""

    def __init__(self):
        self.starts = []  # perf_counter at each sample's start, ascending
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t = perf_counter()
        kernel()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0, t1):
        """Length of ``[t0, t1]`` without sampling time, at the reference speed."""
        lo, hi = (bisect.bisect_left(self.starts, t) for t in (t0, t1))
        inside = sum(self.durations[lo:hi])
        lo, hi = (bisect.bisect_left(self.starts, t) for t in (t0 - WINDOW, t1 + WINDOW))
        if lo == hi:
            raise RuntimeError("no speed samples near the interval")
        return (t1 - t0 - inside) * REF_KERNEL_S / statistics.fmean(self.durations[lo:hi])
