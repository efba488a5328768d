"""Host speed probe for the follmer benchmark.

The benchmark shares a few cores of a host with other tenants.  Two things
move its raw wall times that are not the program: time the core is given to
another tenant (steal and time-sharing), and a core that runs slower while it
is ours (shared caches, clock): it switches between speeds up to 2x apart,
within fractions of a second as well as over minutes.  The benchmark therefore times ops in CPU time
(user + system) of its own process, which leaves out the first, and runs a
fixed kernel between its ops, which uses no ``follmer`` code and is the same on
every commit, to measure the second.  It reports times scaled to the speed at
which the kernel takes ``REF_MS`` of CPU time:

    scaled = CPU time * REF_MS / mean(kernel CPU time around the op)

A change to the program moves the measured times and not the kernel, so it
moves the scaled times by the same share; a slower host moves both.  The
program is single-threaded, so on an idle core its CPU time is its wall time.

The kernel mixes what the package spends its time on: an interpreted float
loop, numpy passes over arrays of 2^14 doubles, %r-formatting of CSV rows, a
dict of many small arrays, and a threshold scan in short numpy slices.  On a
2-CPU Xeon host shared with other tenants, these parts slowed down by
different shares at different times (the small arrays by up to 2x, the float
loop by less); this mix, timed between ops, took the drift out of every
subcommand best of the mixes tried.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal kernel CPU time.  On the 2-CPU Xeon host the benchmark was defined
# on (Python 3.11, numpy, one BLAS thread), its mean over a 30 s run ranged
# from 4.6 to 7.0 ms.
REF_MS = 4.0
# Kernel time after each op, as a share of the op's time (at least one
# kernel run per op).
SHARE = 0.1
# Fewest kernel samples an op's scale is taken from.
WINDOW = 15

_VALUES = (np.arange(1 << 14, dtype=float) * 1e-3 + 0.5).tolist()
_ARRAY = np.sin(np.arange(1 << 14, dtype=float))
_TIMES = np.arange(1 << 14) / float(1 << 14)
_WALK = np.cumsum(np.sin(np.arange(1 << 14) * 0.37)) * 0.01


def kernel() -> float:
    s = 0.0
    for x in _VALUES[:1500]:
        s += x * x
    a = _ARRAY
    for _ in range(4):
        a = np.cumsum(np.abs(np.diff(a, prepend=0.0))) / (1 << 14)
    s += float(np.searchsorted(a, a[::32]).sum())
    s += len("".join("%r,%r\n" % (x, x * 0.5) for x in _VALUES[:200]))
    small = {i: np.array([x, 0.5 * x]) for i, x in enumerate(_VALUES[:1000])}
    s += sorted(((k, float(v[0])) for k, v in small.items()), reverse=True)[0][1]
    # a threshold scan in short numpy slices, as band-exit partitions do
    for i in range(0, 16000, 40):
        s += int(np.searchsorted(_TIMES, _TIMES[i] + 0.01, side="right"))
        hit = np.abs(_WALK[i : i + 64] - _WALK[i]) > 0.05
        if hit.any():
            s += int(np.argmax(hit))
    return s


class Probe:
    """Runs the kernel after every op and keeps its CPU times (ms)."""

    def __init__(self):
        self.samples: list[float] = []
        self.ends: list[int] = []  # len(samples) after each op

    def after(self, op_seconds: float) -> None:
        budget = SHARE * op_seconds
        spent = 0.0
        while spent < budget or not spent:
            c0 = time.process_time()
            kernel()
            dt = time.process_time() - c0
            self.samples.append(1000.0 * dt)
            spent += dt
        self.ends.append(len(self.samples))

    def window(self, i: int) -> list[float]:
        """Kernel samples around op ``i``: those run just before and just
        after it, widened by whole ops on both sides to at least WINDOW."""
        last = len(self.ends) - 1
        lo, hi = max(i - 1, 0), i  # ops whose following samples are used
        while True:
            start = self.ends[lo - 1] if lo else 0
            if self.ends[hi] - start >= WINDOW or (lo == 0 and hi == last):
                return self.samples[start : self.ends[hi]]
            lo, hi = max(lo - 1, 0), min(hi + 1, last)

    def factor(self, i: int) -> float:
        """Multiplier from the measured to the scaled time of op ``i``.  The
        host switches speed within a fraction of a second, so the mean, like
        the op's own CPU time, averages over both speeds."""
        return REF_MS / statistics.mean(self.window(i))
