"""Host-speed reference: a fixed kernel sampled all through a run.

The benchmark's host is a share of a larger machine whose speed for one
thread changes by up to about 2x, in spells of a fraction of a second to a
minute, while process CPU time stays equal to wall time. Wall-clock timings
of the program therefore move with the neighbours' load. ``HostRef`` runs a
fixed reference kernel from a ``SIGALRM`` handler every ``INTERVAL_S``
seconds of wall time, in the benchmark's own process and thread, between
the program's bytecodes. The kernel never calls gridvolt, so a change to
the program cannot change it; its mean duration over a phase says how fast
the host ran during that phase.

``corrected(start, end)`` gives a phase's wall time minus the time spent in
the kernel, scaled by ``NOMINAL_S / mean kernel time``: the time the phase
would have taken had the host run at the reference speed all through.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left

import numpy as np

INTERVAL_S = 0.05
WARMUP_CALLS = 20   # the first calls of a fresh process run slow
# a fixed scale: the kernel's median time, run back to back, on the 2-vCPU
# Intel Xeon VM (Python 3.11, one BLAS thread) the bounds were set on
NOMINAL_S = 6.7e-4


class HostRef:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((192, 141))
        self.b = rng.standard_normal((141, 141))
        self.starts = array("d")
        self.durations = array("d")

    def kernel(self) -> float:
        """An interpreted loop over floats and a dict, then a small dense
        matmul, ReLU and tanh: the two kinds of work of the program."""
        acc, table = 0.0, {}
        for k in range(1000):
            acc += (k * 0.5) ** 2 % 7.0
            table[k & 31] = acc
        c = self.a @ self.b
        np.maximum(c, 0.0, out=c)
        return acc + float(np.tanh(c).sum())

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        for _ in range(WARMUP_CALLS):
            self.kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def samples(self, start: float, end: float) -> list[float]:
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        return list(self.durations[lo:hi])

    def corrected(self, start: float, end: float) -> float:
        """Wall time of ``[start, end)`` without the kernel's own time, at
        the reference speed."""
        own = self.samples(start, end)
        return (end - start - sum(own)) / self.slowdown(own)

    @staticmethod
    def slowdown(durations) -> float:
        """Mean kernel time over ``NOMINAL_S``; 1.0 with no samples."""
        if not durations:
            return 1.0
        return sum(durations) / len(durations) / NOMINAL_S
