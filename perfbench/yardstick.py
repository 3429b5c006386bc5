"""A fixed reference kernel, timed while the solves run, that solve times are divided by.

On a shared host the speed of the machine drifts by up to 1.7x over tens of
seconds, so the same work takes 8 s in one run and 14 s in the next. While
it is active, the yardstick interrupts the process every PERIOD seconds
(SIGALRM; Python runs the handler between bytecodes, so never inside a numpy
call) and times one sample of a kernel of fixed work. The drift slows the
kernel too, so dividing a solve time by the kernel's median time cancels
most of it. The time the samples take is counted in `spent`, and callers
subtract it from what they measure.

The kernel mixes the kinds of work the solvers do: an interpreted Python
loop, short numpy vector operations, dense matrix-vector products at the
size of the Table-1 instance (n = 305), sparse CSR products and a dense LU.
Its inputs are fixed and never depend on the workload seed or on mpcckit.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse

PERIOD = 0.5  # seconds between samples; one sample takes about 20 ms


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._v = rng.random(305)
        self._q = rng.random((305, 305))
        self._s = scipy.sparse.random(600, 305, density=0.01,
                                      random_state=1, format="csr")
        self._st = self._s.T.tocsr()
        self._lu = rng.random((200, 200))
        self.samples = []
        self.spent = 0.0  # seconds taken by samples, to subtract
        self._kernel()  # warm-up

    def _kernel(self) -> float:
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        v = self._v
        x = v.copy()
        for _ in range(600):
            x = np.maximum(0.999 * x - 0.001, -1.0)
            acc += float(x @ v)
        x = v.copy()
        for _ in range(400):
            x = self._q @ x
            x /= x[0]
        y = v.copy()
        for _ in range(200):
            y = y + 1e-3 * (self._st @ (self._s @ y))
        for _ in range(4):
            scipy.linalg.lu_factor(self._lu)
        return acc + float(x[-1] + y[-1])

    def _tick(self, signum, frame) -> None:
        tic = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - tic)
        self.spent += time.perf_counter() - tic

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def median(self, first: int = 0) -> float:
        """Median time of samples[first:]; takes one if there is none."""
        if len(self.samples) <= first:
            self._tick(None, None)
        return statistics.median(self.samples[first:])
