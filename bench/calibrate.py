"""Host-speed calibration: a fixed kernel timed on a clock while requests run.

The benchmark's host is shared, and it disturbs timings in two ways
(README.md, "Host noise"):

- The host takes the virtual CPU away (steal): 2-15% of a run's wall
  time, in bursts that double the wall time of the requests they hit.
  Every time here is therefore running time (``running``), which leaves
  steal out.
- While it runs, the CPU's speed drifts by up to ~2x, in phases that last
  from seconds to minutes, because of other work on the host; CPU time
  drifts with it.  Every worker therefore times ``kernel`` right after
  set-up and then every ``EVERY_S`` seconds of wall time, from a SIGALRM
  handler that runs inside whatever request is under way (the worker
  takes the kernel's time off that request).  Sampling by the clock
  covers a request that runs for many seconds as densely as a stream of
  short ones.  run.py scales each time by ``local_scales``, the host's
  mean speed near it, so that timings are reported in seconds of a host
  on which the kernel takes ``REF_S``.

The kernel uses no haarint code, so a change to the program moves the
scaled times as it moves the raw ones.  It does the two kinds of work the
program's hot paths do: a Gauss-Jordan inverse over ``Fraction`` (the
exact solve, the contraction) and small complex numpy QR factorisations
(the samplers).
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

import numpy as np

# about the kernel's running time on the reference host (README.md,
# "Reference figures") while that host was quiet, 1.75-1.9 ms
REF_S = 1.9e-3
EVERY_S = 0.05        # wall-clock period of the kernel while requests run
SETUP_SAMPLES = 7     # kernels timed right after set-up
# The host's speed changes within a second, so a request is scaled by the
# kernels close to it.  Recomputed over the same ten runs per workload,
# windows of 0.1-0.2 s gave (Q3 - Q1)/median of at most 0.065 on every
# timing metric, and 2 s up to 0.11 (README.md, "Host noise").
HALF_WINDOW_S = 0.2   # kernels this close to a request set its scale
MIN_SAMPLES = 4       # ... with the nearest ones, until there are this many

_N = 6
_QR_COUNT = 40


def _matrix():
    x, rows = 12345, []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            x = (x * 1103515245 + 12345) % 2 ** 31
            row.append(Fraction(x % 19 - 9, 1 + x % 7))
        rows.append(row)
    return rows


_A = _matrix()
_Z = (np.random.default_rng(7).standard_normal((_QR_COUNT, 6, 6))
      + 1j * np.random.default_rng(8).standard_normal((_QR_COUNT, 6, 6)))


def kernel():
    """Fixed work: invert _A exactly, then QR-factor _QR_COUNT 6x6 matrices."""
    n = _N
    m = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_A)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    for z in _Z:
        np.linalg.qr(z)
    return m


def clocks() -> tuple[float, float]:
    """(wall clock, CPU time of the whole process), in seconds."""
    return time.perf_counter(), time.process_time()


def running(wall: float, cpu: float) -> float:
    """The time an interval kept the program running: its CPU time, or its
    wall time where threads overlap and CPU time exceeds it.  Time the host
    hands this virtual CPU to another guest (steal) passes on the wall
    clock only, so it is left out."""
    return min(wall, cpu)


def timed_kernel() -> float:
    """Running time of one kernel, with the cyclic collector held off so
    that the program's heap never lands in the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = clocks()
        kernel()
        w1, c1 = clocks()
        return running(w1 - w0, c1 - c0)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel every EVERY_S seconds while started.  ``samples``
    holds (perf_counter at the kernel's start, its running time);
    ``spent`` is the (wall, CPU) time the handler has taken so far, for the
    worker to subtract."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = (0.0, 0.0)
        self._busy = False

    def sample(self):
        self.samples.append((time.perf_counter(), timed_kernel()))

    def _tick(self, signum, frame):
        if self._busy:          # a kernel slower than EVERY_S: skip a tick
            return
        self._busy = True
        w0, c0 = clocks()
        try:
            self.sample()
        finally:
            w1, c1 = clocks()
            self.spent = (self.spent[0] + w1 - w0, self.spent[1] + c1 - c0)
            self._busy = False

    def read(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """``clocks()`` and ``spent``, with no kernel run between them."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return clocks(), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # not SIG_DFL: an alarm already on its way would end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def local_scales(samples: list, spans: list) -> list:
    """The factor that turns each span's time into reference-host time.

    ``samples`` are one process's (time, kernel running time) pairs in
    time order; ``spans`` are (start, end) times on the same clock.  A span's
    factor is REF_S times the mean speed 1/(kernel duration) over the
    kernels within HALF_WINDOW_S of it, widened to the MIN_SAMPLES nearest
    ones.  Time is work divided by speed, and the kernels are spread
    evenly in time, so the mean of the speeds, not of the durations,
    matches a span's total; a kernel slowed by a momentary stall adds a
    speed near 0, never a large one."""
    if not samples:
        raise ValueError("no calibration samples")
    at = [t for t, _ in samples]
    speed = [1.0 / d for _, d in samples]
    need = min(MIN_SAMPLES, len(samples))
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(at, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(at, end + HALF_WINDOW_S)
        while hi - lo < need:
            if hi < len(at) and (lo == 0 or at[hi] - end <= start - at[lo - 1]):
                hi += 1
            else:
                lo -= 1
        out.append(REF_S * sum(speed[lo:hi]) / (hi - lo))
    return out
