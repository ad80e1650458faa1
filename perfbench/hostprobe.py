"""Host-speed probe that runs inside the timed search.

On a shared host the same search can take anywhere from 1.3 s to 2.3 s,
because the speed of the CPU the process gets changes from one second to
the next (other tenants' load, not this process).  Wall times of whole
30-second runs then differ by 15-20% between runs of the same code, which
hides the changes the benchmark is meant to show.

While a search runs, a SIGALRM handler fires every ``PERIOD_S`` seconds and
times a fixed kernel of small numpy operations and Python arithmetic, the
same mix the search spends its time on.  The kernel's mean time over the
search measures how fast the host was during it, so

    scaled time = (wall time - time spent in the probe) * REFERENCE_S / mean kernel time

is the search's time on a host where the kernel takes ``REFERENCE_S``.
Repeats of one search on a noisy host gave a coefficient of variation of
0.15 in wall time and 0.04 in scaled time.  The probe costs about 1% of
the search; its own time is subtracted.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
# The kernel's time on the reference host: a 2-core x86-64 VM, Python 3.11,
# numpy 2.4, in its usual (slower) state.
REFERENCE_S = 5e-4


class HostProbe:
    """Context manager: samples the kernel time every ``PERIOD_S`` seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vectors = rng.standard_normal((3, 3)) + 0.1
        self._frame = rng.standard_normal((2, 3))
        self.samples: list[float] = []
        self.wall_s = 0.0
        self._start = 0.0
        self._previous = None

    def _kernel(self) -> float:
        total = 0.0
        for i in range(60):
            v = self._vectors[i % 3]
            u = v / np.linalg.norm(v)
            total += float(u @ v) + float((self._frame @ u)[0])
        return total

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        self._sample()  # at least one sample, however short the interval
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)

    def scaled_s(self) -> float:
        """Wall time of the last interval, less the probe, at reference host speed."""
        spent = sum(self.samples)
        return (self.wall_s - spent) * REFERENCE_S / (spent / len(self.samples))
