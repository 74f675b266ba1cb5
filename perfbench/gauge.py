"""Machine-speed gauge: a fixed reference kernel timed around every step.

On a shared host the speed of the whole machine drifts, by up to a quarter
over seconds to minutes, which swamps the difference between two runs of the
same code.  The gauge times a fixed kernel shaped like canf's hot path (a
100 x 100 Hermitian eigendecomposition, a complex manifold projection and an
interpreter loop) once before every step and once after the last.  Each
step's time is multiplied by ``REF_NOMINAL_MS`` over the mean of the kernel
times just before and just after it, which reads it at one fixed machine
speed.  The kernel never touches canf, so a change to canf moves the scaled
times as it moves the raw ones.  A small kernel that fits in cache tracked
the drift poorly; this one follows ``localize`` to within a few percent.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the reference box (2 cores, Python 3.11.7, numpy
#: 2.4.6, single-threaded OpenBLAS 0.3.31), in ms.
REF_NOMINAL_MS = 6.0


class Gauge:
    """Kernel timings taken during one phase of a run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2411_01529)
        a = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        self._h = a + a.conj().T
        self._manifold = np.exp(1j * rng.standard_normal((1200, 100)))
        self._kernel()
        self.samples_ms: list[float] = []
        self.spent_s = 0.0

    def _kernel(self) -> None:
        np.linalg.eigh(self._h)
        proj = self._manifold.conj() @ self._h[:, :90]
        np.einsum("ij,ij->i", proj, proj.conj())
        total = 0
        for i in range(5000):
            total += i * i

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            self._kernel()
            elapsed = time.perf_counter_ns() - t0
            self.samples_ms.append(elapsed / 1e6)
            self.spent_s += elapsed / 1e9

    @property
    def ref_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def scale(self) -> float:
        """Factor that turns a time measured here into one at nominal speed."""
        return REF_NOMINAL_MS / self.ref_ms

    def step_scales(self) -> list[float]:
        """One factor per interval between consecutive samples."""
        s = self.samples_ms
        return [2.0 * REF_NOMINAL_MS / (a + b) for a, b in zip(s, s[1:])]
