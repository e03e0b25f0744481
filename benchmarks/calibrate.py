"""Stdlib-only speed reference for normalising wall times.

The machines this benchmark runs on change speed by tens of percent,
over seconds and over minutes, which would swamp any change to nctorus.
A fixed kernel measures that drift.  While jobs run, a timer signal takes
a kernel sample every INTERVAL_S of wall time, inside jobs as well as
between them, and the sample's own time is subtracted from the job it
interrupted.  A job's time is reported as wall seconds * K_REF / K, where
K is the trimmed mean of the kernel samples taken from one job length
before the job to one job length after it, and at least the NEAREST
samples around it.  The machine switches speed within a second, so near
samples track a job far better than a whole-run average does, and a long
job, which averages the speed over its length, gets a window as long.
K_run, the trimmed mean over the whole run, is reported with it.

The kernel never imports nctorus.  It mixes complex arithmetic, cmath.exp
and small tuple and dict building in the shape of a direct q-sum (frozen
dataclass properties, a loop over term records, polynomial evaluation),
because a kernel that exercises the same interpreter paths as the jobs
tracks their speed more closely than a tight arithmetic loop does.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

# Mean seconds of one kernel sample on the reference machine (2-core
# x86-64 VM, Python 3.11.7).  Only a unit: changing it rescales every time.
K_REF = 0.0070
# One sample (about 6 ms) every INTERVAL_S is about 8% of the run.
INTERVAL_S = 0.08
NEAREST = 8
# Share of samples dropped at each end; preemptions make a few samples
# several times too slow.
TRIM = 0.125


@dataclass(frozen=True)
class _Labels:
    n: int
    m: int
    k: int
    l: int
    theta: float

    @property
    def a(self) -> float:
        return self.n + self.m * self.theta

    @property
    def b(self) -> float:
        return self.k - self.l * self.theta

    @property
    def big_m(self) -> int:
        return self.n * self.l + self.m * self.k


@dataclass(frozen=True)
class _Term:
    poly: tuple[complex, ...]
    sigma: complex
    c: complex
    mu: int


def _evaluate(terms: tuple[_Term, ...], x: float, mu: int) -> complex:
    acc = 0j
    for t in terms:
        if t.mu == mu:
            p = 0j
            for coef in reversed(t.poly):
                p = p * x + coef
            acc += p * cmath.exp(-0.5 * t.sigma * x * x - t.c * x)
    return acc


def kernel(deltas: int = 10) -> tuple[complex, int]:
    p = _Labels(2, 3, 3, 5, 0.2)
    f = tuple(_Term((1 + 0j, 0.1j), complex(1.1, 0.1 * i), complex(0.1, -0.05 * i), i % 3)
              for i in range(3))
    g = tuple(_Term((1 + 0j,), complex(0.9, -0.1 * i), complex(-0.1, 0.02 * i), i % 5)
              for i in range(5))
    by_class: dict[tuple[int, int], complex] = {}
    for delta in range(deltas):
        for q in range(-60, 61):
            x = p.a * 0.3 - (p.a / p.m) * q + (p.l * p.a / (p.m * p.big_m)) * delta
            y = p.a * 0.3 + (p.b / p.l) * q - (p.b / p.big_m) * delta
            key = ((delta - q) % p.m, q % p.l)
            by_class[key] = by_class.get(key, 0j) + _evaluate(f, x, key[0]) * _evaluate(g, y, key[1])
    return sum(by_class.values()), len(by_class)


def _trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Calibration:
    """Kernel samples of one run and the factors they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        # Called with each timer sample's seconds; the tracer uses it to
        # keep kernel time out of the self time of the span it interrupted.
        self.observer = None

    def sample(self) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        self.samples.append(elapsed)
        return elapsed

    def _on_timer(self, signum, frame) -> None:
        elapsed = self.sample()
        if self.observer is not None:
            self.observer(elapsed)

    @contextlib.contextmanager
    def sampling(self):
        """Sample every INTERVAL_S of wall time, interrupting jobs if need be."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_time(self, start: float, end: float) -> float:
        """Seconds of the samples that started inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.samples[lo:hi])

    @property
    def k_run(self) -> float:
        return _trimmed_mean(self.samples)

    def factor(self, start: float, end: float) -> float:
        """K_REF / K for a wall time measured over [start, end]."""
        length = end - start
        lo = bisect.bisect_left(self.starts, start - length)
        hi = bisect.bisect_right(self.starts, end + length)
        if hi - lo < NEAREST:
            split = bisect.bisect_left(self.starts, start)
            hi = min(len(self.samples), max(split + NEAREST // 2, NEAREST))
            lo = max(0, hi - NEAREST)
        return K_REF / _trimmed_mean(self.samples[lo:hi])
