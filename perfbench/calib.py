"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same operation's wall time drifts by 10-30 % over
minutes, as other tenants load the host. ``reference()`` is fixed numpy work
shaped like egowarp's own: bilinear gathers and elementwise maths on a 128²
RGB image, then a chain of calls on 8x8 arrays where interpreter overhead
dominates, as in ``gradcheck`` and the coarse pyramid levels. It does not
import egowarp, so a change to the program cannot change its time. Timed
at regular moments through a run (``Sampler``), it gives each operation's
time in units of the machine's speed while that operation ran.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SIZE = 128
SMALL_CALLS = 150

_RNG = np.random.default_rng(12345)
_IMG = _RNG.random((SIZE, SIZE, 3))
_UV = (np.stack(np.meshgrid(np.arange(SIZE, dtype=float), np.arange(SIZE, dtype=float)), -1)
       + _RNG.uniform(-3.0, 3.0, (SIZE, SIZE, 2)))
_SMALL = _RNG.random((8, 8))


def reference() -> float:
    """One call of the fixed work, about 10 ms on a 2-CPU Xeon KVM guest."""
    acc = 0.0
    for shift in (0.25, 0.5, 0.75):
        uv = _UV * (1.0 + 0.01 * shift) + shift
        u, v = uv[..., 0], uv[..., 1]
        inside = (u >= 0) & (u < SIZE - 1) & (v >= 0) & (v < SIZE - 1)
        u0 = np.clip(np.floor(u), 0, SIZE - 2).astype(np.intp)
        v0 = np.clip(np.floor(v), 0, SIZE - 2).astype(np.intp)
        fu = (u - u0)[..., None]
        fv = (v - v0)[..., None]
        out = ((1 - fu) * (1 - fv) * _IMG[v0, u0] + fu * (1 - fv) * _IMG[v0, u0 + 1]
               + (1 - fu) * fv * _IMG[v0 + 1, u0] + fu * fv * _IMG[v0 + 1, u0 + 1])
        res = np.abs(out - _IMG) * inside[..., None]
        acc += float(np.sum(np.sqrt(res + 1e-6) * np.exp(-res)))
    x = _SMALL
    for _ in range(SMALL_CALLS):
        x = np.tanh(x @ _SMALL.T + 0.1) * 0.5 + np.abs(x - x.mean())
        acc += float(x[3, 4])
    return acc


class Sampler:
    """Times reference() every ``period`` seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so it interleaves
    with whatever the process is doing, a 16 s solve included, and nothing
    runs alongside it. Each tick calls reference() ``calls`` times and
    records (start, seconds spent in the tick, median seconds per call).
    """

    def __init__(self, period: float = 0.5, calls: int = 3) -> None:
        self.period = period
        self.calls = calls
        self.ticks: list[tuple[float, float, float]] = []
        self._busy = False
        self._old = None

    def tick(self, *_) -> None:
        if self._busy:  # a tick that outlasts the period is not nested
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            times = []
            for _ in range(self.calls):
                t = time.perf_counter()
                reference()
                times.append(time.perf_counter() - t)
            self.ticks.append((t0, time.perf_counter() - t0, statistics.median(times)))
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.tick()

    def paused(self, start: float, end: float) -> float:
        """Seconds spent in ticks that started within [start, end)."""
        return sum(spent for t0, spent, _ in self.ticks if start <= t0 < end)

    def relative(self, start: float, end: float) -> float:
        """(end - start - paused) over the median reference time of the
        ticks within one period of the interval; the nearest tick if none."""
        near = [ref for t0, _, ref in self.ticks
                if start - self.period <= t0 <= end + self.period]
        if not near:
            near = [min(self.ticks, key=lambda t: min(abs(t[0] - start), abs(t[0] - end)))[2]]
        return (end - start - self.paused(start, end)) / statistics.median(near)
