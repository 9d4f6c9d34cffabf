"""Machine-speed probe: host times rescaled to a reference machine speed.

On a shared machine the host time of the same work is not steady: on the
2-CPU machine the benchmark was defined on, a fixed loop ran at two speeds
about 1.7x apart, switching several times a second, with the share of slow
time drifting from minute to minute.  SpeedProbe samples that speed inside
the measurement itself: every INTERVAL_S a SIGALRM handler times one short
fixed loop.  The measured span, less the handler's own time, is rescaled by
the mean sampled speed to the reference speed at which the loop takes
REFERENCE_S.  The loop mixes what the simulator does most (heap pushes and
pops, dict updates, float arithmetic, string formatting) and uses no rtosim
code, so no change to rtosim can move it.
"""
from __future__ import annotations

import heapq
import signal
import statistics
import time

INTERVAL_S = 0.02
#: host seconds of one loop_seconds() at the reference speed, about the fast
#: state of the machine the benchmark was defined on
REFERENCE_S = 0.0004


def loop_seconds(n: int = 500) -> float:
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    lines = []
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 63] = table.get(i & 63, 0.0) * 0.5 + i
        if i % 3 == 0:
            lines.append(f"{heapq.heappop(heap)[0]},{table[i & 63]:.6f}")
    return time.perf_counter() - start


class SpeedProbe:
    """Times the block it wraps.  After it: `seconds` is the host time, less
    the probe's own; `reference_seconds` is that time at the reference
    speed.  Main thread only, as it installs a SIGALRM handler."""

    def __enter__(self) -> "SpeedProbe":
        self._samples: list[float] = []
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(loop_seconds())
        self._stolen += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.seconds = time.perf_counter() - self._start - self._stolen
        signal.signal(signal.SIGALRM, self._previous)
        if not self._samples:  # shorter than one interval
            self._samples.append(loop_seconds())
        self.reference_seconds = self.seconds * statistics.fmean(
            REFERENCE_S / sample for sample in self._samples)
