"""Machine-speed calibration for the timings of a run.

On a shared 2-vCPU VM, the same code on the same inputs runs up to a third
faster or slower from one second to the next, and CPU time moves with wall
time, so medians over a run's passes do not cancel it.  Every run therefore
also times a fixed kernel that never changes and does the package's kind of
work: orbits of roots under the simple reflections of E6 (tuple arithmetic
and set lookups) and a brute-force search for the automorphisms of its
Cartan matrix (permutations and index loops).

``Sampler`` times the kernel from a SIGALRM timer every ``INTERVAL_S``
while requests run, so the samples cover long requests too, and provides a
clock that leaves out the time its handler took.  Each
request is scaled by ``REFERENCE_S / median kernel time`` over the samples
taken from ``WINDOW_S`` before it starts to ``WINDOW_S`` after it ends:
reported times are seconds at the speed where one kernel takes
``REFERENCE_S``.  A change to the package cannot move the kernel, so its
speed-up shows in full.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

# The kernel's median time between requests on the 2-vCPU Xeon VM the
# benchmark was written on, with Python 3.11.7.
REFERENCE_S = 0.0037
INTERVAL_S = 0.05
WINDOW_S = 0.25
BURST = 3

_CARTAN_E6 = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)
_ORBIT_SIZE = 144


def _orbit(start: tuple[int, ...]) -> int:
    n = len(_CARTAN_E6)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i, row in enumerate(_CARTAN_E6):
                w = list(v)
                w[i] -= sum(row[j] * v[j] for j in range(n))
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def _automorphisms() -> int:
    n = len(_CARTAN_E6)
    found = 0
    for perm in itertools.permutations(range(n)):
        if all(_CARTAN_E6[perm[i]][perm[j]] == _CARTAN_E6[i][j] for i in range(n) for j in range(n)):
            found += 1
    return found


def _kernel() -> float:
    start = time.perf_counter()
    size = _orbit((1, 0, 0, 0, 0, 0)) + _orbit((0, 1, 0, 0, 0, 0))
    found = _automorphisms()
    elapsed = time.perf_counter() - start
    if (size, found) != (_ORBIT_SIZE, 2):
        raise RuntimeError(f"calibration kernel computed {size} vectors and {found} automorphisms")
    return elapsed


def kernel_seconds() -> float:
    """Median time of one kernel over a short burst."""
    return statistics.median(_kernel() for _ in range(BURST))


class Sampler:
    """Times the kernel every INTERVAL_S while active (main thread only).

    ``clock()`` is ``perf_counter`` minus the time spent in the sampler, so
    intervals read from it leave the sampler out; sample times are on the
    same clock.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock(), kernel seconds)
        self.stolen = 0.0

    def clock(self) -> float:
        stolen = self.stolen
        now = time.perf_counter()
        while stolen != self.stolen:  # the handler ran in between
            stolen = self.stolen
            now = time.perf_counter()
        return now - stolen

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start - self.stolen, _kernel()))
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(kernel_times: list[float]) -> float:
    """Factor that turns seconds measured next to these kernel times into
    reference seconds."""
    return REFERENCE_S / statistics.median(kernel_times)


def calibrated(requests: list, samples: list) -> list[float]:
    """Reference seconds of each (start, end, seconds) request, scaled by
    the samples around it; ``samples`` is a Sampler's, in time order."""
    times = [t for t, _ in samples]
    out = []
    for start, end, seconds in requests:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        near = [k for _, k in samples[lo:hi]] or [k for _, k in samples]
        out.append(seconds * scale(near))
    return out
