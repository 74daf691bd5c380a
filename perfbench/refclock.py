"""Times rescaled to a fixed reference speed.

The benchmark runs on a shared host whose speed drifts: a fixed pure-Python
loop runs up to 1.7 times slower in some seconds than in others, in bursts
of one to three seconds on top of slower swings over minutes.  Raw wall
times of the same pass spread by about 25 % from run to run.

While a pass runs, a SIGALRM every INTERVAL_S runs the reference loop twice.
The first run is not timed: it refills the caches with the loop's own data,
which braidlex has just pushed out.  The second, warm run is the sample, so
a sample measures the host's speed and not braidlex's working set.  Each
stretch of program time up to a sample is rescaled by REF_S / (that
sample's time): the stretch counts as the time it would have taken at the
speed where the warm loop takes REF_S.  Both runs of a tick are left out of
the rescaled time.  The loop makes no container objects, so it does not
advance the garbage collector.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: The warm reference loop's time at the nominal speed: rescaled seconds are
#: seconds at a speed where the loop takes this long.
REF_S = 1e-3
INTERVAL_S = 0.05

_KEYS = tuple((i & 255, i % 7) for i in range(1536))
_TABLE = dict.fromkeys(_KEYS, 3)
_BIG = 7 ** 300            # 843 bits, like count's 238-digit totals
_WORD = bytes(range(1, 41))


def reference_loop() -> int:
    """About 1 ms of the four workloads' mix: tuple hashing and dict probes,
    one- and many-limb integer arithmetic, bytes slicing."""
    acc = 0
    big = 0
    table = _TABLE
    word = _WORD
    for key in _KEYS:
        acc += table[key]
        acc ^= key[0] << 40
        big += _BIG
        k = key[1]
        acc += len(word[:k] + word[k + 1:])
    return acc + (big & 1)


def rescale(seconds: float, samples: list[float]) -> float:
    """``seconds`` at the nominal speed, with the mean speed of ``samples``."""
    return seconds * sum(REF_S / s for s in samples) / len(samples)


class Sampler:
    """Samples the reference loop during a ``with`` block (main thread only)."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        # (tick start, tick time with both loop runs, warm sample time)
        self.marks: list[tuple[float, float, float]] = []
        self.start = self.stop = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_loop()             # cache refill, not timed
        t1 = perf_counter()
        reference_loop()
        t2 = perf_counter()
        self.marks.append((t0, t2 - t0, t2 - t1))

    def __enter__(self) -> Sampler:
        self.marks = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.stop = perf_counter()
        self._tick(None, None)       # a last sample covers the tail

    @property
    def sampled_s(self) -> float:
        """Time spent in ticks inside the block."""
        return sum(t for _, t, _ in self.marks[:-1])

    @property
    def slowdown(self) -> float:
        """Mean sample time over REF_S."""
        return sum(s for _, _, s in self.marks) / len(self.marks) / REF_S

    def rescaled(self) -> float:
        """Program time inside the block, rescaled stretch by stretch."""
        total, begin = 0.0, self.start
        for t0, tick, s in self.marks:
            total += (min(t0, self.stop) - begin) * REF_S / s
            begin = t0 + tick
        return total
