"""A clock that runs at the speed of a fixed reference loop.

On a shared host the interpreter's speed drifts by a factor of two over
minutes and by about ten per cent within a tenth of a second, mostly in
common for all interpreter work, so wall seconds of the same job spread
by a third between runs.  ``HostClock`` times a short fixed reference chunk every
``PERIOD`` seconds from a ``SIGALRM`` handler, in the same thread as the
job, and integrates the speed it measures: ``now()`` advances by
``NOMINAL_CHUNK_S / chunk time`` per wall second.  A span measured on
it reads in *reference seconds*: the seconds it would take on a host
that runs the chunk in ``NOMINAL_CHUNK_S``, which is about the chunk's
median time on the machine the benchmark was written on (2 CPUs, x86-64,
Python 3.11).  Time spent in the chunks is left out of both clocks.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

PERIOD = 0.02
CHUNK_STEPS = 200
NOMINAL_CHUNK_S = 7.0e-4
_ROWS = tuple(((1 << 2048) // 3 >> i) ^ (1 << 2047 - i) for i in range(8))


def reference_chunk() -> int:
    """A fixed mix of the work the package does: a Gray walk over
    2048-bit rows (XOR and popcount), small-integer arithmetic, dict and
    list indexing, shifts of large integers, and binomials C(1023, d) as
    in the GV column."""
    table = {}
    cells = [0] * 64
    acc = best = total = 0
    word = _ROWS[0]
    for i in range(1, CHUNK_STEPS):
        word ^= _ROWS[((i & -i).bit_length() - 1) & 7]
        best = max(best, word.bit_count())
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
        cells[i & 63] += acc & 7
        acc ^= (word >> (i & 1023)) & 0xFFFF
        if i & 15 == 0:
            total += math.comb(1023, 200 + i)
    return acc + best + total.bit_length()


class HostClock:
    """Reference seconds, sampled at job boundaries by ``sample()`` and
    inside jobs while ``ticking()`` is active."""

    def __init__(self):
        self.paused = 0.0  # wall seconds spent in reference chunks
        self._busy = False
        speed = self._measure_speed()
        # (reference seconds, wall time, speed) at the last sample, read
        # and replaced as one tuple because the handler can run between
        # any two bytecodes
        self._state = (0.0, time.perf_counter(), speed)

    @staticmethod
    def _measure_speed() -> float:
        t0 = time.perf_counter()
        reference_chunk()
        return NOMINAL_CHUNK_S / (time.perf_counter() - t0)

    def sample(self) -> None:
        """Advance the clock to now at the speed of the last sample, then
        time one chunk for the speed from here on.  Between samples the
        clock runs at a constant rate, so it never goes back."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            ref, wall, speed = self._state
            new_speed = self._measure_speed()
            t1 = time.perf_counter()
            self._state = (ref + (t0 - wall) * speed, t1, new_speed)
            self.paused += t1 - t0
        finally:
            self._busy = False

    def now(self) -> float:
        ref, wall, speed = self._state
        return ref + (time.perf_counter() - wall) * speed

    @contextmanager
    def ticking(self):
        """Sample every PERIOD seconds for the length of the block."""
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def measuring(self):
        """Time the block on both clocks; the yielded list receives
        (wall seconds, reference seconds) when the block ends."""
        result: list[float] = []
        self.sample()
        paused, wall, ref = self.paused, time.perf_counter(), self.now()
        with self.ticking():
            yield result
        self.sample()
        result += [time.perf_counter() - wall - (self.paused - paused), self.now() - ref]
