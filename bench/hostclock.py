"""A clock that counts seconds at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x, in swings that last from under a second to minutes; CPU time tracks
wall time through them, so they are the host, not the scheduler.  A HostClock
takes a calibration sample of about a millisecond -- a fixed loop of stdlib
``Fraction`` and big-integer arithmetic, no ghn code -- every ``interval``
seconds from a SIGALRM interval timer, so it samples inside long calls too,
and counts each stretch of time between two samples divided by the host's
slowdown over it:

    slowdown = (median of the last 5 sample times) / REFERENCE_SAMPLE_S

so a second of work on a host running at half speed counts as half a second.
The samples themselves are not counted, and they take about 4% of the run.

The calibration loop uses only the standard library, so a change to ghn does
not change it: the clock's reading of ghn's work moves with ghn's speed and
not with the host's.  ``raw_now`` gives the plain wall time for comparison.
Only one HostClock may run in a process, in its main thread.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# One calibration sample on this benchmark's reference host (2-core x86-64
# container, Python 3.11.7, at its fast end); readings are in its seconds.
REFERENCE_SAMPLE_S = 0.0009
INTERVAL_S = 0.025
SMOOTHING = 5


def calibration_sample() -> float:
    """Seconds taken by a fixed loop of small Fraction arithmetic and big-integer products.

    ghn spends its time in both: interpreter-bound Fraction operations on
    small numbers, and multiplies and gcds of integers of thousands of bits.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for j in range(1, 120):
        total += Fraction(1, j) * Fraction(j % 7 + 1, j % 5 + 2)
    big, mod = _BIG
    for j in range(2):
        total += (big * mod) % (mod + j)
    return time.perf_counter() - start


_BIG = (3**4000, 7**3000)


def slowdown(samples: int = SMOOTHING) -> float:
    """The host's slowdown against the reference, from a median of fresh samples."""
    return statistics.median(calibration_sample() for _ in range(samples)) / REFERENCE_SAMPLE_S


class HostClock:
    """Monotonic seconds at reference host speed, calibration time excluded.

    The alarm handler is the only writer of the clock's state, and it replaces
    the whole checkpoint tuple at once.  A stretch is counted at the slowdown
    that readings during it used, so readings never go back.  The process must
    stop the clock before it exits: a SIGALRM that arrives after the handler is
    gone kills the interpreter.
    """

    def __init__(self):
        self.recent = [calibration_sample() for _ in range(SMOOTHING)]
        # (wall time of the checkpoint, reference seconds, slowdown, wall seconds), samples excluded
        self.checkpoint = (time.perf_counter(), 0.0, self._slowdown(), 0.0)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _slowdown(self) -> float:
        return statistics.median(self.recent) / REFERENCE_SAMPLE_S

    def _on_alarm(self, _signum, _frame) -> None:
        mark, elapsed, current, raw = self.checkpoint
        stretch = time.perf_counter() - mark
        self.recent = self.recent[1:] + [calibration_sample()]
        self.checkpoint = (time.perf_counter(), elapsed + stretch / current, self._slowdown(), raw + stretch)

    def _read(self) -> tuple[float, tuple]:
        """The time and the checkpoint it follows, read again if a sample came in between."""
        while True:
            checkpoint = self.checkpoint
            t = time.perf_counter()
            if checkpoint is self.checkpoint:
                return t, checkpoint

    def now(self) -> float:
        """Reference seconds since the clock started."""
        t, (mark, elapsed, current, _) = self._read()
        return elapsed + (t - mark) / current

    def raw_now(self) -> float:
        """Wall seconds since the clock started, samples excluded."""
        t, (mark, _, _, raw) = self._read()
        return raw + t - mark

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class PlainClock:
    """Plain wall seconds, for passes that calibration samples must not disturb."""

    def now(self) -> float:
        return time.perf_counter()

    raw_now = now

    def stop(self) -> None:
        pass
