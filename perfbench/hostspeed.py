"""Host-speed normalisation of operation times.

The host's speed drifts by up to 2x, over periods from well under a second
to minutes; CPU time tracks wall time, so this is not scheduling.  Raw
medians of identical runs spread by 25% between runs.  Each operation is
therefore timed together with a fixed pure-Python calibration burst, run
before the operation, after it and, on SIGALRM every 20 ms, during it.  The
operation's time is reported in reference seconds:

    (wall seconds - seconds spent in bursts) / mean(burst seconds) x REFERENCE_S

that is, the time at the speed where one burst takes REFERENCE_S (about the
nominal speed of a 2-core x86-64 machine running CPython 3.11).  Sampling
during the operation matters for operations longer than ~0.1 s, whose speed
the bracketing bursts alone do not represent.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 2.5e-4
PERIOD_S = 0.02
BRACKET = 8  # bursts timed before and after each operation


def burst() -> None:
    """Fraction arithmetic, tuple keys and dict stores, like the engine's inner loops."""
    acc = Fraction(0)
    table = {}
    for i in range(25):
        f = Fraction(i % 7 + 1, i % 5 + 1)
        acc = acc + f * f - acc / 3
        table[(i % 97, i % 3)] = acc


def _timed_bursts(n: int) -> list[float]:
    out = []
    for _ in range(n):
        start = time.perf_counter()
        burst()
        out.append(time.perf_counter() - start)
    return out


class HostSpeed:
    """Times operations in reference seconds; one instance per process."""

    def __init__(self):
        self._during: list[float] = []
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        self._before = _timed_bursts(BRACKET)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        burst()
        spent = time.perf_counter() - start
        self._during.append(spent)
        self._stolen += spent

    def measure(self, fn):
        """Run fn(); return (its result, the exception it raised or None,
        reference seconds, wall seconds without the bursts)."""
        self._during.clear()
        self._stolen = 0.0
        out = error = None
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts a raising operation as failed
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        after = _timed_bursts(BRACKET)
        slowness = statistics.fmean(self._before + self._during + after) / REFERENCE_S
        self._before = after
        raw = elapsed - self._stolen
        return out, error, raw / slowness, raw
