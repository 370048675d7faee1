"""Times at a fixed reference speed, for steady figures on a shared machine.

On a machine whose cores are shared with other tenants, the same pure-Python
code runs at very different speeds from one second to the next: on the 2-vCPU
Intel Xeon VM this benchmark was written on, a fixed loop took 32 ms or 52 ms
depending on what ran next to it, with switches every few seconds.  A
wall-clock benchmark there moves by 30% between two sets of runs of the same
code.

`Pace` times a short fixed pure-Python snippet, `reference()`, that does not
touch the library: every PERIOD_S of wall time (from a SIGALRM interval timer)
and on request, just before and just after each timed item.  Each sample r
gives the current speed as REFERENCE_S / r.  A span's time at reference speed
is its wall time, less the time the probe itself took inside the span, times
the mean speed over the samples from just before to just after the span.  A
change to the library changes the wall time of an item but not the speed the
samples measure, so its gain or loss shows in full; a change in the machine's
speed changes both, and cancels.
"""

from __future__ import annotations

import signal
import time

# The snippet's time on an uncontended core of the machine described above,
# so that reference-speed figures read as wall-clock figures on that machine
# when it is quiet.  It only scales the figures; any fixed value would do.
REFERENCE_S = 0.17e-3
PERIOD_S = 0.01


def reference() -> int:
    """Fixed pure-Python work of the kinds the library does: tuples, dicts,
    lists, small and big integers.  About REFERENCE_S on the machine above."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    big = (1 << 200) - 12345
    for i in range(400):
        key = (i % 37, i & 7)
        table[key] = table.get(key, 0) + i
        acc ^= big >> (i % 64)
        acc += [i, i + 1, i + 2][i % 3]
    return acc + len(table)


class Pace:
    """Speed samples over a run; use as a context manager around the run."""

    def __init__(self) -> None:
        self.speeds: list[float] = []  # REFERENCE_S / r, per sample
        self.probe_s: list[float] = []  # time taken by timer samples so far, per sample
        self._timer_s = 0.0
        self._sampling = False

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self) -> int:
        """Take one sample now; return its index."""
        self._sampling = True
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self._sampling = False
        self.speeds.append(REFERENCE_S / took)
        self.probe_s.append(self._timer_s)
        return len(self.speeds) - 1

    def _on_timer(self, signum, frame) -> None:
        if self._sampling:  # an explicit sample is running; it measures the same thing
            return
        start = time.perf_counter()
        self.sample()
        self._timer_s += time.perf_counter() - start

    def scale(self, wall_s: float, first: int, last: int) -> float:
        """Factor from the wall time of a span to its time at reference
        speed, for a span that began after sample `first` and ended before
        sample `last`."""
        if wall_s <= 0:
            return 1.0
        window = self.speeds[first : last + 1]
        own = self.probe_s[last] - self.probe_s[first]
        return max(wall_s - own, 0.0) / wall_s * sum(window) / len(window)

    def timed(self, fn, *args):
        """(result, wall seconds, time at reference speed) of fn(*args)."""
        first = self.sample()
        start = time.perf_counter()
        out = fn(*args)
        took = time.perf_counter() - start
        last = self.sample()
        return out, took, took * self.scale(took, first, last)
