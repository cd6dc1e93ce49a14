"""Wall times scaled to a fixed reference speed.

On the shared 2-core machine this benchmark was written on, the same Python
code ran at speeds up to 2x apart, in phases that can outlast a 30-second
run: a fixed loop took 15 ms in some phases and 24 ms in others, and raw
wall-time medians of the same pass moved by 25-40% from run to run.  So a
short reference kernel runs between timed operations, and each wall time
is scaled by NOMINAL_S / (median kernel time around it): the time the
operation would take at the speed at which the kernel takes NOMINAL_S.
"Around it" is every kernel sample from WINDOW_S before the operation
began to WINDOW_S after it ended, and at least the samples just before and
just after; one sample varies by about 10%, so a short operation needs
its neighbours' samples too.  During an operation a timer signal runs the
kernel every INTERVAL_S, so that a long one (E3 at radius 8 takes 3-4 s)
is scaled by the speed while it ran; the time the kernel takes there is
taken out of the operation's time.

The kernel does what tracktree's hot loops do: free reduction of a word on
a list stack, string joins, dict updates, small frozenset algebra and a
keyed sort.  It tracked tracktree's slowdowns much better than a plain
arithmetic loop: over six runs of `nested-families` the scaled pass times
ranged over 4% of their median, the raw ones over 30%.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

NOMINAL_S = 0.0025  # about the kernel's time on that machine in its fast phases
WINDOW_S = 0.5
INTERVAL_S = 0.2


def _kernel() -> int:
    counts: dict[str, int] = {}
    acc = 0
    for i in range(300):
        stack: list[str] = []
        for ch in "abABbaab"[: 3 + i % 5] + "Bb":
            if stack and stack[-1] == ch.swapcase():
                stack.pop()
            else:
                stack.append(ch)
        word = "".join(stack)
        counts[word] = counts.get(word, 0) + 1
        a = frozenset(range(i % 13, i % 13 + 20))
        b = frozenset(range(i % 7, i % 7 + 20))
        acc += len(a ^ b) + len(a & b)
        acc += sorted(a, key=lambda x: -x)[0]
    return acc + len(counts)


class ReferenceClock:
    """Kernel samples taken between timed operations, and the scaling they imply."""

    def __init__(self):
        self._at: list[float] = []     # when each sample ended
        self._took: list[float] = []   # how long the kernel took
        self.sample()

    def sample(self):
        """Run the kernel once; call it after every timed operation."""
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self._at.append(end)
        self._took.append(end - start)

    def arm(self):
        """Sample every INTERVAL_S until disarm(); returns nothing, counts the time taken."""
        self._inside = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> float:
        """Stop sampling; returns the time the samples took since arm()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self._inside

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self._inside += time.perf_counter() - start

    def scale(self, start: float, end: float, inside: float = 0.0) -> float:
        """Scaled time of an operation that ran from start to end, less `inside`.

        Call it once the samples up to WINDOW_S after `end` have been taken.
        """
        lo = min(bisect_right(self._at, start) - 1, bisect_left(self._at, start - WINDOW_S))
        hi = max(bisect_left(self._at, end), bisect_right(self._at, end + WINDOW_S) - 1)
        around = self._took[max(lo, 0):hi + 1]
        return (end - start - inside) * NOMINAL_S / statistics.median(around)
