"""The machine's speed, read from a fixed reference loop.

On a shared machine the same work takes up to 1.7x more CPU time while
other tenants load the core and its caches, in phases of seconds to
minutes.  CPU time leaves out time the machine gave to others, but not
this slowdown.  A run therefore pins itself to one CPU and, while it
measures, runs a fixed pure-Python loop for a set share of the measured
CPU time: Fraction arithmetic and small containers, the kind of work
resilp does.  The loop's code never changes, so its CPU time follows the
machine alone.  Loops run every so often inside long in-process
measurements (on a CPU-time timer) and after short ones or ones made in
a child process.  The runner's clock leaves the loops' CPU time out, and
scales each measurement by ``REFERENCE_S`` over the mean CPU time of the
loops run during it and right after it: a reported time is the time the
work takes on this machine when the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time
from fractions import Fraction
from typing import Callable, Optional

# About the mean CPU time of one reference loop inside a run on a 2-vCPU
# Intel Xeon with CPython 3.11; it only sets the scale of reported times.
REFERENCE_S = 0.007


def reference_loop() -> Fraction:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 600):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        seen[i % 31] = [acc.numerator % 97, f, str(i)]
    return acc


class Speed:
    """Reference loops run in step with one phase of measurements."""

    # CPU time of every reference loop this thread has run: class-wide,
    # like the thread's CPU clock that the runner subtracts it from.
    spent = 0.0

    def __init__(self, share: float, loop: Callable[[], object] = reference_loop):
        self.share = share
        self.loop = loop
        self.loops = 0
        self.seconds = 0.0
        self._owed = 0.0
        self._pending = (0, 0.0)  # loops and their seconds not yet in a factor

    def _run(self, signum=None, frame=None) -> None:
        # The collector's cost grows with what the program keeps alive;
        # the loop makes no cycles, and must not pay for the program's.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            self.loop()
            spent = time.thread_time() - start
        finally:
            if enabled:
                gc.enable()
        Speed.spent += spent
        self.loops += 1
        self.seconds += spent
        self._owed -= spent
        loops, seconds = self._pending
        self._pending = (loops + 1, seconds + spent)

    @contextlib.contextmanager
    def ticking(self):
        """Inside the block, also run a loop each time this process has
        used ``REFERENCE_S / share`` seconds of CPU time.  While the timer
        is armed, the kernel updates the process's CPU clock only once a
        tick (4 ms here); the thread's clock stays exact, so that is the
        one to read."""
        every = REFERENCE_S / self.share
        previous = signal.signal(signal.SIGPROF, self._run)
        signal.setitimer(signal.ITIMER_PROF, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def sample(self, measured_s: float, at_least_one: bool = False) -> Optional[float]:
        """Run loops until all loops have taken ``share`` of the CPU time
        measured; the factor for the measurements since the last factor,
        or None when no loop has run since."""
        self._owed += measured_s * self.share
        while self._owed > 0 or (at_least_one and not self._pending[0]):
            self._run()
        loops, seconds = self._pending
        if not loops:
            return None
        self._pending = (0, 0.0)
        return REFERENCE_S * loops / seconds

    @property
    def factor(self) -> float:
        """The mean factor of the phase so far."""
        return REFERENCE_S * self.loops / self.seconds
