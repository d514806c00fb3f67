"""The machine's speed at the moment, measured with a fixed reference kernel.

A shared host runs the same code at full speed for a while and then up to
1.75 times slower, for stretches of milliseconds to minutes.  Over a whole
run that drift is larger than any change worth measuring, and the process's
CPU time drifts with it.  So the benchmark times a small fixed kernel (the
interpreter, big-int arithmetic and small numpy calls, the same mix as the
program's) just before and just after every request, and scales the
request's wall time by how much slower than `REFERENCE_S` the kernel ran
around it.  The kernel never calls the program, so a change to the program
moves the scaled times and a change of machine speed does not.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# the kernel's time on the machine of baseline.json when it runs at full
# speed: scaled times are wall times at that speed
REFERENCE_S = 150e-6

_BLOCKS = np.random.default_rng(0).standard_normal((16, 2, 2, 2))
_BIG = 3 ** 200


def _kernel() -> None:
    acc = 0
    for i in range(400):
        acc = (acc * 31 + i * _BIG) % 1000000007
    counts: dict[int, int] = {}
    for i in range(400):
        counts[i & 31] = counts.get(i & 31, 0) + i
    b = _BLOCKS
    for _ in range(10):
        (b[:, 0, 0, 0] * b[:, 1, 1, 1] - b[:, 0, 1, 1] * b[:, 1, 0, 0]).sum()


def reference() -> float:
    """Seconds one run of the kernel takes now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scales consecutive stretches of wall time to the reference speed.

    Each call of `scale` times the kernel once; a stretch is scaled by the
    mean of the kernel times at its two ends (only the end, for the first).
    """

    def __init__(self):
        self.last: float | None = None

    def mark(self) -> None:
        """Start a new stretch now, after a gap that was not scaled."""
        self.last = reference()

    def scale(self, seconds: float) -> float:
        now = reference()
        around = now if self.last is None else 0.5 * (self.last + now)
        self.last = now
        return seconds * REFERENCE_S / around
