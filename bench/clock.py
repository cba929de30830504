"""Timing normalised by a fixed reference kernel.

The benchmark host is shared. Other tenants slow a single-threaded run by
up to 1.8x, in stretches of seconds to minutes, and process CPU time slows
by the same factor. A fixed kernel of the same kind of work (small numpy
ufuncs driven from a Python loop) slows with it: over 30 s windows the
ratio of an operation's time to the kernel's time varied by 2%, while the
operation's own time varied by 14% to 39%.

So each timed operation is paired with the mean of the kernel times
measured just before and just after it, and is reported in normalised
units: wall time scaled as if the kernel had taken ``REF_SECONDS``.
Raw wall times are reported beside them.

Never change ``reference_kernel`` or ``REF_SECONDS``: every normalised
number ever recorded depends on them.
"""

import time

import numpy as np

REF_SECONDS = 0.005

_X = np.linspace(0.01, 3.0, 300)


def reference_kernel() -> float:
    acc = 0.0
    for k in range(400):
        a = 1.0 + (k % 7) * 0.1
        z = (_X / 1.5) ** a
        acc += float(np.sum(np.log(a / 1.5) + (a - 1.0) * np.log(_X / 1.5) - z))
    return acc


def _reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Clock:
    def __init__(self):
        self._last = _reference_seconds()
        self.kernel_seconds = [self._last]

    def mark(self) -> float:
        """Run the kernel; return the mean of this and the previous kernel
        time, the reference for whatever ran in between."""
        now = _reference_seconds()
        self.kernel_seconds.append(now)
        ref = (self._last + now) / 2
        self._last = now
        return ref

    def time(self, fn, *args, **kwargs):
        """``(result, wall seconds, reference seconds)`` of one call."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        return out, dt, self.mark()


def normalised_seconds(seconds, ref) -> float:
    return seconds * REF_SECONDS / ref
