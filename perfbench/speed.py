"""Host-speed calibration for timed runs.

The machines this benchmark runs on are shared: the same pure-Python work
can take 1.6 times as long from one few-second stretch to the next, which
swamps any change in barspin.  A Speedometer therefore interrupts the work
every ``INTERVAL`` seconds (SIGALRM) and times a fixed calibration kernel.
Each stretch of work between two interruptions is scaled by the speed the
kernel showed around it, so

    ref_s = sum(stretch * REF_KERNEL_S / kernel_s)

is the time the work would have taken on a host where the kernel takes
``REF_KERNEL_S``.  The kernel's own time is excluded from both the raw and
the scaled time.

The kernel does the kind of work barspin does: Fraction arithmetic on
growing integers, tuple keys and dict stores.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.025
# about the kernel's time on an unloaded 2-vCPU Xeon VM with Python 3.11;
# a scaled time is in seconds at that speed
REF_KERNEL_S = 0.0004
SMOOTH = 5  # calibrations per running median


def kernel():
    """A fixed unit of interpreter work; returns a value so it is not idle."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i)
        seen[(i, i % 5)] = acc.numerator % 97
    return len(seen)


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def calibrate(samples=9):
    """Median kernel time over a few back-to-back calls."""
    return statistics.median(time_kernel() for _ in range(samples))


def at_ref(seconds, kernel_s):
    """``seconds`` of work done while the kernel took ``kernel_s``, at the
    reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


def _running_median(values, width):
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


class Speedometer:
    """Times the work done between ``start`` and ``stop``, raw and scaled.

        with Speedometer() as sp:
            work()
        sp.raw_s, sp.ref_s
    """

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.stretches = []  # seconds of work between calibrations
        self.kernels = []  # kernel seconds; kernels[i] ends stretches[i]

    def _tick(self, *_):
        now = time.perf_counter()
        self.stretches.append(now - self._resumed)
        self.kernels.append(time_kernel())
        self._resumed = time.perf_counter()

    def __enter__(self):
        for _ in range(SMOOTH):
            self.kernels.append(time_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._resumed = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.stretches.append(time.perf_counter() - self._resumed)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(SMOOTH):
            self.kernels.append(time_kernel())
        return False

    @property
    def raw_s(self):
        """Seconds of work, calibration pauses left out."""
        return sum(self.stretches)

    @property
    def ref_s(self):
        """Seconds of work at the reference speed."""
        smooth = _running_median(self.kernels, SMOOTH)
        lead = SMOOTH - 1  # index of the kernel that opens stretch 0
        return sum(
            at_ref(stretch, (smooth[lead + i] + smooth[lead + i + 1]) / 2)
            for i, stretch in enumerate(self.stretches)
        )
