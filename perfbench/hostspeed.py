"""How fast the host runs, sampled inside the measured process.

On a shared virtual machine the effective CPU speed changes by up to a
factor of two in stretches of seconds to tens of seconds, so wall times
of one and the same code spread by more than any useful bound.  A
Sampler runs a fixed pure-Python kernel from a SIGALRM handler every
PERIOD_S seconds of the measured interval and records how long it took.
The kernel shares no code with dichain, so a change to dichain does not
move it; only the host does.

``at_reference(wall, samples)`` turns a raw interval into seconds at a
fixed reference speed: the time spent in the kernel is taken out, and
the rest is scaled by the mean of REF_KERNEL_S / sample.  The kernel
samples the speed uniformly in time, so ``wall * mean(speed)`` is the
work done in the interval, in seconds at reference speed.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
KERNEL_LOOPS = 8000
# The kernel's time at the reference speed: its median in fast stretches
# on a 2-vCPU "Intel(R) Xeon(R) Processor" VM with Python 3.11.  It only
# fixes the unit; both sides of a comparison use the same constant.
REF_KERNEL_S = 0.5e-3


def _kernel() -> int:
    x = 0
    for i in range(KERNEL_LOOPS):
        x += i * i % 7
    return x


class Sampler:
    """Kernel times, one per PERIOD_S, between start() and take()."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # every interval gets at least one sample
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def take(self) -> list[float]:
        """The samples since start() or the last take(); keeps sampling."""
        out, self.samples = self.samples, []
        return out

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self.take()


def at_reference(wall_s: float, samples) -> float:
    """Seconds of ``wall_s`` at reference speed, kernel time excluded."""
    speed = sum(REF_KERNEL_S / s for s in samples) / len(samples)
    return (wall_s - sum(samples)) * speed
