"""Machine-speed calibration of measured times.

The benchmark machines share cores with other tenants.  Their speed for
pure-Python work drifts by 30% and more over minutes, which is more than
any bound on a raw time could absorb.  So the speed is sampled while a pass
runs, and the pass's times are scaled to a nominal machine on which a fixed
kernel takes NOMINAL_KERNEL_S:

    calibrated = measured * NOMINAL_KERNEL_S / median(kernel times)

The kernel has two parts, timed together.  The first does what dominates
`coble`'s time, exact `Fraction` arithmetic and tuple-keyed dict updates;
the second follows CHAIN_STEPS links of an 8 MiB chain of indices, so
nearly every step waits on memory.  The machine's slow phases slow the first
part more than they slow `coble`, and the second part less; the sum follows
`coble` much more closely than either part alone (see README.md).

The kernel never calls `coble`, and the garbage collector is off while it
runs, so a collection of the program's heap cannot land in a sample; the
median keeps a single slow sample from moving a pass.  `SpeedSampler` runs
it from a SIGALRM handler every INTERVAL_S.  Python runs signal handlers on
the main thread between bytecodes, so a sample never overlaps the measured
work, not even native code such as numpy, which only delays it until the
call returns.  EDGE_SAMPLES more are taken before and after.  The kernel
runs for about 1.5 ms, so sampling adds about 1% to a pass.  Raw times and
the calibration factors are kept in each run record.
"""

import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.2
NOMINAL_KERNEL_S = 0.0015
EDGE_SAMPLES = 5
CHAIN_LEN = 1 << 21
CHAIN_BYTES = 4 * CHAIN_LEN
CHAIN_STEPS = 6000
_chain = None


def chain():
    """The chain, built on first use: i -> (a i + c) mod CHAIN_LEN, one cycle
    through every index (a = 1 mod 4 and c odd give the full period), with
    successive steps on unrelated cache lines."""
    global _chain
    if _chain is None:
        links = array("i", [0]) * CHAIN_LEN
        for i in range(CHAIN_LEN):
            links[i] = (1103515245 * i + 12345) & (CHAIN_LEN - 1)
        _chain = links
    return _chain


def kernel():
    terms = {}
    for i in range(120):
        a = Fraction(i % 13 + 1, i % 7 + 2)
        b = Fraction(i % 5 - 2, i % 11 + 1)
        key = (i % 17, i % 5, i % 3)
        terms[key] = terms.get(key, 0) + a * b - b
    links, i = chain(), 0
    for _ in range(CHAIN_STEPS):
        i = links[i]
    return terms, i


def sample_kernel(count=EDGE_SAMPLES):
    """Wall times of `count` kernel runs, with the garbage collector off."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return times


class SpeedSampler:
    """Samples the kernel while the `with` block runs (main thread only)."""

    def __enter__(self):
        chain()
        self.samples = sample_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame):
        self.samples += sample_kernel(1)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += sample_kernel()

    @property
    def factor(self):
        """The calibration factor for the times measured in the block."""
        return NOMINAL_KERNEL_S / statistics.median(self.samples)
