"""Host-speed calibration for the benchmark's timings.

The benchmark shares its host with other load, and the same
pure-Python computation runs up to 1.7x slower from one second to the
next.  A Sampler times a small fixed kernel from a SIGALRM handler every
INTERVAL_S seconds while the benchmark runs; the handler runs in the
main thread between two bytecodes, so it samples the host's speed in
the middle of a long search too.  An operation's time is rescaled by
REFERENCE_S over the mean kernel time sampled during it, so times read
as seconds on a host where the kernel takes REFERENCE_S.  The kernel
uses no starbook code: a change to starbook moves rescaled times as it
moves raw ones.  The handler's own time is taken out of every timed
call.

Over two sets of ten seeds on a 2-core Xeon VM, the quartile distance
over the median of the raw pass time was 15% on strict_proofs, 6-11% on
crosscap_search and 29-65% on certify; that of the rescaled wall_s was
2-4%, 5-9% and 5-11%.  The kernel follows the host's speed less well
when the host is heavily loaded (certify then ran 2x slower raw and
1.2x slower rescaled).
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.1
KERNEL_ITERATIONS = 8000
REFERENCE_S = 0.002  # about the kernel's median on a 2-core Xeon VM, Python 3.11


def _kernel(iterations: int) -> int:
    """Integer arithmetic, list indexing and dict lookups, as in the engine."""
    table = {i: i * 3 for i in range(256)}
    cells = [0] * 256
    acc = 0
    for i in range(iterations):
        j = i & 255
        cells[j] = (cells[j] + table[j]) & 0xFFFF
        acc ^= cells[j] << (i & 7)
    return acc


class Sampler:
    """Kernel timings taken every INTERVAL_S seconds while active."""

    def __init__(self):
        self.times: list[float] = []    # perf_counter() at the end of each sample
        self.kernel: list[float] = []   # seconds the kernel took
        self.busy = 0.0                 # seconds spent in the handler so far
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        _kernel(KERNEL_ITERATIONS)
        end = perf_counter()
        self.times.append(end)
        self.kernel.append(end - start)
        self.busy += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """`seconds` measured between perf_counter() readings start and end,
        rescaled by the kernel samples taken within INTERVAL_S of that span."""
        lo = bisect.bisect_left(self.times, start - INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + INTERVAL_S)
        window = self.kernel[lo:hi] or self.kernel[max(lo - 1, 0):lo + 1]
        return seconds * REFERENCE_S * len(window) / sum(window)
