"""Machine-speed calibration for the wall-clock figures.

On a shared host the interpreter's speed drifts by up to a factor of
two over tens of seconds, far more than the changes the benchmark has to
resolve.  The benchmark therefore times a fixed pure-Python kernel
(dictionary reads and writes plus integer arithmetic, the same kind of
work the serving path does) right after each short stretch of
measurement, and scales the stretch's wall times by
``speed() = REFERENCE_S / kernel time``: a stretch measured while the
host ran at half speed has its times halved.  A slower program still
reads slower; a slower host does not.
"""

from __future__ import annotations

import statistics
import time
from typing import MutableSequence, Sequence

#: Kernel seconds at reference speed, a nominal 1 ms.  On the 2-vCPU
#: x86-64 cloud host the benchmark was written on the kernel took
#: 0.55-1.25 ms, so speeds there read 0.8-1.8.
REFERENCE_S = 1.0e-3

#: Seconds of measured work between two calibrations.
STRETCH_S = 0.02
#: Speed samples (centred on a stretch) whose median scales it: the
#: host drifts over seconds, a single 1 ms sample is noisier than that.
SMOOTHING = 5

_TABLE = {i: i for i in range(4096)}


def _kernel() -> int:
    table = _TABLE
    total = 0
    for i in range(3000):
        total += table[i & 4095]
        table[(i * 7) & 4095] = total & 1023
    return total


def speed() -> float:
    """Host speed relative to the reference (best of two kernel runs)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_S / best


def rescale(times: MutableSequence[float], ends: Sequence[int],
            speeds: Sequence[float]) -> None:
    """Scale measured stretches to reference speed, in place.

    Stretch ``i`` covers ``times[ends[i - 1]:ends[i]]`` and was followed
    by the speed sample ``speeds[i]``; it is scaled by the median of the
    ``SMOOTHING`` samples centred on it.
    """
    half = SMOOTHING // 2
    start = 0
    for i, end in enumerate(ends):
        factor = statistics.median(speeds[max(0, i - half):i + half + 1])
        for j in range(start, end):
            times[j] *= factor
        start = end
