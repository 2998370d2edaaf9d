"""Host-speed calibration of the benchmark's timings.

The single-thread speed of a small shared virtual machine moves with the
load on its host, by up to a factor of two, in regimes that last from under
a second to minutes; CPU time grows with wall time, so a slow regime cannot
be told from a slow program by the clock alone.  So the benchmark times a
pass in segments of about a quarter of a second (cut between library
calls), runs a fixed pure-Python reference loop between segments, in the
same process (the median of several runs of it), and reports the pass in
reference-speed seconds:

    calibrated = sum over segments of wall * REF_S / mean(loop before, loop after)

A change to totreal moves the calibrated time by the same share as the wall
time; a change of host speed that lasts longer than a segment cancels.  The
raw wall times (segments summed, reference loops left out) are kept next to
the calibrated ones in the result files.
"""

from __future__ import annotations

import math
import statistics
import time

# The loop's median time on a shared 2-vCPU 2.1 GHz Xeon VM (Python 3.11),
# so that a calibrated time reads close to a typical wall time there.
REF_S = 0.004
REF_ITERS = 8000
SEGMENT_S = 0.25
# A reference takes the median of at least REF_MIN loops, so that a spike
# of host load in one loop does not scale a whole segment, and of more
# after a long segment: about REF_SHARE of the segment's time.
REF_MIN = 5
REF_SHARE = 0.05


def _kernel(n: int) -> int:
    """Integer arithmetic, a dict and calls: the kind of interpreter work
    totreal's exact layers do."""
    acc = 0
    seen: dict[int, int] = {}
    for i in range(n):
        a = (i * 2654435761) % 1000003
        seen[a & 1023] = a
        acc += math.gcd(a, 360360) + (a >> 3) % 7
    return acc + len(seen)


def reference_s(n: int = REF_MIN) -> float:
    """Median wall time of n reference loops, in seconds."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        _kernel(REF_ITERS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrate(wall: float, before: float, after: float) -> float:
    """A wall time in reference-speed seconds, from the reference loop's
    times just before and just after it."""
    return wall * REF_S / ((before + after) / 2)


class Stopwatch:
    """Times a pass in segments, each bracketed by reference loops.

    ``start`` runs the first loop; the caller ends a segment with ``lap``,
    or with ``maybe_lap`` between calls once ``SEGMENT_S`` has passed;
    ``stop`` ends the last one.  ``raw_s`` is the summed wall time of the
    segments, ``calibrated_s`` their reference-speed time.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.first_ref = 0.0
        self._ref = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        self._ref = self.first_ref = reference_s()
        self._t0 = time.perf_counter()

    def maybe_lap(self) -> None:
        if time.perf_counter() - self._t0 >= SEGMENT_S:
            self.lap()

    def lap(self) -> None:
        wall = time.perf_counter() - self._t0
        ref = reference_s(max(REF_MIN, round(REF_SHARE * wall / REF_S)))
        self.raw_s += wall
        self.calibrated_s += calibrate(wall, self._ref, ref)
        self._ref = ref
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        self.lap()
        return self.raw_s, self.calibrated_s
