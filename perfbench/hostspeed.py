"""Correction of the benchmark's timings for the speed of a shared host.

The hosts this benchmark runs on are shared: the speed of one core drifts
by tens of percent over minutes, as neighbours come and go, and that drift
would swamp the changes the benchmark is meant to show. So the timed phase
also measures the host: a timer interrupts it every INTERVAL_S and runs a
fixed calibration task, the benchmark's own reference evaluator on a fixed
model and formula (code the program under test does not share). A timing
is then scaled by NOMINAL_S over the median calibration time within
WINDOW_S of it: it reads as seconds on a host where the calibration takes
NOMINAL_S, and the time spent calibrating is left out of it.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

import reference

INTERVAL_S = 0.1
WINDOW_S = 0.5
# median calibration time, at a quiet moment, on the machine the baseline
# was recorded on (2-vCPU KVM guest, Intel Xeon family 6 model 143,
# Python 3.11.7); it only sets the scale of the reported times
NOMINAL_S = 0.0037

_MODEL = reference.parse_model_text(
    "states: s0 s1 s2 s3\n"
    "agent a: s0->s0 s2->s0 s2->s3 s3->s1 s3->s3\n"
    "agent b: s0->s2 s3->s2\n"
    "val p: s0 s2 s3\n"
    "val q: s1 s2\n"
    "point: s0\n"
)
# 7 arrow blocks; a [*] nested under <*>, so it partitions every union
_FORMULA = ("arbbox", ("or", ("dia", "a", ("arbdia", ("box", "b", ("atom", "p")))), ("top",)))


def calibrate() -> float:
    """Seconds the calibration task takes now."""
    t = time.perf_counter()
    reference.holds(_MODEL, _MODEL.point, _FORMULA)
    return time.perf_counter() - t


def factor(samples: list[float]) -> float:
    """Scale that turns seconds measured beside these calibration times
    into seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Calibrates every INTERVAL_S of wall time, from a SIGALRM handler,
    between start() and stop(); spans are perf_counter readings of the
    main thread."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each sample
        self.seconds: list[float] = []
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a stalled host can fire the timer inside a sample
            return
        self._busy = True
        t = time.perf_counter()
        calibrate()
        self.starts.append(t)
        self.seconds.append(time.perf_counter() - t)
        self._busy = False

    def start(self):
        for _ in range(3):  # warm up
            calibrate()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self._paused = [0.0, *itertools.accumulate(self.seconds)]

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, calibration left out, at the nominal speed.
        A sample that started in between ran, whole, in between: the
        handler runs in the thread that reads the clock."""
        lo, hi = bisect.bisect_right(self.starts, t0), bisect.bisect_left(self.starts, t1)
        own = (t1 - t0) - (self._paused[hi] - self._paused[lo])
        near = self.seconds[bisect.bisect_left(self.starts, t0 - WINDOW_S):bisect.bisect_right(self.starts, t1 + WINDOW_S)]
        if not near:  # only when the timer could not fire for a whole window
            i = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            near = [self.seconds[i]]
        return own * factor(near)
