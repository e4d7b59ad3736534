"""The machine's speed, sampled while an untraced run works.

A shared virtual machine runs the same code 20-40% slower for seconds to
minutes at a time, in CPU time as well as wall time. `SpeedProbe` runs a
fixed reference kernel (interpreter work and small numpy calls, as voxtag
does) from a SIGALRM handler every `PERIOD_S` of wall time, wherever the
program happens to be, and records how long each run of it took. The local
speed at time t is the median kernel time within `WINDOW_S` of t. A measured
interval is scaled by `NOMINAL_S` over the local kernel time, averaged over
the interval, which gives the time the work would take on a machine where the
kernel takes `NOMINAL_S`: the end-to-end times are reported on that scale.
The kernel's own time is taken out of every measured interval it falls in.
"""

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.5
BIN_S = 0.1
NOMINAL_S = 2e-3
FRAME, HOP, FRAMES = 512, 160, 72


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(FRAMES * HOP + FRAME)
        self._window = np.hanning(FRAME)
        self.starts = []    # start of each kernel run, in time order
        self.times = []     # its duration in seconds
        self.busy = 0.0     # total seconds spent in the kernel
        self._bins = {}
        self._inside = False

    def kernel(self):
        """Frame-by-frame spectral peaks: a Python loop over small numpy
        calls, the shape of most of voxtag's work."""
        peaks = {}
        for i in range(FRAMES):
            frame = self._signal[i * HOP:i * HOP + FRAME] * self._window
            magnitude = np.abs(np.fft.rfft(frame))
            k = int(np.argmax(magnitude))
            peaks[k] = peaks.get(k, 0.0) + float(magnitude[k]) / (1.0 + float(np.mean(magnitude)))
        return peaks

    def _tick(self, signum, frame):
        if self._inside:
            return
        self._inside = True
        t0 = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(elapsed)
        self.busy += elapsed
        self._inside = False

    @contextmanager
    def running(self):
        """Sample the machine's speed for the duration of the block."""
        self.kernel()  # first call pays numpy's one-time costs
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _bin_scale(self, i):
        if i not in self._bins:
            center = (i + 0.5) * BIN_S
            lo = bisect.bisect_left(self.starts, center - WINDOW_S)
            hi = bisect.bisect_left(self.starts, center + WINDOW_S)
            self._bins[i] = NOMINAL_S / statistics.median(self.times[lo:hi]) if hi > lo else None
        return self._bins[i]

    def scale(self, start, end):
        """NOMINAL_S over the local kernel time, averaged over [start, end)
        at BIN_S resolution; None if the kernel did not run near then."""
        total = weight = 0.0
        for i in range(math.floor(start / BIN_S), math.floor(end / BIN_S) + 1):
            overlap = min(end, (i + 1) * BIN_S) - max(start, i * BIN_S)
            factor = self._bin_scale(i)
            if factor is not None:
                total += factor * max(overlap, 1e-9)
                weight += max(overlap, 1e-9)
        return total / weight if weight else None
