"""Machine-speed probe, so that times from a host whose speed drifts can be compared.

On a shared host the same work can take twice as long from one second to the
next.  While a run measures, a fixed pure-Python kernel is timed from a
SIGALRM handler every ``INTERVAL_S``.  An interval of the run is reported at
a reference machine speed: its wall time times ``REFERENCE_S`` over the
median kernel time of the samples taken within ``WINDOW_S`` of it.  The
window reaches past both ends because native code such as LAPACK defers the
handler, so a long eigensolve has no samples inside it.  The kernel touches
no NumPy or package state, so a change to the package cannot slow it and
hide its own cost.
"""

import signal
import statistics
import time

INTERVAL_S = 0.025
# median kernel time on the machine the benchmark was defined on, so that a
# reported second is close to a wall second there
REFERENCE_S = 1.2e-4
WINDOW_S = 1.0


def _kernel() -> float:
    x = 0.5
    for _ in range(1200):
        x = (x * 1.0001 + 0.5) % 7.0
    return x


class SpeedProbe:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """The interval [start, end] of perf_counter time at the reference speed.

        Call it after the samples around the interval have been taken."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return (end - start) * REFERENCE_S / statistics.median(near)
