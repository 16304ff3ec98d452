"""Wall time rescaled to a reference host speed, from a probe run during
the call.

The shared host the benchmark was defined on does not give a process a
steady CPU: a fixed computation runs up to twice as fast in some stretches
as in others, stretches last from about a second to tens of seconds, and
process CPU time follows the wall clock, so this is not preemption. A 5 s
call's wall time then depends on how much of it fell in fast stretches,
which is noise that no amount of repetition in one run averages away.

``Meter`` measures the host's speed while the call runs. A ``SIGALRM``
timer interrupts the call every ``INTERVAL_S``, and the handler times one
``probe()``: a fixed computation that mixes the program's two kinds of
work, a Python loop of small NumPy operations like the reservoir drive and
a small matrix product like the ridge readout. The probe shares no code
with pulserc, so a faster program does not make the probe faster. Each
stretch of the call between two probes is scaled by ``REFERENCE_PROBE_S``
over the duration of the probe that ends it, and the scaled stretches
add up to ``reference_s``: the call's time on a host where one probe takes
``REFERENCE_PROBE_S``. The probes' own time is left out.

On the 2-core box the benchmark was defined on, over ten 42 s runs per
workload (seeds 1-10, 4 to 7 calls each), the standard deviation of the
log of a call's time went from 0.119 on the clock to 0.049 rescaled
(``narma_sweep``), from 0.056 to 0.030 (``narma10_wide``) and from 0.117
to 0.047 (``csv_cli``).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# Sets the unit of ``reference_s`` only; about one probe's time on the
# 2-core box. Both sides of a comparison use the same constant.
REFERENCE_PROBE_S = 0.5e-3

_X = np.linspace(0.0, 1.0, 64)
_W = np.linspace(1.0, 0.0, 64)
_A = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)


def probe() -> float:
    s = _X.copy()
    for _ in range(60):
        s = np.sin(s * 0.7 + _W * 0.1) * 0.9
    return float(s[0] + (_A @ _A)[0, 0])


def reference_time(start: float, end: float,
                   probes: list[tuple[float, float]]) -> float:
    """Time from ``start`` to ``end`` at the reference speed, leaving out
    the probes: each stretch up to a probe's start is scaled by that
    probe's speed. ``probes`` holds (start, duration) in time order, the
    last one starting at or after ``end``."""
    scaled, stretch_start = 0.0, start
    for probe_start, duration in probes:
        scaled += max(0.0, min(probe_start, end) - stretch_start) / duration
        stretch_start = probe_start + duration
    return scaled * REFERENCE_PROBE_S


class Meter:
    """Times a ``with`` block and probes the host's speed while it runs.

    Only one ``Meter`` may run at a time in a process, from the main
    thread, since it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, duration)
        self.wall_s = self.reference_s = 0.0

    def _probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe()
        self.probes.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Meter":
        probe()  # warm up; not counted
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()  # closes the last stretch
        self.wall_s = end - self._start
        self.reference_s = reference_time(self._start, end, self.probes)

    def rescale(self, seconds: float) -> float:
        """``seconds`` of work done at this block's median host speed, as
        time at the reference speed."""
        return seconds * REFERENCE_PROBE_S / self.probe_s

    @property
    def probe_s(self) -> float:
        """Median probe duration: how slowly the host ran, against
        ``REFERENCE_PROBE_S``."""
        return statistics.median(d for _, d in self.probes)
