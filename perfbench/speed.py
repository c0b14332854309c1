"""Machine-speed probe, so that timings on a shared host can be compared.

A shared host runs the same code up to 40% slower for seconds to minutes
at a time, when other tenants load the cores it shares with them.  Both
the workload and a fixed probe slow down together, so a timing divided by
the probe's slowdown factor is steady where the raw timing is not.

`probe` runs a fixed mix of small numpy calls and interpreter work, like
clogitrep's per-cluster loops, and does not touch clogitrep, so a change
to the package never changes it.  `Sampler` runs the probe every
`INTERVAL_S` seconds of wall time from a SIGALRM handler while the code
under test runs in the same thread, and reports the probe's mean slowdown
over that stretch and the time the probes themselves took.
A normalized time is a time divided by (probe time / PROBE_REF_S), that
is, seconds at the speed at which the probe takes PROBE_REF_S.  That is a
fixed scale, near the probe's time on the 2-vCPU Xeon the benchmark was
written on, so that normalized rates read close to raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 1.0e-3
INTERVAL_S = 0.05

_SMALL = np.linspace(-1.0, 1.0, 6)
_LARGE = np.linspace(-2.0, 2.0, 4096)


def probe() -> float:
    """Run the fixed probe once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(120):
        s = _SMALL * (0.5 + i * 1e-3)
        acc += float(np.dot(s, _SMALL)) - float(np.logaddexp(0.0, s).sum())
        acc += (i % 7) * 0.25 - (i % 3) * 0.5
    acc += float(np.logaddexp(0.0, _LARGE * acc * 1e-6).sum())
    return time.perf_counter() - t0


def factor(times) -> float:
    """Slowdown of a set of probe times against PROBE_REF_S.

    The mean after dropping the top and bottom tenth, so that a probe
    cut by an interrupt does not count while sustained slow stretches do.
    """
    times = sorted(times)
    cut = len(times) // 10
    return statistics.fmean(times[cut:len(times) - cut]) / PROBE_REF_S


def burst(n: int = 20) -> list[float]:
    """n probe times taken back to back."""
    return [probe() for _ in range(n)]


class Sampler:
    """Probe every INTERVAL_S seconds while the `with` body runs.

    `ticks` holds the probes taken during the body and `spent` their sum,
    which the caller takes off the body's wall time.  A burst before and
    after the body, outside it, makes sure that even a short body has
    enough samples for `factor`.
    """

    def __init__(self):
        self.ticks: list[float] = []
        self.bursts: list[float] = []

    def _tick(self, signum, frame):
        self.ticks.append(probe())

    def __enter__(self):
        self.bursts.extend(burst(5))
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.bursts.extend(burst(5))
        return False

    @property
    def spent(self) -> float:
        return sum(self.ticks)

    def factor(self) -> float:
        return factor(self.ticks + self.bursts)
