"""Timing that cancels the host's speed swings.

On a shared host the same job can take twice as long from one minute to
the next: neighbours contend for the core, and wall time measures them as
much as the code.  A fixed probe, independent of `rqss`, is timed right
before and right after every operation on the same pinned CPU; the
operation's wall time is scaled by `NOMINAL_PROBE_S` over the mean of the
two probe times.  Times are thus reported in seconds of a machine on which
the probe takes `NOMINAL_PROBE_S`, and a change to `rqss` moves them while
the neighbours do not.  The probe mixes the kinds of work the workloads do:
small dense linear algebra, a Python loop, a BLAS product and array
transcendentals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

NOMINAL_PROBE_S = 2.0e-3

_N = np.arange(1.0, 7.0)
_SPD = 6.0 * np.eye(6) + 0.1 * np.outer(_N, _N)
_SKEW = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_MAT = np.sin(np.outer(np.arange(1.0, 97.0), np.arange(1.0, 97.0)))
_VEC = np.linspace(0.0, 1.0, 4096)


def probe() -> float:
    """Wall time of a fixed piece of work, about 2 ms on an idle core."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(80):
        acc += float(np.linalg.eigvalsh(_SPD + 1j * _SKEW)[0])
        acc += float(np.linalg.solve(_SPD, _N)[0])
        acc += sum(k * i for k in range(60))
    acc += float((_MAT @ _MAT)[0, 0]) + float(np.sin(_VEC).sum())
    return time.perf_counter() - t0


@dataclass
class Timing:
    value: object
    error: BaseException | None
    seconds: float
    scale: float


class Clock:
    """Times calls together with the probe around each call.

    The probe after one call serves as the probe before the next.
    """

    def __init__(self):
        self._last_probe = None

    def time(self, fn) -> Timing:
        before = self._last_probe if self._last_probe is not None else probe()
        value, error = None, None
        t0 = time.perf_counter()
        try:
            value = fn()
        except (Exception, SystemExit) as exc:  # a failed operation, counted by the caller
            error = exc
        seconds = time.perf_counter() - t0
        after = probe()
        self._last_probe = after
        return Timing(value, error, seconds, NOMINAL_PROBE_S / (0.5 * (before + after)))
