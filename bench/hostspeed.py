"""Host-speed reference: fixed benchmark-owned work timed beside the library.

The benchmark runs on a shared host whose speed drifts: over stretches of a
fraction of a second to minutes, every computation on it runs up to about 2x
slower than in its fastest state, and the mix of states differs from run to
run.  A library time taken on its own moves with that mix as much as with a
real change to the library.

`probe()` is a fixed piece of work of the kinds gpi1d does -- scalar complex
arithmetic in Python, small numpy arrays and determinants, a scipy root
bracket and vectorised numpy sweeps -- that never calls gpi1d, so no change
to the library moves it.  The benchmark runs a probe between any two timed
library samples and pairs each sample with the mean of the probes on either
side of it.  A sample's time at the nominal host speed is

    sample seconds * NOMINAL_PROBE_S / (mean of the two probes beside it),

i.e. its time on a host on which the probe takes NOMINAL_PROBE_S (about its
time in the fastest state of a 2-core x86_64 VM with Python 3.11 and
numpy 2.4), and the benchmark reports the median of these over a run.  The
probes see the host in the state the sample saw, so the ratio keeps the
library's cost and drops most of the host's drift.  The raw medians are
printed beside the scaled ones.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np
from scipy.optimize import brentq

NOMINAL_PROBE_S = 12e-3

_SWEEP = np.linspace(0.1, 40.0, 60_000)
_SWEEPS = 4


def probe() -> float:
    """Run the reference work once; returns a value so that none of it is skipped."""
    acc = 0.0
    z = 0.3 + 0.7j
    for _ in range(8_000):
        w = cmath.sqrt(z * z - 4.0)
        acc += abs(w) + math.atan2(w.imag, w.real) + cmath.exp(-w).real
        z = z * (0.999 + 0.001j) + 1e-3
    for j in range(280):
        m = np.array([[1.0, z, 0.0, j % 5], [acc % 7.0, 2.0, 1j, 0.0],
                      [0.0, 1.0, 3.0, z], [1.0, 0.0, 1j, 4.0]], dtype=complex)
        acc += abs(complex(np.linalg.det(m)))
    acc += brentq(lambda e: math.cos(e) - e + 0.1 * math.sin(5.0 * e), 0.0, 1.0, xtol=1e-13)
    for j in range(_SWEEPS):
        k = _SWEEP + 0.01 * j
        tr = 2.0 * np.cos(k) + (0.7 / k) * np.sin(k)
        acc += float(np.count_nonzero(np.abs(tr) <= 2.0))
    return acc


class Probe:
    """Runs probes and keeps their times."""

    def __init__(self):
        self.times: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        probe()
        took = time.perf_counter() - t0
        self.times.append(took)
        return took


def at_nominal_speed(seconds, probe_seconds):
    """`seconds` measured beside probes of `probe_seconds`, at the nominal host speed."""
    return seconds * (NOMINAL_PROBE_S / probe_seconds)
