"""A fixed reference kernel that gauges the host's speed during a run.

The host shares its cores with other tenants and its speed swings by up
to 2x for seconds at a time. The client times this kernel between its
requests and scales each request's latency by the kernel's nominal time
over its time measured around that request (see README.md, *Noise on a
shared host*). The kernel is the kind of work esdsim does: cyclic Jacobi
rotations, driven from Python, on small complex matrices. It is frozen
here and shares no code with the package, so a change to the package
never moves it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: The kernel's time on the host the figures are quoted for. Scaled
#: latencies read as milliseconds on a host where one kernel takes this long.
NOMINAL_S = 0.010

_SWEEPS = 8
_MATRICES = []
_rng = np.random.default_rng(20070731)
for _ in range(4):
    _g = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
    _MATRICES.append(_g @ _g.conj().T)
del _rng, _g


def _sweeps(a: np.ndarray) -> float:
    n = a.shape[0]
    for _ in range(_SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = a[p, q]
                r = abs(alpha)
                if r < 1e-300:
                    continue
                phase = alpha / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                colp, colq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * colp - (s * np.conj(phase)) * colq
                a[:, q] = s * colp + (c * np.conj(phase)) * colq
                rowp, rowq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rowp - (s * phase) * rowq
                a[q, :] = s * rowp + (c * phase) * rowq
    return float(a[0, 0].real)


def time_kernel() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    for m in _MATRICES:
        _sweeps(m.copy())
    return perf_counter() - start
