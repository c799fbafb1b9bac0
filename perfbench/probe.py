"""The speed probe: a fixed piece of work that tells how fast the machine runs now.

The benchmark runs on shared machines whose speed changes from second to
second and from minute to minute, because other guests load the host.  The
worker times the probe right before every job and scales the job's time by
``REFERENCE_S / probe``: the time it would have taken at the speed at which
the probe takes ``REFERENCE_S``.  The probe mixes
interpreter work and LAPACK work, as both workloads do, and calls nothing of
gaussmeter, so no change to the library can alter it.  See README.md, "Why
reference-speed times".
"""

from __future__ import annotations

import time

import numpy as np

LOOPS = 5000               # steps of the pure-Python part
EIGVALSH_CALLS = 2         # calls of the LAPACK part
# About the 10th percentile of 3000 back-to-back probes on a 2-core x86-64
# machine (Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, 1 BLAS thread).
# The probe must run with the measured process's BLAS threads: with two, it
# took 40 % longer.
REFERENCE_S = 6.0e-4

_rng = np.random.default_rng(0)
_MATRIX = _rng.normal(size=(40, 40)) + 1j * _rng.normal(size=(40, 40))
_MATRIX = _MATRIX + _MATRIX.conj().T


def speed_probe() -> float:
    """Seconds the probe takes now."""
    began = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    for _ in range(EIGVALSH_CALLS):
        np.linalg.eigvalsh(_MATRIX)
    return time.perf_counter() - began


def at_reference_speed(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe``, scaled to the reference speed."""
    return seconds * REFERENCE_S / probe
