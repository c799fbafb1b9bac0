"""Time the two single calls that the roadmap's first baseline names.

Run from the root of a checkout with ``python3 perfbench/baseline.py``.
It prints the median of three calls of ``er_numeric`` on the thermal
(1, 1) input at dim 40, and one ``cea_multimode`` solve at s = 6, with the
same thread counts as the benchmark's measured process.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import run

os.environ.update(run.thread_env())
sys.path.insert(0, os.path.join(run.ROOT, "src"))

import numpy as np  # noqa: E402

from gaussmeter import capacity, fockoracle  # noqa: E402
from gaussmeter.capacity import EnergyConstraint  # noqa: E402
from gaussmeter.gauge import GaugeMeasurement  # noqa: E402

import workloads  # noqa: E402


def timed(fn):
    began = time.perf_counter()
    result = fn()
    return time.perf_counter() - began, result


def main() -> int:
    rho = fockoracle.thermal_state(1.0, 40)
    grid = fockoracle.default_grid(1.0, 1.0)
    fockoracle.er_numeric(rho, 1.0, grid)            # fills the displacement cache
    er_times = [timed(lambda: fockoracle.er_numeric(rho, 1.0, grid))[0]
                for _ in range(3)]
    noise, eps, budget = workloads.capacity_instance(
        np.random.default_rng(0), 6, commuting=True)
    solve_s, report = timed(lambda: capacity.cea_multimode(
        GaugeMeasurement(noise), EnergyConstraint(eps, budget)))
    print(json.dumps({
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "er_numeric_thermal_dim40_s": statistics.median(er_times),
        "cea_multimode_s6_s": solve_s,
        "cea_multimode_s6_iterations": report.iterations,
        "cea_multimode_s6_converged": report.converged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
