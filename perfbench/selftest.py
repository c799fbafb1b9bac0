"""Self-tests of the benchmark's references, tracer and input generation.

Run from the root of a checkout with ``python3 perfbench/selftest.py``
(or ``python3 -m pytest perfbench/selftest.py``).  They take about ten
seconds and do not belong to the repository's test suite.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

from gaussmeter import capacity, gauge, matfun  # noqa: E402
from gaussmeter.capacity import cea_one_mode  # noqa: E402
from gaussmeter.gauge import GaugeMeasurement, GaugeState, entropy_reduction_gauge  # noqa: E402

import probe  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, calibrate, corrected_self_times, self_times  # noqa: E402

WORK = os.path.join(HERE, ".work")
CRITERION_9_COUPLED = 2.8390143512


def test_water_filling_matches_one_mode_sum_when_decoupled():
    for noise, energy, s in ((1.0, 1.0, 2), (0.0, 0.5, 3), (2.5, 3.0, 4)):
        value, occ = reference.water_filling([noise] * s, [1.0] * s, s * energy)
        assert abs(value - s * cea_one_mode(energy, noise)) <= 1e-12
        np.testing.assert_allclose(occ, energy, rtol=1e-12)


def test_water_filling_reproduces_criterion_9():
    value, occ = reference.water_filling([0.0, 1.0], [1.0, 2.0], 2.0)
    assert abs(value - CRITERION_9_COUPLED) <= 5e-11
    assert abs(occ @ [1.0, 2.0] - 2.0) <= 1e-12


def test_frank_wolfe_gap_certifies_the_shortfall():
    noise, costs, budget = np.array([0.3, 1.2]), np.array([1.0, 1.7]), 2.0
    best, occ = reference.water_filling(noise, costs, budget)
    n_mat, eps = np.diag(noise).astype(complex), np.diag(costs).astype(complex)
    at_optimum = reference.frank_wolfe_gap(np.diag(occ).astype(complex), n_mat, eps, budget)
    assert abs(at_optimum) <= 1e-8
    # an off-optimum point on the shell: the gap bounds the true shortfall
    lam = np.diag([budget / 2.0, budget / 2.0 / costs[1]]).astype(complex)
    shortfall = best - entropy_reduction_gauge(GaugeState(lam), GaugeMeasurement(n_mat))
    gap = reference.frank_wolfe_gap(lam, n_mat, eps, budget)
    assert shortfall > 1e-3 and gap >= shortfall


def test_self_times_on_a_nested_trace():
    # a [0, 10] has children b [1, 4] and c [3, 6] (c on a pool thread,
    # overlapping b); b has child d [2, 3]; e [20, 21] is a second root
    start = np.array([0.0, 1.0, 3.0, 2.0, 20.0])
    end = np.array([10.0, 4.0, 6.0, 3.0, 21.0])
    parent = np.array([-1, 0, 0, 1, -1])
    np.testing.assert_allclose(self_times(start, end, parent), [5.0, 2.0, 3.0, 1.0, 1.0])
    # each span gives back 0.1 for itself and 0.2 per direct child
    np.testing.assert_allclose(corrected_self_times(start, end, parent, 0.1, 0.2),
                               [4.5, 1.7, 2.9, 0.9, 0.9])


def test_calibration_removes_the_cost_of_empty_children():
    # the machine's speed drifts between a calibration and the loop after
    # it, so the share left over is judged as a median over several rounds
    shares = []
    for _ in range(5):
        inside, outside = calibrate()
        assert inside > 0.0 and outside > 0.0
        tracer = Tracer()
        empty = tracer.wrap("empty", lambda x, base: None)
        root = tracer.open("root")
        for _ in range(50000):
            empty(0.5, None)
        tracer.close(root)
        arrays = tracer.arrays()
        raw = self_times(arrays["start"], arrays["end"], arrays["parent"])[0]
        left = corrected_self_times(arrays["start"], arrays["end"], arrays["parent"],
                                    inside, outside)[0]
        shares.append(abs(left) / raw)
    assert statistics.median(shares) < 0.25, shares


def test_ascent_iterations_count_every_start():
    ascents = []
    original = worker.count_ascent_iterations(ascents)
    try:
        report = capacity.cea_multimode(
            GaugeMeasurement(np.diag([0.5, 1.5]).astype(complex)),
            capacity.EnergyConstraint(np.eye(2, dtype=complex), 2.0))
    finally:
        capacity._ascend = original
    assert len(ascents) == capacity.OptimizerSettings().starts
    assert report.iterations in ascents and sum(ascents) > report.iterations


def test_tracer_records_nesting_and_restores_names():

    before = {name: getattr(gauge, name) for name in ("posterior_params", "g_trace")}
    state, meas = GaugeState(np.eye(2)), GaugeMeasurement(np.eye(2))
    tracer = Tracer()
    tracer.install([gauge, matfun])
    try:
        gauge.entropy_reduction_gauge(state, meas)
    finally:
        tracer.uninstall()
    assert {name: getattr(gauge, name) for name in before} == before
    assert isinstance(gauge.g_trace, types.FunctionType)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "gauge.entropy_reduction_gauge"
    parents = list(tracer.parent)
    assert parents[0] == -1 and all(p >= 0 for p in parents[1:])
    assert parents[names.index("gauge.posterior_params")] == 0
    assert names.count("matfun.g_trace") == 2


# batch size to generate, and the jobs of it to run: a thermal and a
# two-mode oracle job; a chain, an s = 2 solve of each kind, a sweep and a verify
PICK = {"oracle": (5, (0, 4)),
        "analytic": (4 * workloads.ANALYTIC_QUARTER, (0, 24, 74, 8, 12))}


def _digests(name, count, tracer=None):
    os.makedirs(WORK, exist_ok=True)
    workload = workloads.WORKLOADS[name]
    rng = np.random.default_rng([5, worker.WORKLOAD_STREAM[name]])
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        jobs = workload.generate(rng, PICK[name][0], tmp)
        jobs = [jobs[i] for i in PICK[name][1]]
        if tracer is not None:
            tracer.install(worker.MODULES)
        try:
            _, _, results, failures, _ = worker.run_closed_loop(
                workload, jobs, os.path.join(tmp, "out"), count=count, tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        assert not any(failures)
        return [workload.digest(j, r) for j, r in zip(jobs, results)]


def test_traced_and_untraced_results_are_bit_identical():
    for name, (_, picked) in PICK.items():
        tracer = Tracer()
        count = len(picked)
        assert _digests(name, count) == _digests(name, count, tracer), name
        assert len(tracer.start) > 0


def test_same_seed_same_inputs():
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as a, tempfile.TemporaryDirectory(dir=WORK) as b:
        for name, workload in workloads.WORKLOADS.items():
            count = 8 if name == "oracle" else 200

            def batch(seed, where):
                rng = np.random.default_rng([seed, worker.WORKLOAD_STREAM[name]])
                return workloads.fingerprint(workload.generate(rng, count, where))

            assert batch(3, a) == batch(3, b), name
            assert batch(3, a) != batch(4, a), name


def test_tail_has_ten_jobs_beyond():
    times = [float(t) for t in range(100)]
    value, pct, beyond = worker.tail(times)
    assert sum(t > value for t in times) == 10 and beyond == 10 and pct == 90.0
    assert worker.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_loop_goes_round_the_batch_and_probes_before_each_job():
    class Echo:
        @staticmethod
        def run(job, workdir):
            return job

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        _, times, results, failures, probes = worker.run_closed_loop(
            Echo, ["a", "b", "c"], tmp, seconds=0.0)
    # a timed loop finishes its first round even when the time is up
    assert results == ["a", "b", "c"] and not any(failures)
    assert len(probes) == len(times) == 3 and min(probes) > 0.0


def test_reference_times_and_job_medians():
    ref = probe.REFERENCE_S
    # a job that ran while the probe took twice its reference time counts half
    assert abs(probe.at_reference_speed(4.0, 2 * ref) - 2.0) <= 1e-15
    assert abs(probe.at_reference_speed(3.0, ref) - 3.0) <= 1e-15
    times = [5.0, 1.0, 3.0, 2.0, 4.0, 1.5, 6.0]
    assert worker.job_medians(times, 3) == [5.0, 2.5, 2.25]
    assert worker.job_medians(times[:2], 3) == [5.0, 1.0]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == worker.per_layer_units()
    assert {m["name"] for m in spec["end_to_end"]} <= {
        "setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "max_err_over_tol",
        "failed_frac", "peak_rss_mb"}
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail overall
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
