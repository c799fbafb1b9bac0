"""The measured process of one benchmark run.

``run.py`` starts this script with fixed thread counts.  It imports the
library, warms up with one job of each kind, prints ``READY`` (the end of
set-up), generates the seeded batch, and runs the closed loop round the
batch again and again until the time is up, timing the speed probe before
each job.  With ``--setup-only`` it stops after ``READY``; the parent uses
such starts to take set-up time several times per run.  With ``--trace 1`` it runs the loop for half
the time untraced, then repeats exactly the same jobs with the tracer
installed, and reports per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gaussmeter  # noqa: E402
from gaussmeter import (  # noqa: E402
    capacity, cli, errors, fockoracle, gauge, matfun, symplectic, verify,
)

import workloads  # noqa: E402
from probe import REFERENCE_S, at_reference_speed, speed_probe  # noqa: E402
from tracer import Tracer, calibrate, corrected_self_times  # noqa: E402

MODULES = (gaussmeter, capacity, cli, errors, fockoracle, gauge, matfun,
           symplectic, verify)
WORKLOAD_STREAM = {name: i for i, name in enumerate(workloads.WORKLOADS)}
TAIL_BEYOND = 10

# Per-layer metrics of the traced run, with units.  Every workload reports
# all of them; a layer a workload does not use reads 0.
SELF_TIMED = (
    "fockoracle.er_numeric", "fockoracle.validate_density",
    "fockoracle.von_neumann_entropy", "fockoracle.thermal_state",
    "fockoracle.gauge_average", "fockoracle.default_grid",
    "fockoracle.monte_carlo_grid", "fockoracle.validity_radius",
    "fockoracle.posterior_state", "fockoracle.displacement",
    "fockoracle.trace_distance",
    "capacity.cea_multimode", "capacity.sweep_one_mode",
    "matfun.g_scalar", "matfun.hermitian_function", "matfun.g_trace",
    "matfun.symplectic_spectrum", "matfun.psd_sqrt",
    "gauge.posterior_params", "gauge.entropy_reduction_gauge",
    "gauge.dual_channel_params", "gauge.cp_certificate",
    "symplectic.embed_gauge_invariant", "symplectic.entropy_reduction_general",
    "symplectic.posterior_covariance", "symplectic.gaussian_entropy",
    "symplectic.validate_covariance",
    "verify.run_cases", "cli.main", "cli.format_sweep_csv",
)
COUNTED = (
    "fockoracle.er_numeric", "capacity.cea_multimode", "matfun.g_scalar",
    "gauge.posterior_params", "gauge.entropy_reduction_gauge",
    "gauge.dual_channel_params", "gauge.cp_certificate",
)
ER_CLASSES = workloads.ORACLE_CLASSES
ORACLE_ERRORS = ("GridMassDeficit", "TruncationTooSmall", "NegligibleOutcome")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update({f"fockoracle.er_numeric.{c}.self_s": "s" for c in ER_CLASSES})
    units.update({f"fockoracle.errors.{e}": "count" for e in ORACLE_ERRORS})
    units.update({f"capacity.cea_multimode.s{k}.self_s": "s"
                  for k in workloads.CAPACITY_MODES})
    units.update({
        "capacity.iterations": "count", "capacity.iter_s": "s",
        "capacity.converged_frac": "1", "capacity.fw_gap_max": "bit",
        "capacity.shell_residual_max": "1", "capacity.sweep_one_mode.rows": "count",
        "verify.parallel_efficiency": "1", "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


def run_closed_loop(workload, jobs, workdir, seconds=None, count=None, tracer=None):
    """Run jobs one after another until ``seconds`` pass or ``count`` are done.

    The loop goes round the batch in order, so job ``i % len(jobs)`` is the
    ``i``-th run.  A timed loop always completes its first round.  Before
    each job it times :func:`speed_probe`.  Returns ``(wall, times, results,
    failures, probes)``.
    """
    os.makedirs(workdir, exist_ok=True)
    times, results, failures, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        i = len(times)
        if count is not None and i >= count:
            break
        if count is None and time.perf_counter() - start >= seconds and i >= len(jobs):
            break
        job = jobs[i % len(jobs)]
        if tracer is not None:
            tracer.job_id = i
        probes.append(speed_probe())
        began = time.perf_counter()
        try:
            result, failure = workload.run(job, workdir), None
        except Exception as exc:  # a failing job is counted, the loop goes on
            result, failure = None, type(exc).__name__
            if failure not in failures:
                traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - began)
        results.append(result)
        failures.append(failure)
    return time.perf_counter() - start, times, results, failures, probes


def job_medians(times: list[float], batch: int) -> list[float]:
    """Each distinct job's median time over the rounds that ran it."""
    return [statistics.median(times[j::batch]) for j in range(min(batch, len(times)))]


def tail(times: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile with at least ten jobs beyond it.

    Returns ``(time, percentile, jobs_beyond)``; with ten jobs or fewer the
    slowest job is reported with no job beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n, TAIL_BEYOND


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def count_ascent_iterations(ascents: list[int]):
    """Record the iterations of every start of ``cea_multimode``; returns the original.

    ``CapacityReport.iterations`` holds only the winning start's count, so
    the private ascent is rebound to a wrapper that appends each start's
    count (element 2 of its result) to ``ascents``.  No span is recorded.
    """
    original = capacity._ascend

    @functools.wraps(original)
    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        ascents.append(out[2])
        return out

    capacity._ascend = counted
    return original


def layer_metrics(tracer, cost, ascents, jobs, results, verdicts, untraced_wall,
                  traced_wall):
    arrays = tracer.arrays()
    self_s = corrected_self_times(arrays["start"], arrays["end"], arrays["parent"], *cost)
    names = np.array(tracer.names, dtype=str)[arrays["name_id"]]
    labels = np.array([jobs[j % len(jobs)].label for j in arrays["job"]], dtype=str)

    def total(name, label=None):
        mask = names == name
        if label is not None:
            mask &= labels == label
        return float(self_s[mask].sum())

    out = {f"{name}.self_s": total(name) for name in SELF_TIMED}
    out.update({f"{name}.calls": int((names == name).sum()) for name in COUNTED})
    out.update({f"fockoracle.er_numeric.{c}.self_s": total("fockoracle.er_numeric", c)
                for c in ER_CLASSES})
    out.update({f"fockoracle.errors.{e}": tracer.errors.get(("fockoracle", e), 0)
                for e in ORACLE_ERRORS})
    out.update({f"capacity.cea_multimode.s{k}.self_s":
                total("capacity.cea_multimode", f"s{k}")
                for k in workloads.CAPACITY_MODES})

    reports = [r for r in results if isinstance(r, capacity.CapacityReport)]
    iterations = sum(ascents)
    details = [v.details for v in verdicts]
    out["capacity.iterations"] = iterations
    out["capacity.iter_s"] = (out["capacity.cea_multimode.self_s"] / iterations
                              if iterations else 0.0)
    out["capacity.converged_frac"] = (
        sum(r.converged for r in reports) / len(reports) if reports else 0.0)
    out["capacity.fw_gap_max"] = max((d["fw_gap"] for d in details if "fw_gap" in d),
                                     default=0.0)
    out["capacity.shell_residual_max"] = max(
        (d["shell_residual"] for d in details if "shell_residual" in d), default=0.0)
    out["capacity.sweep_one_mode.rows"] = sum(d.get("rows", 0) for d in details)

    # summed check_* time over the pool's capacity while run_cases ran
    durations = arrays["end"] - arrays["start"]
    busy = float(durations[np.char.startswith(names, "verify.check_")].sum())
    cases_wall = float(durations[names == "verify.run_cases"].sum())
    workers = min(verify.thread_cap(), len(workloads.VERIFY_CASES))
    out["verify.parallel_efficiency"] = busy / (cases_wall * workers) if cases_wall else 0.0
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.spans"] = int(names.size)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="where a traced run saves spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    workload.warm_up(args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = np.random.default_rng([args.seed, WORKLOAD_STREAM[args.workload]])
    jobs = workload.generate(rng, workloads.BATCH[args.workload], args.workdir)
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    wall, times, results, failures, probes = run_closed_loop(
        workload, jobs, os.path.join(args.workdir, "untraced"), seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [jobs[i % len(jobs)] for i in range(len(times))]
    digests = [None if r is None else workload.digest(j, r)
               for j, r in zip(done, results)]

    verdicts = workload.check(done, results)
    by_type: dict[str, int] = {}
    for i, verdict in enumerate(verdicts):
        reason = failures[i] or verdict.failure or (
            "CheckExceeded" if verdict.err_over_tol > 1.0 else None)
        failures[i] = reason
        if reason:
            by_type[reason] = by_type.get(reason, 0) + 1
    failed = sum(1 for f in failures if f)
    # The machine's speed drifts, in bursts from under a second to minutes
    # long, so each job's time is scaled by the speed probe taken just before
    # it, and each distinct job is timed by its median over the rounds; see
    # README.md, "Why reference-speed times".
    batch = len(jobs)
    medians = job_medians(list(map(at_reference_speed, times, probes)), batch)
    p_tail, pct, beyond = tail(medians)
    out = {
        "attempted": len(times),
        "failed": failed,
        "failures": by_type,
        "fingerprint": workloads.fingerprint(jobs),
        "batch": batch,
        "rounds": len(times) / batch,
        "wall_s": wall,
        "wall_job_p50_s": statistics.median(job_medians(times, batch)),
        "probe_p50_s": statistics.median(probes),
        "probe_reference_s": REFERENCE_S,
        "jobs_per_s": len(medians) / sum(medians),
        "job_p50_s": statistics.median(medians),
        "job_tail_s": p_tail,
        "tail_percentile": pct,
        "tail_jobs_beyond": beyond,
        "max_err_over_tol": max((v.err_over_tol for v in verdicts), default=0.0),
        "failed_frac": failed / len(times),
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }

    if args.trace:
        cost = calibrate()
        ascents: list[int] = []
        tracer = Tracer()
        tracer.install(MODULES)
        ascend = count_ascent_iterations(ascents)
        try:
            traced_wall, _, traced_results, _, _ = run_closed_loop(
                workload, jobs, os.path.join(args.workdir, "traced"),
                count=len(times), tracer=tracer)
        finally:
            capacity._ascend = ascend
            tracer.uninstall()
        traced_digests = [None if r is None else workload.digest(j, r)
                          for j, r in zip(done, traced_results)]
        out["traced_identical"] = traced_digests == digests
        out["per_layer"] = layer_metrics(tracer, cost, ascents, jobs, traced_results,
                                         verdicts, wall, traced_wall)
        out["span_cost_s"] = cost
        if args.spans:
            tracer.save(args.spans)

    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
