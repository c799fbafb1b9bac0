"""Benchmark of gaussmeter: two seeded closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 50 --trace 0

The command fixes the thread counts of the measured process, times set-up
in several fresh processes, runs the workload in one more, checks every
job's output, and prints a report followed by one JSON line.  Job times
are scaled to a fixed reference speed of the machine by a speed probe timed
right before each job.  With
``--trace 0`` the JSON line holds the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "gaussmeter")
WORKLOADS = ("oracle", "analytic")
SETUP_ONLY = 2            # set-up is timed in this many extra starts and in the run
TIME_LIMIT_S = 170.0      # a run ends within this, or fails
VERIFY_CASES = 3          # suites in one verify job of the analytic workload


def thread_counts() -> tuple[int, int, int]:
    """``(nproc, blas_threads, verify_workers)`` with their product within nproc."""
    nproc = len(os.sched_getaffinity(0))
    workers = max(1, min(nproc, VERIFY_CASES))
    return nproc, max(1, nproc // workers), workers


def thread_env() -> dict[str, str]:
    """The thread settings of the measured process, as environment variables."""
    _, blas_threads, workers = thread_counts()
    env = {var: str(blas_threads)
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["GAUSSMETER_THREADS"] = str(workers)
    return env


def source_facts() -> dict:
    files = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {"src_loc": loc, "src_sha256": digest.hexdigest()}


def commit() -> str:
    """The checked-out commit, when the checkout is a git repository."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "unknown (not a git checkout)"


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run the worker until ``deadline`` at the latest (a ``time.perf_counter``
    reading); returns (seconds until it printed READY, its later stdout)."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - began
        if first.strip() != "READY":
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready, rest


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussmeter benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no gaussmeter sources under {PACKAGE}", file=sys.stderr)
        return 2
    spec = load_spec()

    deadline = time.perf_counter() + TIME_LIMIT_S
    nproc, blas_threads, workers = thread_counts()
    env = {**os.environ, **thread_env()}
    env.pop("PYTHONPATH", None)

    work_root = os.path.join(HERE, ".work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = os.path.join(work_root, f"spans-{args.workload}-{args.seed}.npz")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", workdir]
    try:
        setups = [spawn(common + ["--setup-only"], env, deadline)[0]
                  for _ in range(SETUP_ONLY)]
        ready, stdout = spawn(common + ["--spans", spans], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(ready)
    run = json.loads(stdout.strip().splitlines()[-1])

    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (run["jobs_per_s"], "1/s"),
        "job_p50_s": (run["job_p50_s"], "s"),
        "job_tail_s": (run["job_tail_s"], "s"),
        "max_err_over_tol": (run["max_err_over_tol"], "1"),
        "failed_frac": (run["failed_frac"], "1"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    correct = run["failed"] == 0 and run["max_err_over_tol"] <= 1.0
    if args.trace:
        correct = correct and run["traced_identical"]

    environment = {
        "nproc": nproc, "blas_threads": blas_threads, "gaussmeter_threads": workers,
        **run["environment"], "commit": commit(), **source_facts(),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment))
    print(f"inputs sha256 {run['fingerprint']} (batch of {run['batch']} jobs)")
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<18} {value:.6g} {unit}")
    print(f"  {run['attempted']} runs of {run['batch']} distinct jobs ({run['rounds']:.1f} "
          f"rounds) in {run['wall_s']:.3f} s; the tail is p{run['tail_percentile']:.2f} "
          f"of the distinct jobs, with {run['tail_jobs_beyond']} jobs beyond it")
    print(f"  times are at reference speed: the speed probe took {run['probe_p50_s']:.4g} s "
          f"(median) against its reference {run['probe_reference_s']:.4g} s; the wall-clock "
          f"job p50 was {run['wall_job_p50_s']:.6g} s")
    verdict = "PASS" if correct else "FAIL"
    detail = ", ".join(f"{k}: {v}" for k, v in sorted(run["failures"].items()))
    print(f"checks: {verdict}  ({run['failed']} of {run['attempted']} jobs failed"
          f"{'; ' + detail if detail else ''})")

    if args.trace:
        print(f"traced results identical to untraced: {run['traced_identical']}")
        inside, outside = run["span_cost_s"]
        print(f"tracer cost taken out of self times: {inside * 1e6:.3f} us per span, "
              f"{outside * 1e6:.3f} us per child span")
        print(f"spans saved to {os.path.relpath(spans, ROOT)}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": run["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
