"""The benchmark's two workloads: seeded inputs, jobs, and output checks.

A workload is a batch of jobs generated from the seed before anything is
timed.  The closed loop runs them in order, one at a time, and wraps around
the batch if a long run exhausts it.  Each job calls the library through
module attributes (``fockoracle.er_numeric``, not a name imported once), so
the tracer's wrappers see every call.  Checks run after the loop, outside
the timed region and with tracing off.

Tolerances are the ones the repository's own checks enforce for the same
comparison; each is named where it is defined.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from gaussmeter import capacity, cli, fockoracle, gauge, symplectic, verify
from gaussmeter.capacity import EnergyConstraint, SweepPoint
from gaussmeter.gauge import GaugeMeasurement, GaugeState

import reference

# -- sizes -------------------------------------------------------------------

ONE_MODE_DIM = 40          # the truncation the acceptance criteria use
ONE_MODE_NOISE = 1.0
TWO_MODE_DIM = 16
TWO_MODE_SAMPLES = 48      # Monte Carlo points per two-mode job
CAPACITY_MODES = (2, 3)    # s of the capacity solves
ANALYTIC_QUARTER = 25      # jobs per quarter round: a solve, two sweeps, the rest chains
SWEEP_SLOTS = (8, 16)      # places of the sweeps in a quarter
VERIFY_SLOT = 12           # place of the verify job in its quarter
SWEEP_NOISES = 6
SWEEP_ENERGIES = 300
VERIFY_CASES = ("lemma1", "cp", "correspondence")

# Distinct jobs in one round of the loop: one job per oracle class, and four
# analytic quarters, which hold each (s, kind) pair of capacity solve once.
# A round takes 2-4 s on a 2-core x86-64 machine, so a 50 s run repeats every
# job 12-25 times.
BATCH = {"oracle": 5, "analytic": 4 * ANALYTIC_QUARTER}

# -- tolerances ---------------------------------------------------------------

THERMAL_TOL = 1e-2         # verify "theorem2", acceptance criterion 2
GAUSSIAN_BOUND_TOL = 5e-3  # acceptance criterion 8
AVERAGING_TOL = 5e-3       # verify "prop1", acceptance criterion 7
TWO_MODE_TOL = 2e-2        # the suite's two-mode Monte Carlo test
CAPACITY_TOL = 1e-6        # acceptance criterion 9 (optimizer vs reference, shell)
CORRESPONDENCE_TOL = 1e-9  # verify "correspondence", acceptance criterion 4
CP_TOL = 1e-9              # verify "cp"


@dataclass
class Job:
    kind: str
    label: str                       # per-layer breakdown key (input class or s<k>)
    params: dict[str, Any]


@dataclass
class Verdict:
    err_over_tol: float = 0.0
    failure: Optional[str] = None
    details: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[np.random.Generator, int, str], list[Job]]
    run: Callable[[Job, str], Any]
    digest: Callable[[Job, Any], tuple]
    check: Callable[[list[Job], list[Any]], list[Verdict]]
    warm_up: Callable[[str], None]


# -- shared input generators ----------------------------------------------------

def low_energy_state(rng: np.random.Generator, levels: int, dim: int) -> np.ndarray:
    """Random non-diagonal density operator of rank ``levels``, mean occupation near one."""
    g = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
    envelope = np.diag(0.55 ** np.arange(levels))
    core = envelope @ (g @ g.conj().T) @ envelope
    core /= np.trace(core).real
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:levels, :levels] = core
    return rho


def unit_mean_mixture(rng: np.random.Generator, levels: int, dim: int) -> np.ndarray:
    """Diagonal mixture of the lowest ``levels`` number states with mean occupation 1."""
    weights = rng.uniform(0.05, 1.0, size=levels) * 0.6 ** np.arange(levels)
    probs = weights / weights.sum()
    mean = float(np.arange(levels) @ probs)
    if mean >= 1.0:
        t = 1.0 / mean
        adjusted = t * probs
        adjusted[0] += 1.0 - t
    else:
        k = levels - 1
        t = (k - 1.0) / (k - mean)
        adjusted = t * probs
        adjusted[k] += 1.0 - t
    rho = np.zeros((dim, dim), dtype=complex)
    rho[np.arange(levels), np.arange(levels)] = adjusted
    return rho


def mean_occupation(rho: np.ndarray) -> float:
    """Normal second moment ``Tr(a^dag a rho)`` of a one-mode state."""
    return float(np.arange(rho.shape[0]) @ np.diag(rho).real)


def random_hermitian(rng: np.random.Generator, s: int) -> np.ndarray:
    a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    return (a + a.conj().T) / 2.0


def unitary_from(generator: np.ndarray) -> np.ndarray:
    """``exp(i H)`` of a Hermitian generator ``H``."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(1j * w)) @ v.conj().T


def random_psd(rng: np.random.Generator, s: int, rank: int) -> np.ndarray:
    a = rng.normal(size=(s, rank)) + 1j * rng.normal(size=(s, rank))
    return 0.6 * (a @ a.conj().T) / s


def gaussian_er(lam: float, noise: float) -> float:
    """Closed-form one-mode entropy reduction (the Gaussian bound at ``lam``)."""
    return gauge.entropy_reduction_gauge(
        GaugeState(np.array([[lam]])), GaugeMeasurement(np.array([[noise]]))
    )


def _hex(x) -> str:
    return float(x).hex()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(jobs: list[Job]) -> str:
    """SHA-256 over every input of the batch, in order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.kind.encode())
        for key in sorted(job.params):
            value = job.params[key]
            h.update(key.encode())
            if key.endswith("_path"):
                continue                     # where an input is stored is not an input
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, float):
                h.update(value.hex().encode())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def _ratio(excess: float, tol: float) -> float:
    return max(0.0, excess) / tol


# -- oracle -------------------------------------------------------------------

ORACLE_CLASSES = ("thermal", "mixture", "general", "averaged", "two_mode")


def _two_mode_grid(lam, noise, seed, samples=TWO_MODE_SAMPLES):
    return fockoracle.monte_carlo_grid(np.diag(lam + noise + 1.0), samples, seed)


def _two_mode_inputs(rng):
    lam = rng.uniform(0.1, 0.35, size=2)
    noise = rng.uniform(0.1, 0.35, size=2)
    radius = min(fockoracle.validity_radius(TWO_MODE_DIM, n) for n in noise)
    # Each sample carries 1/48 of the outcome mass, so a sample beyond the
    # truncation's validity radius fails the mass check by design.  Draw the
    # sampling seed from those whose samples all lie inside the radius.
    while True:
        seed = int(rng.integers(2**31))
        if np.abs(_two_mode_grid(lam, noise, seed).points).max() <= radius:
            return {"lam": lam, "noise": noise, "mc_seed": seed}


def _oracle_generate(rng, count, workdir):
    # As in acceptance criteria 7 and 8, every one-mode job has noise 1 and
    # the grid of a unit-mean input, so each integrates the same 4761 points
    # and the seed changes only the state: the cost per job does not depend
    # on the seed.  A two-mode job's sample count is set to cost about as
    # much as a one-mode job, so job times form one mode, not two.
    jobs: list[Job] = []
    noise = ONE_MODE_NOISE
    for i in range(count):
        kind = ORACLE_CLASSES[i % len(ORACLE_CLASSES)]
        if kind == "thermal":
            params = {"lam": float(rng.uniform(0.75, 1.25)), "noise": noise}
        elif kind == "mixture":
            params = {"rho": unit_mean_mixture(rng, 12, ONE_MODE_DIM), "lam": 1.0,
                      "noise": noise}
        elif kind == "general":
            rho = low_energy_state(rng, 12, ONE_MODE_DIM)
            params = {"rho": rho, "lam": mean_occupation(rho), "noise": noise}
        elif kind == "averaged":
            # the phase-averaged twin of the general state just before it
            params = dict(jobs[-1].params)
        else:
            params = _two_mode_inputs(rng)
        jobs.append(Job(kind, kind, params))
    return jobs


def _oracle_run(job, workdir):
    p = job.params
    if job.kind == "two_mode":
        rho = fockoracle.thermal_state(p["lam"], TWO_MODE_DIM)
        grid = fockoracle.monte_carlo_grid(
            np.diag(p["lam"] + p["noise"] + 1.0), TWO_MODE_SAMPLES, p["mc_seed"]
        )
        return fockoracle.er_numeric(rho, p["noise"], grid)
    grid = fockoracle.default_grid(1.0, p["noise"])
    if job.kind == "thermal":
        rho = fockoracle.thermal_state(p["lam"], ONE_MODE_DIM)
    elif job.kind == "averaged":
        rho = fockoracle.gauge_average(p["rho"])
    else:
        rho = p["rho"]
    return fockoracle.er_numeric(rho, p["noise"], grid)


def _er_digest(job, result):
    value, error = result
    return (_hex(value), _hex(error))


def _oracle_check(jobs, results):
    verdicts = []
    for i, (job, result) in enumerate(zip(jobs, results)):
        if result is None:
            verdicts.append(Verdict())
            continue
        value, p = result[0], job.params
        if job.kind == "two_mode":
            closed = sum(gaussian_er(l, n) for l, n in zip(p["lam"], p["noise"]))
            verdicts.append(Verdict(abs(value - closed) / TWO_MODE_TOL))
            continue
        bound = gaussian_er(p["lam"], p["noise"])
        if job.kind == "thermal":
            ratio = abs(value - bound) / THERMAL_TOL
        else:
            ratio = _ratio(value - bound, GAUSSIAN_BOUND_TOL)
        if job.kind == "averaged" and i > 0 and results[i - 1] is not None:
            plain = results[i - 1][0]
            ratio = max(ratio, _ratio(plain - value, AVERAGING_TOL))
        verdicts.append(Verdict(ratio))
    return verdicts


def _oracle_warm_up(workdir):
    """One job of each class on a coarse grid or a two-point sample."""
    rng = np.random.default_rng(0)
    for job in _oracle_generate(rng, len(ORACLE_CLASSES), workdir):
        p = job.params
        if job.kind == "two_mode":
            rho = fockoracle.thermal_state(p["lam"], TWO_MODE_DIM)
            grid = _two_mode_grid(p["lam"], p["noise"], p["mc_seed"], samples=2)
            fockoracle.er_numeric(rho, p["noise"], grid, mass_tol=1.0)
            continue
        sigma = math.sqrt(p["lam"] + p["noise"] + 1.0)
        coarse = fockoracle.cartesian_grid(5.0 * sigma, 0.8 * sigma)
        rho = (fockoracle.thermal_state(p["lam"], ONE_MODE_DIM)
               if job.kind == "thermal" else p["rho"])
        if job.kind == "averaged":
            rho = fockoracle.gauge_average(rho)
        fockoracle.er_numeric(rho, p["noise"], coarse)


# -- analytic: capacity solves ------------------------------------------------

def _capacity_template(s: int):
    """Fixed template instance of s modes: occupations, energies, rotations."""
    base = np.random.default_rng(s)
    occ = base.permutation(0.2 + 1.6 * (np.arange(s) + 0.5) / s)
    costs = 1.0 + (np.arange(s) + 0.5) / s
    return occ, costs, random_hermitian(base, s), random_hermitian(base, s)


def capacity_instance(rng: np.random.Generator, s: int, commuting: bool):
    """Noise and energy matrices: a seeded perturbation of a fixed template.

    The optimizer's cost is heavy-tailed over independent random instances
    (11 to 1159 iterations over 54 draws at s = 2..4; the slowest solve took
    205 s, longer than a run may last), so no run of a few tens of solves
    is steady from seed to seed.  Perturbing one template per s instead
    (spectra by up to 3 %, rotation generators by 0.1) keeps the cost per
    solve within about 10 %.  The budget is one quantum per mode.
    """
    occ, costs, gen_noise, gen_eps = _capacity_template(s)
    occ = occ * (1.0 + rng.uniform(-0.03, 0.03, s))
    costs = costs * (1.0 + rng.uniform(-0.03, 0.03, s))
    if commuting:
        return np.diag(occ).astype(complex), np.diag(costs).astype(complex), float(s)
    u = unitary_from(gen_noise + 0.1 * random_hermitian(rng, s))
    v = unitary_from(gen_eps + 0.1 * random_hermitian(rng, s))
    return (u * occ) @ u.conj().T, (v * costs) @ v.conj().T, float(s)


def _capacity_job(rng, quarter):
    # s alternates from quarter to quarter and the kind every second one, so
    # four quarters hold each (s, kind) pair once
    s = CAPACITY_MODES[quarter % len(CAPACITY_MODES)]
    commuting = (quarter // len(CAPACITY_MODES)) % 2 == 0
    noise, eps, budget = capacity_instance(rng, s, commuting)
    return Job("commuting" if commuting else "non-commuting", f"s{s}",
               {"noise": noise, "eps": eps, "budget": budget})


def _capacity_run(job):
    p = job.params
    return capacity.cea_multimode(
        GaugeMeasurement(p["noise"]), EnergyConstraint(p["eps"], p["budget"])
    )


def _capacity_digest(report):
    return (_hex(report.assisted), _hex(report.energy_used), report.iterations,
            _hex(report.grad_norm), report.converged,
            _sha(report.best_state.correlation.tobytes()))


def _capacity_check(job, report):
    p = job.params
    residual = abs(report.energy_used - p["budget"]) / p["budget"]
    details = {"shell_residual": residual}
    if job.kind == "commuting":
        best, _ = reference.water_filling(
            np.diag(p["noise"]).real, np.diag(p["eps"]).real, p["budget"]
        )
        err = abs(report.assisted - best)
    else:
        err = reference.frank_wolfe_gap(
            report.best_state.correlation, p["noise"], p["eps"], p["budget"]
        )
        details["fw_gap"] = err
    ratio = max(_ratio(err, CAPACITY_TOL), residual / CAPACITY_TOL)
    return Verdict(ratio, None if report.converged else "NotConverged", details)


# -- analytic: closed forms, CLI sweeps, verify suites --------------------------

def _chain_inputs(rng, i):
    s = 1 + i % 4
    lam_rank = s - 1 if (s > 1 and i % 5 == 0) else s          # singular Lambda
    if i % 7 == 0:
        noise = np.zeros((s, s), dtype=complex)                  # heterodyne
    else:
        noise = random_psd(rng, s, s - 1 if (s > 1 and i % 3 == 0) else s)
    return {"lam": random_psd(rng, s, lam_rank), "noise": noise}


def _write_sweep_spec(rng, path):
    noises = sorted(float(x) for x in rng.uniform(0.0, 10.0, SWEEP_NOISES))
    spec = {"N": noises,
            "E": {"min": float(rng.uniform(0.005, 0.02)), "max": 100.0,
                  "count": SWEEP_ENERGIES, "scale": "log"},
            "base": "bits"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return json.dumps(spec)


def _analytic_generate(rng, count, workdir):
    # Each quarter of 25 jobs ends with a capacity solve and holds two
    # sweeps; every fourth quarter, from the first, holds a verify job.
    jobs = []
    for i in range(count):
        quarter, slot = divmod(i, ANALYTIC_QUARTER)
        if slot == ANALYTIC_QUARTER - 1:
            jobs.append(_capacity_job(rng, quarter))
        elif slot in SWEEP_SLOTS:
            spec = os.path.join(workdir, f"sweep-spec-{i}.json")
            jobs.append(Job("sweep", "sweep",
                            {"spec_path": spec, "spec": _write_sweep_spec(rng, spec),
                             "index": i}))
        elif slot == VERIFY_SLOT and quarter % 4 == 0:
            jobs.append(Job("verify", "verify", {"seed": int(rng.integers(2**31))}))
        else:
            jobs.append(Job("chain", f"s{1 + i % 4}", _chain_inputs(rng, i)))
    return jobs


def _sweep_paths(job, workdir):
    stem = os.path.join(workdir, f"sweep-{job.params['index']}")
    return stem + ".csv", stem + ".svg"


def _analytic_run(job, workdir):
    p = job.params
    if job.kind == "chain":
        state, meas = GaugeState(p["lam"]), GaugeMeasurement(p["noise"])
        post = gauge.posterior_params(state, meas)
        er = gauge.entropy_reduction_gauge(state, meas)
        ok, margin = gauge.cp_certificate(gauge.dual_channel_params(state, meas))
        alpha, general = symplectic.embed_gauge_invariant(state, meas)
        er_general = symplectic.entropy_reduction_general(alpha, general)
        return post, er, ok, margin, er_general
    if job.kind == "sweep":
        csv_path, svg_path = _sweep_paths(job, workdir)
        code = cli.main(["sweep", "--spec", p["spec_path"], "--out", csv_path,
                         "--svg", svg_path])
        return code, csv_path, svg_path
    if job.kind == "verify":
        return verify.run_cases(list(VERIFY_CASES), p["seed"])
    return _capacity_run(job)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _analytic_digest(job, result):
    if job.kind == "chain":
        post, er, ok, margin, er_general = result
        return (_sha(post.gain.tobytes() + post.correlation.tobytes()),
                _hex(er), ok, _hex(margin), _hex(er_general))
    if job.kind == "sweep":
        code, csv_path, svg_path = result
        return (code, _sha(_read(csv_path)), _sha(_read(svg_path)))
    if job.kind == "verify":
        return tuple((r.name, r.passed, _hex(r.worst)) for r in result)
    return _capacity_digest(result)


def reparse_sweep_csv(text: str) -> tuple[str, int]:
    """Parse a sweep CSV and format it again; returns ``(text, rows)``."""
    lines = text.split("\n")
    rows = [SweepPoint(*(float(v) for v in line.split(",")))
            for line in lines[1:] if line]
    return cli.format_sweep_csv(rows), len(rows)


def _sweep_check(result):
    code, csv_path, _ = result
    text = _read(csv_path).decode("utf-8")
    again, rows = reparse_sweep_csv(text)
    failure = None
    if code != 0:
        failure = f"ExitCode{code}"
    elif again != text:
        failure = "CsvRoundTrip"
    elif rows != SWEEP_NOISES * SWEEP_ENERGIES:
        failure = "CsvRowCount"
    return Verdict(0.0, failure, {"rows": rows})


def _verify_check(results):
    ratio, failure = 0.0, None
    for res in results:
        if res.name == "cp":
            ratio = max(ratio, _ratio(-res.worst, -res.bound))
        else:
            ratio = max(ratio, res.worst / res.bound)
        if not res.passed:
            failure = f"VerifyFailed:{res.name}"
    return Verdict(ratio, failure)


def _analytic_check(jobs, results):
    verdicts = []
    for job, result in zip(jobs, results):
        if result is None:
            verdicts.append(Verdict())
        elif job.kind == "chain":
            _, er, ok, margin, er_general = result
            ratio = max(abs(er - er_general) / CORRESPONDENCE_TOL,
                        _ratio(-margin, CP_TOL))
            verdicts.append(Verdict(ratio, None if ok else "CertificateFailed"))
        elif job.kind == "sweep":
            verdicts.append(_sweep_check(result))
        elif job.kind == "verify":
            verdicts.append(_verify_check(result))
        else:
            verdicts.append(_capacity_check(job, result))
    return verdicts


def _analytic_warm_up(workdir):
    """A chain, a sweep, a verify job, and an s = 2 solve of each kind."""
    jobs = _analytic_generate(np.random.default_rng(0), 4 * ANALYTIC_QUARTER, workdir)
    for i in (0, SWEEP_SLOTS[0], VERIFY_SLOT, ANALYTIC_QUARTER - 1,
              3 * ANALYTIC_QUARTER - 1):
        _analytic_run(jobs[i], workdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle", _oracle_generate, _oracle_run, _er_digest,
                 _oracle_check, _oracle_warm_up),
        Workload("analytic", _analytic_generate, _analytic_run,
                 _analytic_digest, _analytic_check, _analytic_warm_up),
    )
}
