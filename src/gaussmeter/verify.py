"""Randomized cross-checks of the closed forms against the Fock engine.

Each case returns a :class:`VerifyResult`; all draws are made from a
seeded generator so a report is reproducible from its seed.  The case
names double as the tokens accepted by the command line.  The ``cp`` and
``correspondence`` suites group their draws by mode count and evaluate each
group in one stacked call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import fockoracle as oracle
from .gauge import (
    GaugeMeasurement,
    GaugeState,
    cp_certificate,
    dual_channel_params,
    entropy_reduction_gauge,
    posterior_params,
)
from .symplectic import embed_gauge_invariant, entropy_reduction_general


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    worst: float
    bound: float
    detail: str


def _random_psd(rng: np.random.Generator, s: int, scale: float = 0.6) -> np.ndarray:
    a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    return scale * (a @ a.conj().T) / s


def check_posterior_family(seed: int = 0) -> VerifyResult:
    """Numeric posteriors must match the displaced-thermal closed form."""
    state = GaugeState(np.array([[1.0]]))
    meas = GaugeMeasurement(np.array([[1.0]]))
    post = posterior_params(state, meas)
    gain = post.gain[0, 0]
    dim = 40
    rho = oracle.thermal_state(1.0, dim)
    target_core = oracle.thermal_state(post.correlation[0, 0].real, dim)
    worst = 0.0
    axis = np.linspace(-np.sqrt(2.0), np.sqrt(2.0), 5)
    for x in axis:
        for y in axis:
            z = complex(x, y)
            numeric, _ = oracle.posterior_state(rho, 1.0, z)
            d_op = oracle.displacement(gain * z, dim)
            closed = d_op.conj().T @ target_core @ d_op
            worst = max(worst, oracle.trace_distance(numeric, closed))
    return VerifyResult(
        "lemma1", worst <= 1e-4, worst, 1e-4,
        f"max posterior trace distance {worst:.2e} over a 5x5 outcome grid",
    )


def check_gaussian_extremality(seed: int = 0) -> VerifyResult:
    """Numeric entropy reduction must match the closed form at thermal inputs."""
    worst = estimated = 0.0
    for lam, noise in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]:
        rho = oracle.thermal_state(lam, 40)
        grid = oracle.default_grid(lam, noise)
        value, estimate = oracle.er_numeric(rho, noise, grid)
        closed = entropy_reduction_gauge(
            GaugeState(np.array([[lam]])), GaugeMeasurement(np.array([[noise]]))
        )
        worst = max(worst, abs(value - closed))
        estimated = max(estimated, estimate)
    return VerifyResult(
        "theorem2", worst <= 1e-2, worst, 1e-2,
        f"max |numeric - closed| = {worst:.2e} over three thermal inputs "
        f"(max quadrature estimate {estimated:.2e})",
    )


def random_low_energy_state(rng: np.random.Generator, levels: int, dim: int
                            ) -> np.ndarray:
    """Random density operator supported on the lowest ``levels`` Fock states.

    A geometric envelope keeps the mean occupation near one so integration
    grids stay within the truncation's validity radius.
    """
    g = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
    envelope = np.diag(0.55 ** np.arange(levels))
    core = envelope @ (g @ g.conj().T) @ envelope
    core /= np.trace(core).real
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:levels, :levels] = core
    return rho


def check_phase_average_gain(seed: int = 0, draws: int = 6) -> VerifyResult:
    """Phase averaging may only increase the entropy reduction."""
    rng = np.random.default_rng(seed)
    dim, noise = 40, 1.0
    worst = np.inf
    for _ in range(draws):
        rho = random_low_energy_state(rng, 12, dim)
        _, lam, _ = oracle.normal_moments(rho)
        grid = oracle.default_grid(lam, noise)
        plain, _ = oracle.er_numeric(rho, noise, grid)
        averaged, _ = oracle.er_numeric(oracle.gauge_average(rho), noise, grid)
        worst = min(worst, averaged - plain)
    return VerifyResult(
        "prop1", worst >= -5e-3, worst, -5e-3,
        f"min (averaged - plain) entropy reduction = {worst:.2e} over {draws} draws",
    )


def _stacks_by_mode_count(rng: np.random.Generator, draws: int
                          ) -> list[tuple[GaugeState, GaugeMeasurement]]:
    """``draws`` random ``(Lambda, N)`` pairs at s = 1..3, one stacked
    state and measurement per mode count.

    Each draw takes its ``s``, then ``Lambda``, then ``N`` from ``rng``, so
    a seed gives the same pairs as a loop that evaluates each draw alone.
    """
    groups: dict[int, tuple[list, list]] = {}
    for _ in range(draws):
        s = int(rng.integers(1, 4))
        lams, noises = groups.setdefault(s, ([], []))
        lams.append(_random_psd(rng, s))
        noises.append(_random_psd(rng, s))
    return [(GaugeState(np.stack(lams)), GaugeMeasurement(np.stack(noises)))
            for lams, noises in groups.values()]


def check_cp_condition(seed: int = 0, draws: int = 200) -> VerifyResult:
    """The dual channel of every measurement must be completely positive."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for state, meas in _stacks_by_mode_count(rng, draws):
        _, margins = cp_certificate(dual_channel_params(state, meas))
        worst = min(worst, float(margins.min()))
    return VerifyResult(
        "cp", worst >= -1e-9, worst, -1e-9,
        f"min certificate margin {worst:.2e} over {draws} random channels",
    )


def check_representation_match(seed: int = 0, draws: int = 100) -> VerifyResult:
    """Complex and real covariance representations must agree to 1e-9."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for state, meas in _stacks_by_mode_count(rng, draws):
        alpha, general = embed_gauge_invariant(state, meas)
        gaps = np.abs(
            entropy_reduction_general(alpha, general)
            - entropy_reduction_gauge(state, meas)
        )
        worst = max(worst, float(gaps.max()))
    return VerifyResult(
        "correspondence", worst <= 1e-9, worst, 1e-9,
        f"max representation gap {worst:.2e} over {draws} random draws",
    )


CASES: dict[str, Callable[[int], VerifyResult]] = {
    "lemma1": check_posterior_family,
    "theorem2": check_gaussian_extremality,
    "prop1": check_phase_average_gain,
    "cp": check_cp_condition,
    "correspondence": check_representation_match,
}


def run_cases(names: Sequence[str], seed: int = 0) -> list[VerifyResult]:
    """Run the named suites in the order of :data:`CASES`."""
    wanted = set(names)
    return [case(seed) for name, case in CASES.items() if name in wanted]


def thread_cap() -> int:
    """``GAUSSMETER_THREADS`` as a positive count, else 1.  It sets nothing
    in the library; it stays only because ``perfbench/worker.py`` calls
    ``verify.thread_cap()`` for its traced ``verify.parallel_efficiency``."""
    raw = os.environ.get("GAUSSMETER_THREADS")
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1
