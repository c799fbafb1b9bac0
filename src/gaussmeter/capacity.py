"""Energy-constrained capacities of phase-insensitive Gaussian measurements.

One-mode assisted and unassisted capacities in closed form, their ratio
(the assistance gain), the large-energy excess limit, parameter sweeps for
plotting, and the multimode capacity as a trace-constrained maximization
of the entropy reduction over input correlation matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionDegenerate,
    InfeasibleConstraint,
    InvalidRange,
    NotPositiveDefinite,
)
from .gauge import GaugeMeasurement, GaugeState, _entropy_reduction_gradient
from .matfun import SMALLEST_NORMAL, LogBase, as_hermitian, g_scalar, hermitian_function

# The multimode ascent stops at a Frank-Wolfe gap (in the report's base) of
# GAP_TOL.  Its line search takes a rise below VALUE_RTOL of the value from
# the slopes: values that close carry too much roundoff to rank such steps.
# Every trial step after the first is a Barzilai-Borwein step; INIT_STEP
# seeds the first iteration only.
GAP_TOL = 1e-10
VALUE_RTOL = 1e-12
MAX_ITER = 10_000
INIT_STEP = 0.25


@dataclass(frozen=True)
class EnergyConstraint:
    """Mean-energy constraint ``Sp(hamiltonian @ Lambda) <= budget``.

    ``hamiltonian`` is the positive definite Hermitian matrix of one-particle
    energies; ``budget`` is the positive, finite mean-energy bound.
    """

    hamiltonian: np.ndarray
    budget: float

    def __post_init__(self):
        h = as_hermitian(self.hamiltonian)
        if h.ndim != 2:
            raise DimensionMismatch(f"energy matrix must be one matrix, got shape {h.shape}")
        if np.linalg.eigvalsh(h).min() <= 1e-12:
            raise NotPositiveDefinite("energy matrix must be positive definite")
        if not 0.0 < self.budget < math.inf:
            raise InfeasibleConstraint(
                f"energy budget must be positive and finite, got {self.budget}"
            )
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "budget", float(self.budget))

    @property
    def s(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class CapacityReport:
    """Result of a capacity computation.

    ``unassisted`` and ``gain`` are populated for one mode only, where the
    printed closed form is available.  ``gap`` is the Frank-Wolfe duality
    gap at ``best_state``, an upper bound on the capacity minus ``assisted``;
    ``converged`` holds exactly when it is at most :data:`GAP_TOL`.
    """

    assisted: float
    unassisted: Optional[float]
    gain: Optional[float]
    best_state: GaugeState
    energy_used: float
    base: LogBase
    converged: bool = True
    iterations: int = 0
    grad_norm: float = 0.0
    gap: float = 0.0


def _check_scalar_args(energy, noise) -> tuple[np.ndarray, np.ndarray]:
    """``energy`` and ``noise`` as float arrays, once every entry is in range."""
    energy, noise = np.asarray(energy, dtype=float), np.asarray(noise, dtype=float)
    bad = ~((0.0 < energy) & (energy < math.inf))
    if bad.any():
        raise InvalidRange(f"energy must be positive and finite, got {energy[bad][0]}")
    bad = ~((0.0 <= noise) & (noise < math.inf))
    if bad.any():
        raise InvalidRange(f"noise must be finite and nonnegative, got {noise[bad][0]}")
    return energy, noise


def cea_one_mode(
    energy: float | np.ndarray, noise: float | np.ndarray, base: LogBase = LogBase.BITS
) -> float | np.ndarray:
    """Assisted capacity of the one-mode measurement with noise ``noise``.

    ``g(E) - g(M)`` with ``M = N E / (N + E + 1)``, in the requested base;
    the optimal input correlation equals the energy budget.  ``energy`` and
    ``noise`` are scalars or arrays that broadcast together; returns a
    ``float`` for scalars, else an array.

    The two terms cancel as ``M`` nears ``E`` at large noise (the difference
    read 0 from N = 1e16 at E = 1), so it is taken in log1p terms of
    ``delta = E - M = E (E + 1) / (N + E + 1)``::

        delta log1p(1/E) + log1p(E / (N + 1)) - M log1p(1/N)

    which keeps a relative error of a few ulps at every noise; the gain
    tends to ``(E + 1) log(1 + 1/E)`` as N grows.  N = 0 and subnormal
    arguments take the plain difference, so the noiseless capacity is
    ``g_scalar(E)`` exactly.
    """
    energy, noise = np.broadcast_arrays(*_check_scalar_args(energy, noise))
    total = noise + energy + 1.0
    reduced = noise * energy / total
    # 1/x is inf at N = 0 and for a subnormal E or N: those entries take the
    # plain difference below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.asarray(energy * ((energy + 1.0) / total) * np.log1p(1.0 / energy)
                         + np.log1p(energy / (noise + 1.0))
                         - reduced * np.log1p(1.0 / noise))
    plain = np.minimum(energy, noise) < SMALLEST_NORMAL
    if plain.any():
        out[plain] = (g_scalar(energy[plain], LogBase.NATS)
                      - g_scalar(reduced[plain], LogBase.NATS))
    out = out / base.ln_base
    return float(out) if out.ndim == 0 else out


def c_unassisted_one_mode(
    energy: float | np.ndarray, noise: float | np.ndarray, base: LogBase = LogBase.BITS
) -> float | np.ndarray:
    """Unassisted capacity ``log(N+E+1) - log(N+1)`` of the one-mode measurement.

    Takes scalars or arrays like :func:`cea_one_mode`.
    """
    energy, noise = _check_scalar_args(energy, noise)
    out = np.log1p(energy / (noise + 1.0)) / base.ln_base
    return float(out) if out.ndim == 0 else out


def _ratio(assisted, unassisted):
    """The gain ``assisted / unassisted``, of scalars or of arrays.

    Raises:
        DivisionDegenerate: if an unassisted capacity is below 1e-300,
            where the quotient would be subnormal, infinite or NaN.
    """
    if np.min(unassisted) < 1e-300:
        raise DivisionDegenerate(
            f"unassisted capacity {np.min(unassisted):.3e} underflowed below 1e-300")
    return assisted / unassisted


def gain(energy: float, noise: float, base: LogBase = LogBase.BITS) -> float:
    """Assistance gain, the ratio of assisted to unassisted capacity."""
    return _ratio(cea_one_mode(energy, noise, base), c_unassisted_one_mode(energy, noise, base))


def excess_limit(noise: float, base: LogBase = LogBase.BITS) -> float:
    """Large-energy limit of the assisted-minus-unassisted capacity difference.

    ``log e - N log(1 + 1/N)``, which decays to zero for large noise.  From
    ``N = 16`` on, ``1 - N log1p(1/N)`` is the series
    ``sum_k (-1)^k x^(k+1) / (k+2)`` in ``x = 1/N``, summed to 15 terms by
    Horner, since the difference cancels there (it read 0 from ``N = 1e16``).
    Below :data:`~gaussmeter.matfun.SMALLEST_NORMAL`, where ``1/N`` overflows,
    ``log(1 + 1/N)`` is taken as ``log1p(N) - log(N)``.
    """
    if not 0.0 < noise < math.inf:
        raise InvalidRange(f"noise must be positive and finite, got {noise}")
    if noise < SMALLEST_NORMAL:
        return (1.0 - noise * (math.log1p(noise) - math.log(noise))) / base.ln_base
    if noise < 16.0:
        return (1.0 - noise * math.log1p(1.0 / noise)) / base.ln_base
    x = 1.0 / noise
    series = 0.0
    for k in range(14, -1, -1):
        series = 1.0 / (k + 2) - x * series
    return x * series / base.ln_base


class SweepPoint(NamedTuple):
    noise: float
    energy: float
    assisted: float
    unassisted: float
    gain: float


def _sweep_columns(
    noise_values: Sequence[float],
    energy_grid: Sequence[float],
    base: LogBase = LogBase.BITS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sweep table as the five float columns of :class:`SweepPoint`.

    Entries are ordered by noise, then energy, both sorted; the gain column
    follows :func:`gain`'s rule.
    """
    if len(noise_values) == 0 or len(energy_grid) == 0:
        raise InvalidRange("sweep grids must be nonempty")
    noise, energy = np.meshgrid(np.sort(noise_values), np.sort(energy_grid),
                                indexing="ij")
    noise, energy = noise.ravel(), energy.ravel()
    assisted = cea_one_mode(energy, noise, base)
    unassisted = c_unassisted_one_mode(energy, noise, base)
    return noise, energy, assisted, unassisted, _ratio(assisted, unassisted)


def sweep_one_mode(
    noise_values: Sequence[float],
    energy_grid: Sequence[float],
    base: LogBase = LogBase.BITS,
) -> list[SweepPoint]:
    """Closed-form capacity table over a noise/energy grid.

    Rows are ordered by noise, then energy, regardless of input order.

    Raises:
        DivisionDegenerate: if an unassisted capacity is below 1e-300, as
            :func:`gain` does.
    """
    columns = _sweep_columns(noise_values, energy_grid, base)
    return list(map(SweepPoint._make, zip(*(c.tolist() for c in columns))))


class _ShellObjective:
    """Entropy reduction as a function of a square-root factor of Lambda.

    Parameterizes ``Lambda = C C^dag`` (automatically PSD) and keeps
    iterates on the energy shell ``Sp(eps Lambda) = E`` by rescaling.
    """

    def __init__(self, meas: GaugeMeasurement, constraint: EnergyConstraint,
                 base: LogBase):
        self.meas = meas
        self.eps = constraint.hamiltonian
        self.budget = constraint.budget
        self.base = base
        self.eps_inv_root = hermitian_function(self.eps, lambda w: 1.0 / np.sqrt(w))

    def energy(self, factor: np.ndarray) -> float:
        return float(np.trace(self.eps @ factor @ factor.conj().T).real)

    def normalize(self, factor: np.ndarray) -> np.ndarray:
        used = self.energy(factor)
        if used <= 0.0:
            raise InfeasibleConstraint("degenerate iterate with zero energy")
        return factor * math.sqrt(self.budget / used)

    def evaluate(self, factor: np.ndarray) -> tuple[float, np.ndarray]:
        """Entropy reduction at ``C C^dag`` and its gradient in Lambda."""
        state = GaugeState(factor @ factor.conj().T)
        return _entropy_reduction_gradient(state, self.meas, self.base)

    def slope(self, factor: np.ndarray, grad: np.ndarray, d: np.ndarray) -> float:
        """Slope along ``t -> normalize(C + t d)`` at ``factor``.

        The rescaling's own factor, ``1 + O(t^2)``, is dropped.
        """
        shift = np.vdot(self.eps @ factor, d).real / self.budget
        return float(np.vdot(2.0 * grad @ factor, d - shift * factor).real)

    def certify(self, factor: np.ndarray,
                grad: np.ndarray) -> tuple[np.ndarray, float]:
        """Ascent direction in ``C`` and Frank-Wolfe gap at ``factor``.

        The direction is ``2 G C`` projected onto the shell's tangent space.
        The entropy reduction is concave in Lambda, so the gap
        ``E max(0, lambda_max(eps^-1/2 G eps^-1/2)) - Sp(G Lambda)`` bounds
        the distance to the maximum over ``Sp(eps Lambda) <= E`` from above.
        """
        ascent, normal = 2.0 * grad @ factor, self.eps @ factor
        scale = (np.vdot(normal, ascent) / np.vdot(normal, normal)).real
        direction = ascent - scale * normal
        top = np.linalg.eigvalsh(self.eps_inv_root @ grad @ self.eps_inv_root).max()
        used = np.trace(grad @ factor @ factor.conj().T).real
        return direction, float(self.budget * max(0.0, top) - used)


def _ascend(obj: _ShellObjective, factor: np.ndarray):
    """Projected gradient ascent on the shell from ``factor``, Barzilai-Borwein steps.

    Stops at a Frank-Wolfe gap of at most :data:`GAP_TOL`, when no step
    raises the value, or after :data:`MAX_ITER` gradients.  Returns
    ``(factor, value, iterations, grad_norm, gap)`` at the returned factor.
    """
    factor = obj.normalize(factor)
    value, grad = obj.evaluate(factor)
    step, last = INIT_STEP, None
    for iteration in range(1, MAX_ITER + 1):
        direction, gap = obj.certify(factor, grad)
        gnorm = float(np.linalg.norm(direction))
        if gap <= GAP_TOL or iteration == MAX_ITER:
            break
        if last is not None:
            # Barzilai-Borwein step <dC, dC> / <dC, dd> of the last move; the
            # last step stays where that move shows no positive curvature
            moved, turned = factor - last[0], last[1] - direction
            curvature = np.vdot(moved, turned).real
            if curvature > 0.0:
                step = np.vdot(moved, moved).real / curvature
        while step >= 1e-14:
            candidate = obj.normalize(factor + step * direction)
            try:
                cand_value, cand_grad = obj.evaluate(candidate)
            except DivisionDegenerate:
                # a singular Lambda has no finite gradient: reject the step
                step *= 0.5
                continue
            rise = cand_value - value
            if abs(rise) <= VALUE_RTOL * (1.0 + abs(value)):
                # the values cannot resolve this rise; the exact slopes can
                # (trapezoid rule, exact for a quadratic along the path)
                rise = 0.5 * step * (gnorm * gnorm
                                     + obj.slope(candidate, cand_grad, direction))
            if rise > 1e-4 * step * gnorm * gnorm:
                last = (factor, direction)
                factor, value, grad = candidate, cand_value, cand_grad
                break
            step *= 0.5
        else:
            break
    return factor, value, iteration, gnorm, gap


def cea_multimode(
    meas: GaugeMeasurement,
    constraint: EnergyConstraint,
    base: LogBase = LogBase.BITS,
) -> CapacityReport:
    """Energy-constrained assisted capacity of a multimode measurement.

    Maximizes the entropy reduction over Hermitian PSD input correlation
    matrices on the energy shell ``Sp(eps Lambda) = E`` (the maximum always
    sits on the boundary because the unconstrained supremum is infinite).
    The search runs over correlation matrices only: among all states with
    fixed second moments the Gaussian one attains the largest entropy
    reduction, so nothing is lost.  The entropy reduction is concave in
    Lambda, so one ascent from ``Lambda = eps^-1`` with the analytic
    gradient suffices, and its Frank-Wolfe gap certifies the result.
    """
    if meas.noise.ndim != 2:
        raise DimensionMismatch(
            f"expected one measurement, got a stack of shape {meas.noise.shape}")
    if meas.s != constraint.s:
        raise DimensionMismatch(
            f"measurement has {meas.s} modes, constraint has {constraint.s}"
        )
    obj = _ShellObjective(meas, constraint, base)
    factor, value, iterations, gnorm, gap = _ascend(obj, obj.eps_inv_root)
    state = GaugeState(factor @ factor.conj().T)
    unassisted = ratio = None
    if meas.s == 1:
        # the energy shell is a single point, where the printed closed form applies
        lam = state.correlation[0, 0].real
        unassisted = c_unassisted_one_mode(lam, meas.occupations[0], base)
        ratio = value / unassisted if unassisted > 1e-300 else None
    return CapacityReport(
        assisted=value,
        unassisted=unassisted,
        gain=ratio,
        best_state=state,
        energy_used=obj.energy(factor),
        base=base,
        converged=gap <= GAP_TOL,
        iterations=iterations,
        grad_norm=gnorm,
        gap=gap,
    )
