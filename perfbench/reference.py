"""Independent references for the benchmark's capacity checks.

Both are computed outside the timed region and use only closed forms of
the library's public API, never its optimizer.

* :func:`water_filling` solves the capacity for commuting noise and energy
  matrices (both diagonal).  There the optimum is diagonal, each mode
  contributes the one-mode capacity at its own energy, and the optimal
  energies equalize the marginal capacity per unit energy.  Every mode is
  filled, because the one-mode marginal capacity is infinite at zero energy.
* :func:`frank_wolfe_gap` certifies a solution for any noise and energy
  matrices: for a concave objective over the shell ``Sp(eps Lambda) <= E``
  the gap ``E max(0, lambda_max(eps^-1/2 G eps^-1/2)) - Sp(G Lambda)``
  bounds ``C* - C(Lambda)`` from above, where ``G`` is the gradient, taken
  here by central differences of the closed-form entropy reduction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from gaussmeter import gauge
from gaussmeter.capacity import cea_one_mode
from gaussmeter.gauge import GaugeMeasurement, GaugeState
from gaussmeter.matfun import psd_sqrt

FD_STEP = 1e-5    # relative step of the central differences


def _marginal(energy: float, noise: float) -> float:
    """Derivative in nats of the one-mode capacity with respect to the energy."""
    tilde = noise * energy / (noise + energy + 1.0)
    d_tilde = noise * (noise + 1.0) / (noise + energy + 1.0) ** 2
    out = math.log1p(1.0 / energy)
    if noise > 0.0:
        out -= math.log1p(1.0 / tilde) * d_tilde
    return out


def _energy_at(slope: float, noise: float) -> float:
    """The energy at which the one-mode marginal capacity equals ``slope``."""
    hi = 1.0
    while _marginal(hi, noise) > slope:
        hi *= 2.0
    return brentq(lambda e: _marginal(e, noise) - slope, 1e-300, hi,
                  xtol=1e-300, rtol=1e-15)


def water_filling(noise, costs, budget: float) -> tuple[float, np.ndarray]:
    """Capacity (bits) and optimal energies for diagonal noise and energy matrices.

    Args:
        noise: the diagonal of ``N`` (one occupation per mode).
        costs: the diagonal of ``eps`` (positive energy per quantum).
        budget: the mean-energy budget ``E``.

    Returns:
        ``(capacity, occupations)`` with ``sum(costs * occupations) == budget``.
    """
    noise = np.asarray(noise, dtype=float)
    costs = np.asarray(costs, dtype=float)

    def excess(mu: float) -> float:
        return sum(c * _energy_at(mu * c, n) for n, c in zip(noise, costs)) - budget

    lo, hi = 1e-3, 1.0
    while excess(lo) < 0.0:
        lo /= 2.0
    while excess(hi) > 0.0:
        hi *= 2.0
    mu = brentq(excess, lo, hi, xtol=1e-300, rtol=1e-15)
    occupations = np.array([_energy_at(mu * c, n) for n, c in zip(noise, costs)])
    value = sum(cea_one_mode(e, n) for e, n in zip(occupations, noise))
    return float(value), occupations


def _hermitian_basis(s: int) -> list[np.ndarray]:
    """Orthonormal basis of s x s Hermitian matrices under Tr(A B)."""
    basis = []
    for i in range(s):
        e = np.zeros((s, s), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
        for j in range(i + 1, s):
            re = np.zeros((s, s), dtype=complex)
            re[i, j] = re[j, i] = 1.0 / math.sqrt(2.0)
            im = np.zeros((s, s), dtype=complex)
            im[i, j], im[j, i] = -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
            basis += [re, im]
    return basis


def entropy_reduction_gradient(lam: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Hermitian gradient ``G`` of the closed-form entropy reduction at ``lam``.

    ``d ER = Sp(G d Lambda)``; each component is a central difference of
    :func:`gauge.entropy_reduction_gauge` along one basis direction.
    """
    meas = GaugeMeasurement(noise)
    h = FD_STEP * (1.0 + float(np.linalg.norm(lam)))
    if np.linalg.eigvalsh(lam).min() <= 10.0 * h:
        raise ValueError("central differences would leave the PSD cone")
    grad = np.zeros_like(lam, dtype=complex)
    for direction in _hermitian_basis(lam.shape[0]):
        up = gauge.entropy_reduction_gauge(GaugeState(lam + h * direction), meas)
        down = gauge.entropy_reduction_gauge(GaugeState(lam - h * direction), meas)
        grad += (up - down) / (2.0 * h) * direction
    return grad


def frank_wolfe_gap(lam: np.ndarray, noise: np.ndarray, eps: np.ndarray,
                    budget: float) -> float:
    """Certified upper bound in bits on ``C* - ER(lam)`` over the energy shell."""
    grad = entropy_reduction_gradient(lam, noise)
    eps_inv_root = np.linalg.inv(psd_sqrt(eps))
    top = np.linalg.eigvalsh(eps_inv_root @ grad @ eps_inv_root).max()
    return float(budget * max(0.0, top) - np.trace(grad @ lam).real)
