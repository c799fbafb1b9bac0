"""Closed forms for phase-insensitive Gaussian measurements.

A measurement is parameterized by the Hermitian PSD noise correlation
matrix ``N`` of its POVM; a phase-insensitive Gaussian input state by its
Hermitian PSD correlation matrix ``Lambda`` of normal second moments.
Outcome densities are stated against the measure ``d^{2s}z / pi^s``, and
the posterior attached to outcome ``z`` is the displaced state
``D(K z)^dag rho_corr D(K z)`` with gain matrix ``K``.

Degenerate noise is supported throughout: every formula is computed via
spectral functions of ``N`` that remain finite at ``N = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeEigenvalue, NotHermitian
from .matfun import (
    EIG_CLIP,
    LogBase,
    as_hermitian,
    g_trace,
    hermitian_function,
)

# Absolute tolerance on the Hermiticity defect of the computed posterior
# correlation matrix before it is symmetrized (the defect is pure roundoff;
# the exact matrix is Hermitian).
POSTERIOR_HERM_TOL = 1e-9

CP_MARGIN_TOL = 1e-9


def _as_psd(matrix, what: str) -> np.ndarray:
    a = as_hermitian(matrix)
    w_min = np.linalg.eigvalsh(a).min() if a.size else 0.0
    if w_min < -EIG_CLIP * (1.0 + np.abs(a).max(initial=0.0)):
        raise NegativeEigenvalue(f"{what} has eigenvalue {w_min:.3e} < 0")
    return a


@dataclass(frozen=True)
class GaugeState:
    """Phase-insensitive Gaussian state with correlation matrix ``Lambda >= 0``."""

    correlation: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "correlation", _as_psd(self.correlation, "state correlation")
        )

    @property
    def s(self) -> int:
        return self.correlation.shape[0]


@dataclass(frozen=True)
class GaugeMeasurement:
    """Phase-insensitive Gaussian measurement with noise correlation ``N >= 0``."""

    noise: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "noise", _as_psd(self.noise, "measurement noise"))

    @property
    def s(self) -> int:
        return self.noise.shape[0]


@dataclass(frozen=True)
class GaugePosterior:
    """Gaussian posterior family: outcome ``z`` maps to ``D(K z)^dag rho_corr D(K z)``."""

    gain: np.ndarray
    correlation: np.ndarray


@dataclass(frozen=True)
class DualChannelParams:
    """Parameters of the channel induced on observables by the measurement.

    ``gain`` is the adjoint ``K^dag`` of the posterior gain; ``noise_form``
    is the Hermitian matrix of the Gaussian attenuation factor.
    """

    gain: np.ndarray
    noise_form: np.ndarray


def _check_dims(state: GaugeState, meas: GaugeMeasurement) -> int:
    if state.s != meas.s:
        raise DimensionMismatch(
            f"state has {state.s} modes, measurement has {meas.s}"
        )
    return state.s


def output_density_params(state: GaugeState, meas: GaugeMeasurement) -> np.ndarray:
    """Covariance of the Gaussian outcome distribution.

    The outcome density is ``exp(-z* Sigma^-1 z) / det Sigma`` against
    ``d^{2s}z / pi^s`` with ``Sigma = Lambda + N + I``.
    """
    s = _check_dims(state, meas)
    return state.correlation + meas.noise + np.eye(s)


def posterior_params(state: GaugeState, meas: GaugeMeasurement) -> GaugePosterior:
    """Gain and correlation matrix of the Gaussian posterior family.

    ``K = sqrt(N(N+I)) (Lambda+N+I)^-1`` and
    ``Ntilde = sqrt(N(N+I)^-1) Lambda (Lambda+N+I)^-1 sqrt(N(N+I))``;
    the correlation matrix is symmetrized after a Hermiticity check (exact
    Hermiticity holds analytically, floating point leaves a tiny defect).
    """
    s = _check_dims(state, meas)
    lam, noise = state.correlation, meas.noise
    grow = hermitian_function(noise, lambda w: np.sqrt(w * (w + 1.0)))
    shrink = hermitian_function(noise, lambda w: np.sqrt(w / (w + 1.0)))
    m = lam + noise + np.eye(s)
    m_inv = np.linalg.inv(m)
    gain = grow @ m_inv
    corr = shrink @ lam @ m_inv @ grow
    defect = np.abs(corr - corr.conj().T).max(initial=0.0)
    if defect > POSTERIOR_HERM_TOL * (1.0 + np.abs(corr).max(initial=0.0)):
        raise NotHermitian(f"posterior correlation defect {defect:.3e}")
    corr = (corr + corr.conj().T) / 2.0
    return GaugePosterior(gain=gain, correlation=corr)


def entropy_reduction_gauge(
    state: GaugeState, meas: GaugeMeasurement, base: LogBase = LogBase.BITS
) -> float:
    """Entropy reduction of the measurement at this input state.

    Equals ``Sp g(Lambda) - Sp g(Ntilde)`` and coincides with the largest
    entropy reduction over all states sharing the correlation matrix.
    """
    post = posterior_params(state, meas)
    return g_trace(state.correlation, base) - g_trace(post.correlation, base)


def sqrt_gaussian_params(meas: GaugeMeasurement) -> tuple[np.ndarray, float]:
    """Parameters of the square root of the measurement's noise state.

    Returns ``(L, c^2)`` with ``sqrt(rho_N) = c rho_L``,
    ``L = N + sqrt(N(N+I))`` and ``c^2 = det(sqrt(N) + sqrt(N+I))^2``.
    """
    noise = meas.noise
    grow = hermitian_function(noise, lambda w: np.sqrt(w * (w + 1.0)))
    big_l = noise + grow
    w = np.clip(np.linalg.eigvalsh(noise), 0.0, None)
    c2 = float(np.prod((np.sqrt(w) + np.sqrt(w + 1.0)) ** 2))
    return big_l, c2


def dual_channel_params(state: GaugeState, meas: GaugeMeasurement) -> DualChannelParams:
    """Gain and noise form of the Gaussian channel dual to the posterior map."""
    s = _check_dims(state, meas)
    gain = posterior_params(state, meas).gain
    eye = np.eye(s)
    # R = 2L + I = (sqrt(N) + sqrt(N+I))^2; both R and R^-1 are spectral
    # functions of the noise, finite for degenerate N.
    r = hermitian_function(meas.noise, lambda w: (np.sqrt(w) + np.sqrt(w + 1.0)) ** 2)
    r_inv = hermitian_function(
        meas.noise, lambda w: (np.sqrt(w) + np.sqrt(w + 1.0)) ** -2
    )
    plus, minus = eye + gain, eye - gain
    form = (plus @ r_inv @ plus.conj().T + minus @ r @ minus.conj().T) / 4.0
    form = (form + form.conj().T) / 2.0
    return DualChannelParams(gain=gain.conj().T, noise_form=form)


def cp_certificate(params: DualChannelParams) -> tuple[bool, float]:
    """Check the complete-positivity condition of the dual channel.

    Verifies ``B -/+ (I - K K^dag)/2 >= 0`` for both signs and returns
    ``(ok, margin)`` where the margin is the smallest eigenvalue over both
    sign choices; ``ok`` is true when the margin is above ``-1e-9``.
    """
    k_dag = np.asarray(params.gain, dtype=complex)
    form = as_hermitian(params.noise_form)
    if k_dag.shape != form.shape:
        raise DimensionMismatch(
            f"gain shape {k_dag.shape} does not match form shape {form.shape}"
        )
    eye = np.eye(form.shape[0])
    gram = k_dag.conj().T @ k_dag  # K K^dag
    half = (eye - gram) / 2.0
    margin = min(
        np.linalg.eigvalsh(form - half).min(),
        np.linalg.eigvalsh(form + half).min(),
    )
    return bool(margin >= -CP_MARGIN_TOL), float(margin)
