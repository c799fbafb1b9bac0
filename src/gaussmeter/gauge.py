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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionDegenerate,
    NegativeEigenvalue,
    NotHermitian,
)
from .matfun import (
    EIG_CLIP,
    LogBase,
    as_hermitian,
    g_scalar,
    g_trace,
)

# Absolute tolerance on the Hermiticity defect of the computed posterior
# correlation matrix before it is symmetrized (the defect is pure roundoff;
# the exact matrix is Hermitian).
POSTERIOR_HERM_TOL = 1e-9

CP_MARGIN_TOL = 1e-9


def _check_psd(a: np.ndarray, w: np.ndarray, what: str) -> None:
    """Reject ``a`` (with spectrum ``w``) if an eigenvalue is clearly negative."""
    w_min = w.min(initial=0.0)
    if w_min < -EIG_CLIP * (1.0 + np.abs(a).max(initial=0.0)):
        raise NegativeEigenvalue(f"{what} has eigenvalue {w_min:.3e} < 0")


@dataclass(frozen=True)
class GaugeState:
    """Phase-insensitive Gaussian state with correlation matrix ``Lambda >= 0``."""

    correlation: np.ndarray

    def __post_init__(self):
        a = as_hermitian(self.correlation)
        _check_psd(a, np.linalg.eigvalsh(a), "state correlation")
        object.__setattr__(self, "correlation", a)

    @property
    def s(self) -> int:
        return self.correlation.shape[0]


@dataclass(frozen=True)
class GaugeMeasurement:
    """Phase-insensitive Gaussian measurement with noise correlation ``N >= 0``.

    ``N`` is diagonalized once, on construction, into ``occupations`` (its
    eigenvalues, clipped at 0) and modes; :meth:`spectral` builds functions
    of ``N`` from them, ``grow = sqrt(N(N+I))`` and ``shrink = sqrt(N/(N+I))``
    among them.
    """

    noise: np.ndarray
    occupations: np.ndarray = field(init=False, repr=False, compare=False)
    _modes: np.ndarray = field(init=False, repr=False, compare=False)
    grow: np.ndarray = field(init=False, repr=False, compare=False)
    shrink: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_hermitian(self.noise)
        w, u = np.linalg.eigh(a)
        _check_psd(a, w, "measurement noise")
        object.__setattr__(self, "noise", a)
        object.__setattr__(self, "occupations", np.clip(w, 0.0, None))
        object.__setattr__(self, "_modes", u)
        for name, fn in (("grow", lambda x: np.sqrt(x * (x + 1.0))),
                         ("shrink", lambda x: np.sqrt(x / (x + 1.0)))):
            object.__setattr__(self, name, self.spectral(fn))

    @property
    def s(self) -> int:
        return self.noise.shape[0]

    def spectral(self, fn) -> np.ndarray:
        """The matrix function ``fn(N)`` of a vectorized scalar ``fn``."""
        return (self._modes * fn(self.occupations)) @ self._modes.conj().T


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
    lam = state.correlation
    m_inv = np.linalg.inv(lam + meas.noise + np.eye(s))
    corr = meas.shrink @ lam @ m_inv @ meas.grow
    defect = np.abs(corr - corr.conj().T).max(initial=0.0)
    if defect > POSTERIOR_HERM_TOL * (1.0 + np.abs(corr).max(initial=0.0)):
        raise NotHermitian(f"posterior correlation defect {defect:.3e}")
    corr = (corr + corr.conj().T) / 2.0
    return GaugePosterior(gain=meas.grow @ m_inv, correlation=corr)


def _entropy_reduction_gradient(
    state: GaugeState, meas: GaugeMeasurement, base: LogBase
) -> tuple[float, np.ndarray]:
    """Entropy reduction and its gradient ``G`` in Lambda, ``dER = Sp(G dLambda)``.

    With ``M = Lambda+N+I`` and ``R = sqrt(N(N+I))``, ``Ntilde = N - R M^-1 R``,
    so ``dNtilde = R M^-1 dLambda M^-1 R`` and
    ``G = g'(Lambda) - K^dag g'(Ntilde) K`` with ``K = R M^-1`` and
    ``g'(x) = log(1 + 1/x)``.  Zero eigenvalues of ``Ntilde`` lie in the
    kernel of ``N``, where ``R`` vanishes, so they contribute nothing.

    Raises:
        DivisionDegenerate: when an eigenvalue of ``Lambda`` is zero, or
            below zero by roundoff, where ``G`` is infinite.
    """
    post = posterior_params(state, meas)
    w_lam, u_lam = np.linalg.eigh(state.correlation)
    if not w_lam.min() > 0.0:
        raise DivisionDegenerate(
            "Lambda is singular: the gradient is infinite on its kernel")
    w_til, u_til = np.linalg.eigh(post.correlation)
    w_til = np.maximum(w_til, 0.0)
    value = g_scalar(w_lam, base).sum() - g_scalar(w_til, base).sum()
    d_lam = np.log1p(1.0 / w_lam)
    d_til = np.log1p(np.divide(1.0, w_til, out=np.zeros_like(w_til),
                               where=w_til > EIG_CLIP))
    left = post.gain.conj().T @ u_til
    grad = (u_lam * d_lam) @ u_lam.conj().T - (left * d_til) @ left.conj().T
    return float(value), grad / base.ln_base


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
    w = meas.occupations
    c2 = float(np.prod((np.sqrt(w) + np.sqrt(w + 1.0)) ** 2))
    return meas.noise + meas.grow, c2


def dual_channel_params(state: GaugeState, meas: GaugeMeasurement) -> DualChannelParams:
    """Gain and noise form of the Gaussian channel dual to the posterior map."""
    s = _check_dims(state, meas)
    gain = posterior_params(state, meas).gain
    eye = np.eye(s)
    # R = 2L + I = (sqrt(N) + sqrt(N+I))^2; both R and R^-1 are spectral
    # functions of the noise, finite for degenerate N.
    r = meas.spectral(lambda w: (np.sqrt(w) + np.sqrt(w + 1.0)) ** 2)
    r_inv = meas.spectral(lambda w: (np.sqrt(w) + np.sqrt(w + 1.0)) ** -2)
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
