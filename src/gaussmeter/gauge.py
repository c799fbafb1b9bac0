"""Closed forms for phase-insensitive Gaussian measurements.

A measurement is parameterized by the Hermitian PSD noise correlation
matrix ``N`` of its POVM; a phase-insensitive Gaussian input state by its
Hermitian PSD correlation matrix ``Lambda`` of normal second moments.
Outcome densities are stated against the measure ``d^{2s}z / pi^s``, and
the posterior attached to outcome ``z`` is the displaced state
``D(K z)^dag rho_corr D(K z)`` with gain matrix ``K``.

Degenerate noise is supported throughout: every formula is computed via
spectral functions of ``N`` that remain finite at ``N = 0``.

Every matrix may carry leading batch axes, shape ``(..., s, s)``: a stack
of states or measurements is evaluated in one call, bit for bit as one
call per matrix, and the leading axes of a state and a measurement
broadcast against each other.  A 2-D input gives floats and
``(bool, float)`` results, a stack gives arrays over its leading axes, and
one invalid member makes the whole call raise the error that member raises
alone.  An empty stack ``(0, s, s)`` is valid and gives empty results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionDegenerate,
    InvalidRange,
    NegativeEigenvalue,
    NoModes,
    NotHermitian,
)
from .matfun import (
    EIG_CLIP,
    LogBase,
    _any,
    _as_float,
    _entry,
    _first,
    as_hermitian,
    g_scalar,
    g_trace,
)

# Absolute tolerance on the Hermiticity defect of the computed posterior
# correlation matrix before it is symmetrized (the defect is pure roundoff;
# the exact matrix is Hermitian).
POSTERIOR_HERM_TOL = 1e-9

CP_MARGIN_TOL = 1e-9

# B - _SIGNS * half holds B - half and B + half, the CP condition's two
# sign choices, on an axis of their own.
_SIGNS = np.array([1.0, -1.0])[:, None, None]

# Above this occupation (about 1.34e154) N(N+I), and with it
# sqrt(N(N+I)), overflows.
OCCUPATION_LIMIT = math.sqrt(float(np.finfo(float).max))


def _check_psd(a: np.ndarray, w: np.ndarray, what: str) -> np.ndarray:
    """Reject ``a`` (with ascending spectra ``w``) if it has no modes or an
    eigenvalue is clearly negative; returns ``w`` clipped at 0."""
    if w.shape[-1] == 0:
        raise NoModes(f"{what} is 0 x 0; at least one mode is needed")
    low = _entry(w, 0)
    bad = low < -EIG_CLIP * (1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0))
    if _any(bad):
        raise NegativeEigenvalue(f"{what} has eigenvalue {_first(low, bad):.3e} < 0")
    return np.maximum(w, 0.0)


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
        return self.correlation.shape[-1]


@dataclass(frozen=True)
class GaugeMeasurement:
    """Phase-insensitive Gaussian measurement with noise correlation ``N >= 0``.

    ``N`` is diagonalized once, on construction, into ``occupations`` (its
    eigenvalues, clipped at 0) and modes; :meth:`spectral` builds functions
    of ``N`` from them, ``grow = sqrt(N(N+I))`` and ``shrink = sqrt(N/(N+I))``
    among them.

    Raises:
        InvalidRange: if an occupation exceeds ``OCCUPATION_LIMIT``, the
            square root of the largest float, where ``grow`` overflows.
    """

    noise: np.ndarray
    occupations: np.ndarray = field(init=False, repr=False, compare=False)
    _modes: np.ndarray = field(init=False, repr=False, compare=False)
    _modes_adj: np.ndarray = field(init=False, repr=False, compare=False)
    grow: np.ndarray = field(init=False, repr=False, compare=False)
    shrink: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_hermitian(self.noise)
        w, u = np.linalg.eigh(a)
        occupations = _check_psd(a, w, "measurement noise")
        high = _entry(occupations, -1)
        big = high > OCCUPATION_LIMIT
        if _any(big):
            raise InvalidRange(
                f"measurement noise has occupation {_first(high, big):.3e} above "
                f"sqrt(max float) = {OCCUPATION_LIMIT:.3e}, where sqrt(N(N+I)) overflows")
        object.__setattr__(self, "noise", a)
        object.__setattr__(self, "occupations", occupations)
        object.__setattr__(self, "_modes", u)
        object.__setattr__(self, "_modes_adj", u.swapaxes(-1, -2).conj())
        for name, fn in (("grow", lambda x: np.sqrt(x * (x + 1.0))),
                         ("shrink", lambda x: np.sqrt(x / (x + 1.0)))):
            object.__setattr__(self, name, self.spectral(fn))

    @property
    def s(self) -> int:
        return self.noise.shape[-1]

    def spectral(self, fn) -> np.ndarray:
        """The matrix function ``fn(N)`` of a vectorized scalar ``fn``."""
        return (self._modes * fn(self.occupations)[..., None, :]) @ self._modes_adj


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
    m_inv = np.linalg.inv(output_density_params(state, meas))
    corr = meas.shrink @ state.correlation @ m_inv @ meas.grow
    adj = corr.swapaxes(-1, -2).conj()
    defect = np.abs(corr - adj).max(axis=(-2, -1), initial=0.0)
    bad = defect > POSTERIOR_HERM_TOL * (1.0 + np.abs(corr).max(axis=(-2, -1), initial=0.0))
    if _any(bad):
        raise NotHermitian(f"posterior correlation defect {_first(defect, bad):.3e}")
    return GaugePosterior(gain=meas.grow @ m_inv, correlation=(corr + adj) / 2.0)


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
) -> float | np.ndarray:
    """Entropy reduction of the measurement at this input state.

    Equals ``Sp g(Lambda) - Sp g(Ntilde)`` and coincides with the largest
    entropy reduction over all states sharing the correlation matrix.
    """
    post = posterior_params(state, meas)
    return g_trace(state.correlation, base) - g_trace(post.correlation, base)


def sqrt_gaussian_params(meas: GaugeMeasurement) -> tuple[np.ndarray, float | np.ndarray]:
    """Parameters of the square root of the measurement's noise state.

    Returns ``(L, c^2)`` with ``sqrt(rho_N) = c rho_L``,
    ``L = N + sqrt(N(N+I))`` and ``c^2 = det(sqrt(N) + sqrt(N+I))^2``.
    """
    w = meas.occupations
    c2 = _as_float(np.prod((np.sqrt(w) + np.sqrt(w + 1.0)) ** 2, axis=-1))
    return meas.noise + meas.grow, c2


def dual_channel_params(state: GaugeState, meas: GaugeMeasurement) -> DualChannelParams:
    """Gain and noise form of the Gaussian channel dual to the posterior map.

    Only the posterior gain ``K = sqrt(N(N+I)) (Lambda+N+I)^-1`` is needed,
    so it is computed alone, as :func:`posterior_params` computes it (bit
    for bit), without the posterior correlation; ``gain`` is ``K^dag`` and
    ``noise_form`` is ``((I+K) R^-1 (I+K)^dag + (I-K) R (I-K)^dag) / 4``
    with ``R = (sqrt(N) + sqrt(N+I))^2``, symmetrized.
    """
    gain = meas.grow @ np.linalg.inv(output_density_params(state, meas))
    eye = np.eye(state.s)
    # R = 2L + I = (sqrt(N) + sqrt(N+I))^2; both R and R^-1 are spectral
    # functions of the noise, finite for degenerate N.
    r = meas.spectral(lambda w: (np.sqrt(w) + np.sqrt(w + 1.0)) ** 2)
    r_inv = meas.spectral(lambda w: (np.sqrt(w) + np.sqrt(w + 1.0)) ** -2)
    plus, minus = eye + gain, eye - gain
    form = (plus @ r_inv @ plus.swapaxes(-1, -2).conj()
            + minus @ r @ minus.swapaxes(-1, -2).conj()) / 4.0
    form = (form + form.swapaxes(-1, -2).conj()) / 2.0
    return DualChannelParams(gain=gain.swapaxes(-1, -2).conj(), noise_form=form)


def cp_certificate(
    params: DualChannelParams,
) -> tuple[bool | np.ndarray, float | np.ndarray]:
    """Check the complete-positivity condition of the dual channel.

    Verifies ``B -/+ (I - K K^dag)/2 >= 0`` for both signs and returns
    ``(ok, margin)`` where the margin is the smallest eigenvalue over both
    sign choices; ``ok`` is true when the margin is above ``-1e-9``.  For a
    stack both are arrays over its leading axes.

    Raises:
        InvalidRange: if the gain has an entry that is not finite.
        NotHermitian: if the noise form is not Hermitian or not finite.
        DimensionMismatch: if the gain and form shapes differ.
    """
    k_dag = np.asarray(params.gain, dtype=complex)
    form = as_hermitian(params.noise_form)
    if k_dag.shape != form.shape:
        raise DimensionMismatch(
            f"gain shape {k_dag.shape} does not match form shape {form.shape}"
        )
    if not np.isfinite(k_dag).all():
        raise InvalidRange("gain has non-finite entries")
    eye = np.eye(form.shape[-1])
    gram = k_dag.swapaxes(-1, -2).conj() @ k_dag  # K K^dag
    half = (eye - gram) / 2.0
    pair = form[..., None, :, :] - _SIGNS * half[..., None, :, :]
    margin = _as_float(np.linalg.eigvalsh(pair).min(axis=(-2, -1)))
    return margin >= -CP_MARGIN_TOL, margin
