"""General Gaussian measurements in real covariance form.

States and measurement noise are real symmetric ``2s x 2s`` covariance
matrices over interleaved quadratures ``(x_1, p_1, ..., x_s, p_s)`` with
the vacuum normalized to ``I/2``.  Provides admissibility checks, Gaussian
state entropy, the posterior covariance of a Gaussian measurement (one real
path for every noise, through the noise's Williamson core), the resulting
entropy reduction, and the embedding of phase-insensitive parameters.

Covariances may carry leading batch axes, shape ``(..., 2s, 2s)``, and are
then evaluated as a stack in one call, bit for bit as one call per matrix;
a 2-D input gives floats and ``(bool, float)`` results, a stack arrays over
its leading axes, and one invalid member makes the whole call raise the
error that member raises alone.  An empty stack is valid and gives empty
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidCovariance, SingularSum
from .gauge import GaugeMeasurement, GaugeState
from .matfun import (
    LogBase,
    _any,
    _as_covariance,
    _as_float,
    _check_scale,
    _clipped_spectrum,
    _entry,
    _first,
    _symplectic_spectrum,
    _williamson_core,
    as_symmetric,
    g_scalar,
    symplectic_form,
)

ADMISSIBILITY_TOL = 1e-9

# Asymmetry above this (relative) on a matrix that should be symmetric by
# construction indicates a real defect rather than roundoff.
SYMMETRY_PRECHECK_TOL = 1e-8

CONDITION_LIMIT = 1e12

# Roundoff allowance on 1 - 1/(4 nu^2) in _grow_factor, per mode dimension
# and unit of 4 max(w)^2; over ten times the largest ratio (1.14) measured on
# pure and partly pure noise.  The allowance never falls below GROW_CLIP_MIN,
# so no noise that a fixed clip of that size accepted is rejected.
GROW_CLIP_RTOL = 16.0 * float(np.finfo(float).eps)
GROW_CLIP_MIN = 1e-10


def validate_covariance(alpha) -> tuple[bool | np.ndarray, float | np.ndarray]:
    """Admissibility of a symmetric matrix as a quantum covariance matrix.

    Returns ``(ok, margin)`` where the margin is the smallest eigenvalue of
    the Hermitian matrix ``alpha + (i/2) Delta``; admissible covariances
    satisfy ``margin >= -1e-9`` (equivalently all symplectic eigenvalues
    are at least 1/2).  For a stack both are arrays over its leading axes.

    Raises:
        NotSymmetric: if ``alpha`` is not symmetric.
        DimensionMismatch: if ``alpha`` has an odd size.
        NoModes: if ``alpha`` is ``0 x 0``.
        InvalidRange: if an eigenvalue of ``alpha + (i/2) Delta`` exceeds
            ``matfun.OCCUPATION_LIMIT``, as :class:`RealCovariance` does.
    """
    w = _admissibility_spectrum(_as_covariance(alpha))
    _check_scale(_entry(w, -1))
    margin = _as_float(_entry(w, 0))
    return margin >= -ADMISSIBILITY_TOL, margin


def _admissibility_spectrum(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``alpha + (i/2) Delta`` for validated
    symmetric ``2s x 2s`` matrices, one row per member of a stack; the first
    is the margin of :func:`validate_covariance`."""
    return np.linalg.eigvalsh(a + 0.5j * symplectic_form(a.shape[-1] // 2))


@dataclass(frozen=True)
class RealCovariance:
    """Admissible quantum covariance matrix in interleaved quadratures.

    Validated once, on construction; ``spectrum`` is taken once, on first use.

    Raises:
        InvalidCovariance: if ``cov`` has an odd size or its admissibility
            margin is below -1e-9.
        NoModes: if ``cov`` is ``0 x 0``.
        InvalidRange: if the largest eigenvalue of ``cov + (i/2) Delta``
            exceeds ``matfun.OCCUPATION_LIMIT``, the square root of the
            largest float, where the Williamson core overflows.
    """

    cov: np.ndarray

    def __post_init__(self):
        a = as_symmetric(self.cov)
        if a.shape[-1] % 2 != 0:
            raise InvalidCovariance(f"covariance must be 2s x 2s, got {a.shape}")
        w = _admissibility_spectrum(a)
        margin = _entry(w, 0)
        bad = margin < -ADMISSIBILITY_TOL
        if _any(bad):
            raise InvalidCovariance(
                f"admissibility margin {_first(margin, bad):.3e} < -1e-9")
        _check_scale(_entry(w, -1))
        object.__setattr__(self, "cov", a)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Symplectic eigenvalues, in decreasing order (read-only)."""
        nus = _symplectic_spectrum(self.cov)
        nus.setflags(write=False)
        return nus

    @property
    def s(self) -> int:
        return self.cov.shape[-1] // 2


@dataclass(frozen=True)
class GeneralMeasurement:
    """Gaussian measurement with noise covariance ``beta`` (admissible)."""

    beta: RealCovariance

    @property
    def s(self) -> int:
        return self.beta.s


def gaussian_entropy(
    alpha: RealCovariance, base: LogBase = LogBase.BITS
) -> float | np.ndarray:
    """Entropy of the centered Gaussian state with covariance ``alpha``.

    Equals the sum of ``g(nu_j - 1/2)`` over the symplectic eigenvalues.
    """
    return _as_float(g_scalar(np.maximum(alpha.spectrum - 0.5, 0.0), base).sum(axis=-1))


def _grow_factor(beta: RealCovariance) -> np.ndarray:
    """``T = beta^1/2 Q diag(sqrt(1 - 1/(4 nu_j^2))) Q^T beta^1/2``, where
    ``Q diag(nu_j^2) Q^T`` is the noise's Williamson core ``C``.

    At a pure mode ``1 - 1/(4 nu_j^2)`` is 0 up to roundoff of either sign.
    Forming ``C`` from ``beta^1/2`` and ``Delta^T beta Delta`` leaves an
    error of order ``eps max(w)^2`` in each ``nu_j^2``, for ``beta``'s
    eigenvalues ``w``, so values in ``[-clip, 0]`` (relative) are clipped to
    0, and lower ones raise ``NegativeEigenvalue``, with
    ``clip = max(GROW_CLIP_MIN, GROW_CLIP_RTOL * 2s * 4 max(w)^2)``.
    ``4 max(w)^2`` is at least ``beta``'s condition number ``max w / min w``,
    since an admissible ``beta`` has ``min w max w >= 1/4``, and equals it
    for pure noise.  ``max w`` comes from the ``eigh`` that builds ``C``.
    """
    root, core, w_max = _williamson_core(beta.cov)
    squared, q = np.linalg.eigh(core)
    half = root @ q
    clip = np.maximum(GROW_CLIP_MIN, GROW_CLIP_RTOL * core.shape[-1] * 4.0 * w_max ** 2)
    # a core eigenvalue that rounds to 0 (large singular noise) gives -inf,
    # not a warning; the clip's tolerance is then -inf too, so it is set to 0
    with np.errstate(divide="ignore"):
        shrink = 1.0 - 0.25 / squared
    factor = np.sqrt(_clipped_spectrum(shrink, clip))
    return (half * factor[..., None, :]) @ half.swapaxes(-1, -2)


def posterior_covariance(alpha: RealCovariance, beta: RealCovariance) -> RealCovariance:
    """Covariance of the Gaussian posterior state of outcome-conditioned data.

    Computes ``beta - T (alpha+beta)^-1 T`` with the symmetric ``T`` of
    :func:`_grow_factor`.  With the Williamson core
    ``C = beta^1/2 Delta^T beta Delta beta^1/2``,
    ``(beta Delta^-1)^2 = -beta^1/2 C beta^-1/2``, so the shrink factor
    ``F = sqrt(I + (2 beta Delta^-1)^-2) = beta^1/2 sqrt(I - (4C)^-1) beta^-1/2``
    has ``F beta = beta F^T = T``, and this is ``beta - F beta (alpha+beta)^-1
    beta F^T``.  It is the real form of the gauge posterior
    ``Ntilde = N - R M^-1 R``: for noise ``N + I/2`` embedded under the
    standard complex structure, ``T`` embeds ``R = sqrt(N(N+I))``.  One
    ``eigh`` of ``alpha + beta = U diag(w) U^T`` gives its condition number
    ``max|w| / min|w|`` and ``T (alpha+beta)^-1 T = (TU) diag(1/w) (TU)^T``.
    The result is symmetrized after a roundoff pre-check and validated.

    Raises:
        SingularSum: when that condition number exceeds ``CONDITION_LIMIT``.
    """
    if alpha.s != beta.s:
        raise DimensionMismatch(f"alpha has {alpha.s} modes, beta has {beta.s}")
    w, u = np.linalg.eigh(alpha.cov + beta.cov)
    magnitudes = np.abs(w)
    if _any(magnitudes.max(axis=-1) > CONDITION_LIMIT * magnitudes.min(axis=-1)):
        raise SingularSum(f"alpha + beta condition number exceeds {CONDITION_LIMIT:.0e}")
    tu = _grow_factor(beta) @ u
    tu_t = tu.swapaxes(-1, -2)
    out = beta.cov - (tu / w[..., None, :]) @ tu_t
    out_t = out.swapaxes(-1, -2)
    asym = np.abs(out - out_t).max(axis=(-2, -1), initial=0.0)
    bad = asym > SYMMETRY_PRECHECK_TOL * (1.0 + np.abs(out).max(axis=(-2, -1), initial=0.0))
    if _any(bad):
        raise InvalidCovariance(f"posterior covariance asymmetry {_first(asym, bad):.3e}")
    return RealCovariance(cov=(out + out_t) / 2.0)


def entropy_reduction_general(
    alpha: RealCovariance, meas: GeneralMeasurement, base: LogBase = LogBase.BITS
) -> float | np.ndarray:
    """Entropy reduction of a general Gaussian measurement at a Gaussian input.

    Equals the input entropy minus the (outcome-independent) posterior
    entropy; this is also the maximum over all input states with the same
    covariance matrix.
    """
    tilde = posterior_covariance(alpha, meas.beta)
    return gaussian_entropy(alpha, base) - gaussian_entropy(tilde, base)


def embed_complex_correlation(matrix) -> np.ndarray:
    """Real covariance of the phase-insensitive state with moments ``C``.

    Maps the Hermitian matrix ``C = X + iY`` to the interleaved real form
    of ``[[X, -Y], [Y, X]]``; under this embedding the symplectic spectrum
    equals the spectrum of ``C``.

    Raises:
        DimensionMismatch: if the last two axes of ``C`` are not square.
    """
    c = np.asarray(matrix, dtype=complex)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {c.shape}")
    n = 2 * c.shape[-1]
    out = np.empty(c.shape[:-2] + (n, n))
    out[..., 0::2, 0::2] = out[..., 1::2, 1::2] = c.real
    out[..., 1::2, 0::2] = c.imag
    out[..., 0::2, 1::2] = -c.imag
    return out


def embed_gauge_invariant(
    state: GaugeState, meas: GaugeMeasurement
) -> tuple[RealCovariance, GeneralMeasurement]:
    """Real-covariance parameters equivalent to phase-insensitive ones.

    The state maps to ``Lambda + I/2`` and the measurement noise to
    ``N + I/2`` under the standard complex structure; entropy reductions
    computed in either representation coincide.
    """
    if state.s != meas.s:
        raise DimensionMismatch(f"state has {state.s} modes, measurement has {meas.s}")
    eye = np.eye(state.s)
    alpha = RealCovariance(embed_complex_correlation(state.correlation + eye / 2.0))
    beta = RealCovariance(embed_complex_correlation(meas.noise + eye / 2.0))
    return alpha, GeneralMeasurement(beta=beta)
