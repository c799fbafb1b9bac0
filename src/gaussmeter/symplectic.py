"""General Gaussian measurements in real covariance form.

States and measurement noise are real symmetric ``2s x 2s`` covariance
matrices over interleaved quadratures ``(x_1, p_1, ..., x_s, p_s)`` with
the vacuum normalized to ``I/2``.  Provides admissibility checks, Gaussian
state entropy, the posterior covariance of a Gaussian measurement, the
resulting entropy reduction, and the embedding of phase-insensitive
parameters into this representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, InvalidCovariance, SingularSum
from .gauge import GaugeMeasurement, GaugeState
from .matfun import (
    LogBase,
    SymplecticForm,
    as_symmetric,
    g_scalar,
    hermitian_function,
    symplectic_form,
    symplectic_spectrum,
)

ADMISSIBILITY_TOL = 1e-9

# Asymmetry above this (relative) on a matrix that should be symmetric by
# construction indicates a real defect rather than roundoff.
SYMMETRY_PRECHECK_TOL = 1e-8

CONDITION_LIMIT = 1e12


def validate_covariance(alpha, form: SymplecticForm) -> tuple[bool, float]:
    """Admissibility of a symmetric matrix as a quantum covariance matrix.

    Returns ``(ok, margin)`` where the margin is the smallest eigenvalue of
    the Hermitian matrix ``alpha + (i/2) Delta``; admissible covariances
    satisfy ``margin >= -1e-9`` (equivalently all symplectic eigenvalues
    are at least 1/2).
    """
    a = as_symmetric(alpha)
    if a.shape[0] != 2 * form.s:
        raise DimensionMismatch(
            f"covariance is {a.shape[0]}x{a.shape[0]}, form expects {2 * form.s}"
        )
    margin = float(np.linalg.eigvalsh(a + 0.5j * form.matrix).min())
    return margin >= -ADMISSIBILITY_TOL, margin


@dataclass(frozen=True)
class RealCovariance:
    """Admissible quantum covariance matrix in interleaved quadratures."""

    cov: np.ndarray

    def __post_init__(self):
        a = as_symmetric(self.cov)
        if a.shape[0] % 2 != 0:
            raise InvalidCovariance(f"covariance must be 2s x 2s, got {a.shape}")
        ok, margin = validate_covariance(a, symplectic_form(a.shape[0] // 2))
        if not ok:
            raise InvalidCovariance(f"admissibility margin {margin:.3e} < -1e-9")
        object.__setattr__(self, "cov", a)

    @property
    def s(self) -> int:
        return self.cov.shape[0] // 2

    @property
    def form(self) -> SymplecticForm:
        return symplectic_form(self.s)


@dataclass(frozen=True)
class GeneralMeasurement:
    """Gaussian measurement with noise covariance ``beta`` (admissible)."""

    beta: RealCovariance

    @property
    def s(self) -> int:
        return self.beta.s


def gaussian_entropy(alpha: RealCovariance, base: LogBase = LogBase.BITS) -> float:
    """Entropy of the centered Gaussian state with covariance ``alpha``.

    Equals the sum of ``g(nu_j - 1/2)`` over the symplectic eigenvalues.
    """
    nus = symplectic_spectrum(alpha.cov, alpha.form)
    return float(g_scalar(np.maximum(nus - 0.5, 0.0), base).sum())


def _sqrt_shrink_factor(beta: np.ndarray, form: SymplecticForm) -> np.ndarray:
    """Square root of ``I + (2 beta Delta^-1)^-2``.

    The argument has real spectrum ``1 - 1/(2 nu_j)^2 >= 0`` for admissible
    ``beta``.  It is exactly symmetric for one mode and for noise sharing
    the standard complex structure; then a clipped Hermitian root is used.
    Otherwise the principal matrix square root realizes the formula as
    written.
    """
    dinv = form.inverse
    squared = 4.0 * (beta @ dinv) @ (beta @ dinv)
    x = np.eye(beta.shape[0]) + np.linalg.inv(squared)
    asym = np.abs(x - x.T).max(initial=0.0)
    if asym <= SYMMETRY_PRECHECK_TOL * (1.0 + np.abs(x).max(initial=0.0)):
        root = hermitian_function((x + x.T) / 2.0, np.sqrt, clip=1e-10).real
    else:
        root = scipy.linalg.sqrtm(x)
        if np.abs(root.imag).max(initial=0.0) > 1e-8:
            raise InvalidCovariance("square-root factor has a complex residue")
        root = root.real
    return root


def posterior_covariance(alpha: RealCovariance, beta: RealCovariance) -> RealCovariance:
    """Covariance of the Gaussian posterior state of outcome-conditioned data.

    Computes ``beta - F beta (alpha+beta)^-1 beta F^T`` where ``F`` is the
    shrink factor of :func:`_sqrt_shrink_factor`; the right-hand factor of
    the product is exactly the transpose of the left-hand one.  The result
    is symmetrized after a roundoff pre-check and validated as admissible.
    """
    if alpha.s != beta.s:
        raise DimensionMismatch(f"alpha has {alpha.s} modes, beta has {beta.s}")
    total = alpha.cov + beta.cov
    if np.linalg.cond(total) > CONDITION_LIMIT:
        raise SingularSum(f"alpha + beta condition number exceeds {CONDITION_LIMIT:.0e}")
    factor = _sqrt_shrink_factor(beta.cov, beta.form)
    middle = beta.cov @ np.linalg.solve(total, beta.cov)
    out = beta.cov - factor @ middle @ factor.T
    asym = np.abs(out - out.T).max(initial=0.0)
    if asym > SYMMETRY_PRECHECK_TOL * (1.0 + np.abs(out).max(initial=0.0)):
        raise InvalidCovariance(f"posterior covariance asymmetry {asym:.3e}")
    return RealCovariance(cov=(out + out.T) / 2.0)


def entropy_reduction_general(
    alpha: RealCovariance, meas: GeneralMeasurement, base: LogBase = LogBase.BITS
) -> float:
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
    """
    c = np.asarray(matrix, dtype=complex)
    s = c.shape[0]
    x, y = c.real, c.imag
    xxpp = np.block([[x, -y], [y, x]])
    perm = np.zeros((2 * s, 2 * s))
    for j in range(s):
        perm[2 * j, j] = 1.0
        perm[2 * j + 1, s + j] = 1.0
    return perm @ xxpp @ perm.T


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
