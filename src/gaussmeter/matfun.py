"""Spectral calculus shared by the analytic modules.

Provides the bosonic entropy function ``g(x) = (x+1)log(x+1) - x log x``
elementwise on scalars and arrays and summed over a Hermitian spectrum,
principal square roots of positive semidefinite Hermitian matrices, and
symplectic spectra of real covariance matrices.  All entropic outputs are
reported in the base carried by a :class:`LogBase` value; the default is bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidRange,
    NegativeArgument,
    NegativeEigenvalue,
    NoModes,
    NotHermitian,
    NotPositiveDefinite,
    NotSymmetric,
    PairingFailure,
)

# Relative tolerance for accepting a matrix as Hermitian/symmetric on input;
# accepted matrices are symmetrized before use.
HERMITICITY_RTOL = 1e-10

# Eigenvalues in [-EIG_CLIP, 0] are treated as exact zeros (degenerate
# correlation matrices are permitted everywhere).
EIG_CLIP = 1e-12

# eigh returns each eigenvalue of a symmetric n x n matrix to within a small
# multiple of n eps max|w| (backward stability); a smaller minimum does not
# show the matrix positive definite, and a larger one does.
EIGH_RTOL = 8.0 * float(np.finfo(float).eps)

# Relative tolerance for the duplicate-pair structure of symplectic spectra.
PAIRING_RTOL = 1e-8

# Below this (2^-1022) 1/x overflows, so g_scalar takes another form there.
SMALLEST_NORMAL = float(np.finfo(float).tiny)


class LogBase(enum.Enum):
    """Logarithm base used for all entropic quantities (bits or nats)."""

    BITS = "bits"
    NATS = "nats"

    @property
    def base(self) -> float:
        return 2.0 if self is LogBase.BITS else math.e

    @property
    def ln_base(self) -> float:
        return math.log(self.base)

    @classmethod
    def from_name(cls, name: str) -> "LogBase":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown log base {name!r}; expected 'bits' or 'nats'")


def as_hermitian(matrix) -> np.ndarray:
    """Validate and symmetrize a square matrix expected to be Hermitian.

    Args:
        matrix: square array-like with finite entries.

    Returns:
        The symmetrized copy ``(A + A^dag)/2`` as a complex array.

    Raises:
        NotHermitian: if ``max|A - A^dag| > HERMITICITY_RTOL (1 + max|A|)``,
            an entry is not finite, or the shape is not square.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    # max|a| is NaN or inf exactly when an entry is, so one pass checks both
    scale = 1.0 + np.abs(a).max(initial=0.0)
    if not math.isfinite(scale):
        raise NotHermitian("matrix has non-finite entries")
    adj = a.conj().T
    asym = np.abs(a - adj).max(initial=0.0)
    if asym > HERMITICITY_RTOL * scale:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITICITY_RTOL:.1e} * scale")
    return (a + adj) / 2.0


def as_symmetric(matrix) -> np.ndarray:
    """Validate and symmetrize a real square matrix (complex only if real-valued)."""
    a = np.asarray(matrix)
    if np.iscomplexobj(a) and np.any(a.imag != 0.0):
        raise NotSymmetric("matrix has a nonzero imaginary part")
    a = np.asarray(a.real, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    # max|a| is NaN or inf exactly when an entry is, so one pass checks both
    scale = 1.0 + np.abs(a).max(initial=0.0)
    if not math.isfinite(scale):
        raise NotSymmetric("matrix has non-finite entries")
    asym = np.abs(a - a.T).max(initial=0.0)
    if asym > HERMITICITY_RTOL * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {HERMITICITY_RTOL:.1e} * scale")
    return (a + a.T) / 2.0


def g_scalar(x: float | np.ndarray, base: LogBase = LogBase.BITS) -> float | np.ndarray:
    """Entropy of a one-mode thermal state with mean occupation ``x``, elementwise.

    Args:
        x: mean occupation number, a scalar or an array, each entry >= 0 up
            to a clip tolerance; entries in ``[-1e-12, 0]`` are treated as 0.
        base: log base of the result.

    Returns:
        A ``float`` for a scalar ``x``, else an array of ``x``'s shape.

    Raises:
        NegativeArgument: if an entry is below ``-1e-12`` or is NaN.
        InvalidRange: if an entry is infinite.
    """
    x = np.asarray(x, dtype=float)
    low = x.min(initial=0.0)
    if not low >= -EIG_CLIP:
        raise NegativeArgument(f"g is undefined for x = {low}")
    if x.max(initial=0.0) == np.inf:
        raise InvalidRange("g is undefined for x = inf")
    # g(0) = 0 by continuity.  The form x log1p(1/x) + log1p(x) does not
    # cancel at large x, and 1/x is finite for every normal x.  It overflows
    # for subnormal x, where g = x(1 - ln x) to the last bit (the x^2 terms
    # vanish); that branch runs only when x has nonzero entries below
    # SMALLEST_NORMAL, so the common case costs one count
    out = np.zeros(x.shape)
    normal = x >= SMALLEST_NORMAL
    xn = x[normal]
    out[normal] = (xn * np.log1p(1.0 / xn) + np.log1p(xn)) / base.ln_base
    if np.count_nonzero(x) > xn.size:
        subnormal = (x > 0.0) & ~normal
        xs = x[subnormal]
        out[subnormal] = xs * (1.0 - np.log(xs)) / base.ln_base
    return float(out) if out.ndim == 0 else out


def hermitian_function(matrix, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Eigenvalues in ``[-EIG_CLIP, 0]`` (relative) are clipped to 0 first.

    Raises:
        NotHermitian: on invalid input.
        NegativeEigenvalue: if an eigenvalue lies below that range.
    """
    w, u = np.linalg.eigh(as_hermitian(matrix))
    return (u * fn(_clipped_spectrum(w, EIG_CLIP))) @ u.conj().T


def _clipped_spectrum(w: np.ndarray, clip: float) -> np.ndarray:
    """The spectrum ``w`` with entries in ``[-clip (1 + max|w|), 0]`` set to 0.

    Raises:
        NegativeEigenvalue: if an entry lies below that range.
    """
    if w.min(initial=0.0) < -clip * (1.0 + abs(w).max(initial=0.0)):
        raise NegativeEigenvalue(f"eigenvalue {w.min():.3e} below clip tolerance")
    return np.maximum(w, 0.0)


def g_trace(matrix, base: LogBase = LogBase.BITS) -> float:
    """Trace of ``g`` applied to a Hermitian PSD matrix (sum over spectrum)."""
    w = np.linalg.eigvalsh(as_hermitian(matrix))
    return float(g_scalar(_clipped_spectrum(w, EIG_CLIP), base).sum())


def psd_sqrt(matrix) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix."""
    return hermitian_function(matrix, np.sqrt)


@dataclass(frozen=True)
class SymplecticForm:
    """Canonical antisymmetric form on ``s`` modes.

    Coordinates are interleaved ``(x_1, p_1, ..., x_s, p_s)``; the matrix is
    block diagonal with ``[[0, 1], [-1, 0]]`` blocks, so it is antisymmetric
    and squares to minus the identity.
    """

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise NoModes(f"mode count must be positive, got {self.s}")

    @cached_property
    def matrix(self) -> np.ndarray:
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        delta = np.kron(np.eye(self.s), block)
        delta.setflags(write=False)
        return delta

    @cached_property
    def inverse(self) -> np.ndarray:
        inv = -self.matrix
        inv.setflags(write=False)
        return inv


@lru_cache(maxsize=None)
def symplectic_form(s: int) -> SymplecticForm:
    """The shared form on ``s`` modes, so its matrices are built once."""
    return SymplecticForm(s)


def symplectic_spectrum(alpha, form: SymplecticForm) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive definite matrix.

    The eigenvalues of ``Delta^-1 alpha`` come in pairs ``+/- i nu_j``; the
    returned values are the positive roots of the spectrum of
    ``-(Delta^-1 alpha)^2``, each duplicate pair counted once, sorted in
    decreasing order.

    Raises:
        NotSymmetric: if ``alpha`` is not symmetric.
        DimensionMismatch: if ``alpha`` is not ``2s x 2s`` for the form's ``s``.
        NotPositiveDefinite: if ``alpha`` is not positive definite.
        PairingFailure: if the doubled spectrum does not pair within
            tolerance (indicates a badly conditioned input).
    """
    return _symplectic_spectrum(_as_covariance(alpha, form), form)


def _as_covariance(alpha, form: SymplecticForm) -> np.ndarray:
    """``alpha`` checked symmetric and ``2s x 2s`` for the form, symmetrized."""
    a = as_symmetric(alpha)
    if a.shape[0] != 2 * form.s:
        raise DimensionMismatch(
            f"covariance is {a.shape[0]}x{a.shape[0]}, form expects {2 * form.s}"
        )
    return a


def _williamson_core(
    a: np.ndarray, form: SymplecticForm
) -> tuple[np.ndarray, np.ndarray, float]:
    """``(sqrt(a), C, max w)`` of a validated symmetric ``2s x 2s`` matrix
    with eigenvalues ``w``, where ``C = sqrt(a) Delta^T a Delta sqrt(a)`` is
    PSD and similar to ``-(Delta^-1 a)^2``, so its eigenvalues are the
    ``nu_j^2``, each twice.

    Raises:
        NotPositiveDefinite: unless ``min w > EIGH_RTOL * 2s * max w``, the
            backward error of the ``eigh`` that gives ``w``.  Any larger
            condition number is accepted, so a strongly squeezed vacuum such
            as ``diag(6e5, 1/2.4e6)`` is.
    """
    w, u = np.linalg.eigh(a)
    if w[0] <= EIGH_RTOL * a.shape[0] * w[-1]:
        raise NotPositiveDefinite(f"minimum eigenvalue {w[0]:.3e}")
    root = (u * np.sqrt(w)) @ u.T
    delta = form.matrix
    return root, root @ (delta.T @ a @ delta) @ root, float(w[-1])


def _symplectic_spectrum(a: np.ndarray, form: SymplecticForm) -> np.ndarray:
    """:func:`symplectic_spectrum` of a validated symmetric ``2s x 2s`` matrix."""
    squared = np.linalg.eigvalsh(_williamson_core(a, form)[1])
    nus = np.sqrt(np.clip(squared, 0.0, None))
    nus.sort()
    lo, hi = nus[0::2], nus[1::2]
    mism = np.abs(hi - lo) / (1.0 + hi)
    if mism.max(initial=0.0) > PAIRING_RTOL:
        raise PairingFailure(f"duplicate pairs differ by up to {mism.max():.3e}")
    return ((lo + hi) / 2.0)[::-1].copy()
