"""Spectral calculus shared by the analytic modules.

Provides the bosonic entropy function ``g(x) = (x+1)log(x+1) - x log x``
elementwise on scalars and arrays and summed over a Hermitian spectrum,
principal square roots of positive semidefinite Hermitian matrices, and
symplectic spectra of real covariance matrices.  All entropic outputs are
reported in the base carried by a :class:`LogBase` value; the default is bits.

The validators, :func:`g_trace` and the symplectic spectrum take matrices of
shape ``(..., s, s)``: any leading axes index a stack, evaluated in one call
with the same result, bit for bit, as one call per matrix.  A 2-D matrix
gives a float, a stack an array over its leading axes, and one invalid
member makes the whole call raise the error that member raises alone.  An
empty stack ``(0, s, s)`` is valid and gives empty results.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
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

# Above this (about 1.34e154) the square of a float overflows: N(N+I), and
# with it sqrt(N(N+I)), for a measurement noise, and the Williamson core for
# a covariance.
OCCUPATION_LIMIT = math.sqrt(float(np.finfo(float).max))


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


def _any(flags) -> bool:
    """Whether a per-matrix test holds for any member (one matrix's test is
    a numpy scalar, read as it is: a reduction would cost more)."""
    return flags.any() if flags.ndim else flags


def _first(values, flags):
    """The value of the first member that ``flags`` marks, for a message."""
    return values[flags].flat[0] if flags.ndim else values


def _entry(w: np.ndarray, i: int):
    """``w[..., i]``, but a numpy scalar, not a 0-d array, for a 1-D ``w``,
    so that tests on it cost no ufunc call."""
    return w[..., i][()]


def _all_finite(x) -> bool:
    """Whether every per-matrix value is finite (``math.isfinite`` for one)."""
    return bool(np.isfinite(x).all()) if x.ndim else math.isfinite(x)


def _as_float(x):
    """``x`` as a float when it is one number (the result for one matrix)."""
    return float(x) if x.ndim == 0 else x


def _check_scale(high) -> None:
    """Reject covariances whose largest eigenvalue ``high`` (one per member
    of a stack) exceeds :data:`OCCUPATION_LIMIT`.

    Raises:
        InvalidRange: naming the first such eigenvalue.
    """
    big = high > OCCUPATION_LIMIT
    if _any(big):
        raise InvalidRange(
            f"covariance has eigenvalue {_first(high, big):.3e} above "
            f"sqrt(max float) = {OCCUPATION_LIMIT:.3e}, where its Williamson "
            "core overflows")


def as_hermitian(matrix) -> np.ndarray:
    """Validate and symmetrize square matrices expected to be Hermitian.

    Args:
        matrix: array-like of shape ``(..., s, s)`` with finite entries.

    Returns:
        The symmetrized copy ``(A + A^dag)/2`` of each matrix, as a complex
        array of the input's shape.

    Raises:
        NotHermitian: if a matrix has
            ``max|A - A^dag| > HERMITICITY_RTOL (1 + max|A|)`` or an entry
            that is not finite, or the last two axes are not square.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    # max|a| is NaN or inf exactly when an entry is, so one pass checks both
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    if not _all_finite(scale):
        raise NotHermitian("matrix has non-finite entries")
    adj = a.swapaxes(-1, -2).conj()
    asym = np.abs(a - adj).max(axis=(-2, -1), initial=0.0)
    bad = asym > HERMITICITY_RTOL * scale
    if _any(bad):
        raise NotHermitian(
            f"asymmetry {_first(asym, bad):.3e} exceeds {HERMITICITY_RTOL:.1e} * scale")
    return (a + adj) / 2.0


def as_symmetric(matrix) -> np.ndarray:
    """Validate and symmetrize real square matrices, shape ``(..., s, s)``
    (complex only if real-valued)."""
    a = np.asarray(matrix)
    if np.iscomplexobj(a) and np.any(a.imag != 0.0):
        raise NotSymmetric("matrix has a nonzero imaginary part")
    a = np.asarray(a.real, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    # max|a| is NaN or inf exactly when an entry is, so one pass checks both
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    if not _all_finite(scale):
        raise NotSymmetric("matrix has non-finite entries")
    at = a.swapaxes(-1, -2)
    asym = np.abs(a - at).max(axis=(-2, -1), initial=0.0)
    bad = asym > HERMITICITY_RTOL * scale
    if _any(bad):
        raise NotSymmetric(
            f"asymmetry {_first(asym, bad):.3e} exceeds {HERMITICITY_RTOL:.1e} * scale")
    return (a + at) / 2.0


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
    """Apply a scalar function to a Hermitian matrix (or to each matrix of a
    stack) through its spectrum.

    Eigenvalues in ``[-EIG_CLIP, 0]`` (relative) are clipped to 0 first.

    Raises:
        NotHermitian: on invalid input.
        NegativeEigenvalue: if an eigenvalue lies below that range.
    """
    w, u = np.linalg.eigh(as_hermitian(matrix))
    values = fn(_clipped_spectrum(w, EIG_CLIP))
    return (u * values[..., None, :]) @ u.swapaxes(-1, -2).conj()


def _clipped_spectrum(w: np.ndarray, clip) -> np.ndarray:
    """The spectra ``w`` (along the last axis) with entries in
    ``[-clip (1 + max|w|), 0]`` set to 0; ``clip`` is a float or one value
    per spectrum.

    Raises:
        NegativeEigenvalue: if an entry lies below that range.
    """
    low = w.min(axis=-1, initial=0.0)
    bad = low < -clip * (1.0 + abs(w).max(axis=-1, initial=0.0))
    if _any(bad):
        raise NegativeEigenvalue(f"eigenvalue {_first(low, bad):.3e} below clip tolerance")
    return np.maximum(w, 0.0)


def g_trace(matrix, base: LogBase = LogBase.BITS) -> float | np.ndarray:
    """Trace of ``g`` applied to a Hermitian PSD matrix (sum over spectrum);
    a float for one matrix, an array over the leading axes of a stack."""
    w = np.linalg.eigvalsh(as_hermitian(matrix))
    return _as_float(g_scalar(_clipped_spectrum(w, EIG_CLIP), base).sum(axis=-1))


def psd_sqrt(matrix) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix."""
    return hermitian_function(matrix, np.sqrt)


@lru_cache(maxsize=None)
def symplectic_form(s: int) -> np.ndarray:
    """The canonical form ``Delta`` on ``s >= 1`` modes (else ``NoModes``),
    one shared read-only array per ``s``: block diagonal with
    ``[[0, 1], [-1, 0]]`` blocks over interleaved ``(x_1, p_1, ..., x_s, p_s)``,
    so antisymmetric and squaring to minus the identity.  The covariance
    functions below take ``s`` from their input's size ``2s``.
    """
    if s < 1:
        raise NoModes(f"mode count must be positive, got {s}")
    delta = np.kron(np.eye(s), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    delta.setflags(write=False)
    return delta


def symplectic_spectrum(alpha) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive definite matrix.

    The eigenvalues of ``Delta^-1 alpha`` come in pairs ``+/- i nu_j``; the
    returned values are the positive roots of the spectrum of
    ``-(Delta^-1 alpha)^2``, each duplicate pair counted once, sorted in
    decreasing order along the last axis (``alpha`` may be a stack).

    Raises:
        NotSymmetric: if ``alpha`` is not symmetric.
        DimensionMismatch: if ``alpha`` has an odd size.
        NoModes: if ``alpha`` is ``0 x 0``.
        NotPositiveDefinite: if ``alpha`` is not positive definite.
        InvalidRange: if an eigenvalue of ``alpha`` exceeds
            :data:`OCCUPATION_LIMIT`, where the Williamson core overflows.
        PairingFailure: if the doubled spectrum does not pair within
            tolerance (indicates a badly conditioned input).
    """
    return _symplectic_spectrum(_as_covariance(alpha))


def _as_covariance(alpha) -> np.ndarray:
    """``alpha`` checked symmetric and of even size ``2s``, symmetrized."""
    a = as_symmetric(alpha)
    if a.shape[-1] % 2 != 0:
        raise DimensionMismatch(f"covariance must be 2s x 2s, got {a.shape}")
    return a


def _williamson_core(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sqrt(a), C, max w)`` of validated symmetric ``2s x 2s`` matrices
    (shape ``(..., 2s, 2s)``) with eigenvalues ``w``, where
    ``C = sqrt(a) Delta^T a Delta sqrt(a)`` is PSD and similar to
    ``-(Delta^-1 a)^2``, so its eigenvalues are the ``nu_j^2``, each twice.

    Raises:
        NoModes: if ``s = 0``.
        NotPositiveDefinite: unless ``min w > EIGH_RTOL * 2s * max w``, the
            backward error of the ``eigh`` that gives ``w``.  Any larger
            condition number is accepted, so a strongly squeezed vacuum such
            as ``diag(6e5, 1/2.4e6)`` is.
        InvalidRange: if ``max w`` exceeds :data:`OCCUPATION_LIMIT`.
    """
    delta = symplectic_form(a.shape[-1] // 2)
    w, u = np.linalg.eigh(a)
    low, high = _entry(w, 0), _entry(w, -1)
    bad = low <= EIGH_RTOL * a.shape[-1] * high
    if _any(bad):
        raise NotPositiveDefinite(f"minimum eigenvalue {_first(low, bad):.3e}")
    _check_scale(high)
    root = (u * np.sqrt(w)[..., None, :]) @ u.swapaxes(-1, -2)
    return root, root @ (delta.T @ a @ delta) @ root, high


def _symplectic_spectrum(a: np.ndarray) -> np.ndarray:
    """:func:`symplectic_spectrum` of validated symmetric ``2s x 2s`` matrices."""
    squared = np.linalg.eigvalsh(_williamson_core(a)[1])
    nus = np.sqrt(np.maximum(squared, 0.0))
    nus.sort()
    lo, hi = nus[..., 0::2], nus[..., 1::2]
    mism = (np.abs(hi - lo) / (1.0 + hi)).max(axis=-1, initial=0.0)
    bad = mism > PAIRING_RTOL
    if _any(bad):
        raise PairingFailure(f"duplicate pairs differ by up to {_first(mism, bad):.3e}")
    return ((lo + hi) / 2.0)[..., ::-1].copy()
