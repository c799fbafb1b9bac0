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
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    NegativeArgument,
    NegativeEigenvalue,
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

# Relative tolerance for the duplicate-pair structure of symplectic spectra.
PAIRING_RTOL = 1e-8


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


def as_hermitian(matrix, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate and symmetrize a square matrix expected to be Hermitian.

    Args:
        matrix: square array-like with finite entries.
        rtol: relative tolerance on ``max|A - A^dag|``.

    Returns:
        The symmetrized copy ``(A + A^dag)/2`` as a complex array.

    Raises:
        NotHermitian: if the asymmetry exceeds the tolerance or the shape
            is not square.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NotHermitian("matrix has non-finite entries")
    scale = 1.0 + np.abs(a).max(initial=0.0)
    asym = np.abs(a - a.conj().T).max(initial=0.0)
    if asym > rtol * scale:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {rtol:.1e} * scale")
    return (a + a.conj().T) / 2.0


def as_symmetric(matrix, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate and symmetrize a real square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotSymmetric("matrix has non-finite entries")
    scale = 1.0 + np.abs(a).max(initial=0.0)
    asym = np.abs(a - a.T).max(initial=0.0)
    if asym > rtol * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {rtol:.1e} * scale")
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
    """
    x = np.asarray(x, dtype=float)
    low = x.min(initial=0.0)
    if not low >= -EIG_CLIP:
        raise NegativeArgument(f"g is undefined for x = {low}")
    # g(0) = 0 by continuity; masking keeps 1/x away from zero
    out = np.zeros(x.shape)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = (xp * np.log1p(1.0 / xp) + np.log1p(xp)) / base.ln_base
    return float(out) if out.ndim == 0 else out


def hermitian_function(matrix, fn: Callable[[np.ndarray], np.ndarray],
                       clip: float = EIG_CLIP) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Eigenvalues in ``[-clip, 0]`` are clipped to 0 before ``fn`` is applied.

    Raises:
        NotHermitian: on invalid input.
        NegativeEigenvalue: if an eigenvalue lies below ``-clip``.
    """
    a = as_hermitian(matrix)
    w, u = np.linalg.eigh(a)
    if w.min(initial=0.0) < -clip * (1.0 + abs(w).max(initial=0.0)):
        raise NegativeEigenvalue(f"eigenvalue {w.min():.3e} below clip tolerance")
    w = np.clip(w, 0.0, None)
    return (u * fn(w)) @ u.conj().T


def g_trace(matrix, base: LogBase = LogBase.BITS) -> float:
    """Trace of ``g`` applied to a Hermitian PSD matrix (sum over spectrum)."""
    a = as_hermitian(matrix)
    w = np.linalg.eigvalsh(a)
    if w.min(initial=0.0) < -EIG_CLIP * (1.0 + abs(w).max(initial=0.0)):
        raise NegativeEigenvalue(f"eigenvalue {w.min():.3e} below clip tolerance")
    return float(g_scalar(np.maximum(w, 0.0), base).sum())


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
            raise ValueError(f"mode count must be positive, got {self.s}")

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


def symplectic_form(s: int) -> SymplecticForm:
    return SymplecticForm(s)


def symplectic_spectrum(alpha, form: SymplecticForm) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive definite matrix.

    The eigenvalues of ``Delta^-1 alpha`` come in pairs ``+/- i nu_j``; the
    returned values are the positive roots of the spectrum of
    ``-(Delta^-1 alpha)^2``, each duplicate pair counted once, sorted in
    decreasing order.

    Raises:
        NotSymmetric: if ``alpha`` is not symmetric.
        NotPositiveDefinite: if ``alpha`` is not positive definite.
        PairingFailure: if the doubled spectrum does not pair within
            tolerance (indicates a badly conditioned input).
    """
    a = as_symmetric(alpha)
    if a.shape[0] != 2 * form.s:
        raise NotPositiveDefinite(
            f"covariance is {a.shape[0]}x{a.shape[0]}, form expects {2 * form.s}"
        )
    w = np.linalg.eigvalsh(a)
    if w.min() <= EIG_CLIP * (1.0 + w.max(initial=0.0)):
        raise NotPositiveDefinite(f"minimum eigenvalue {w.min():.3e}")
    root = psd_sqrt(a).real
    delta = form.matrix
    # -(Delta^-1 alpha)^2 is similar to the PSD matrix sqrt(a) Delta^T a Delta sqrt(a),
    # so its spectrum can be taken from a Hermitian eigensolve.
    core = root @ (delta.T @ a @ delta) @ root
    squared = np.linalg.eigvalsh(core)
    nus = np.sqrt(np.clip(squared, 0.0, None))
    nus.sort()
    lo, hi = nus[0::2], nus[1::2]
    mism = np.abs(hi - lo) / (1.0 + hi)
    if mism.max(initial=0.0) > PAIRING_RTOL:
        raise PairingFailure(f"duplicate pairs differ by up to {mism.max():.3e}")
    return ((lo + hi) / 2.0)[::-1].copy()
