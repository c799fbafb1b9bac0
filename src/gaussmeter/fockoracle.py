"""Brute-force verification engine on a truncated number basis.

Everything here is dense linear algebra over the first ``dim`` number
states per mode: thermal states, displacement operators (the exact matrix
exponential of the truncated generator, as a phase rotation of a real
displacement along the real axis), the measurement's operator density,
posterior states, moment extraction, phase averaging, and direct numerical
evaluation of the entropy-reduction integral.  One batched kernel integrates
any number of modes.  It restricts the state to its support (the ``r``
number states with a nonzero row or column; ``D`` is the state dimension),
and the posterior's nonzero spectrum at each outcome is that of an
``r x r`` Gram matrix over its trace.  Per mode, with ``z = r e^{i phi}``,
``D(z)^dag`` is the number phase ``e^{-i phi n}`` followed by ``D(r)^dag`` in
the eigenbasis of ``i(a^dag - a)``, so no ``D x D`` operator is built.  Each
part of the state (below) is factored once as ``W W^dag`` on its support, and
the Gram matrix is ``W_phi^dag P W_phi``: ``P`` is the tensor product of
real per-mode blocks ``X_k^T X_k`` with ``X_k = sqrt(rho_noise,k)
D(|z_k|)^dag``, on the levels the support uses, and ``W_phi`` is ``W`` with
the outcome's number phase ``e^{-i sum_k phi_k n_k}`` on each row.  ``P``
depends on the outcome only through the radii ``|z_k|``, and a mode's block
only on the truncation, the mode's noise occupation, ``|z_k|`` and the
levels used, never on the state.  So each mode builds its blocks once per
distinct radius of its outcomes (17 radii for the 120 outcomes inside the
validity radius of the default grid at dim 40, noise 1) and keeps them
across calls on the key ``(dim, noise occupation, distinct radii, used
levels)``, least recently used out first, while all kept blocks hold at
most ``CHUNK_ENTRIES`` complex entries' bytes (6.5 MB).  A call's cost thus
depends on whether an earlier call built its keys: one that did builds no
block.  The kernel forms ``P`` once per distinct radius tuple, for every
state, and a general state takes ``W_phi^dag P W_phi`` and its spectrum
per outcome.  A number-diagonal state ``diag(a^2)`` drops every phase: its
Gram matrix is ``(a a^T)`` times ``P`` entry by entry, its spectrum is taken
in real arithmetic, and the kernel takes one spectrum per distinct radius
tuple, whose entropy serves every outcome that shares it.  The
measurement acts mode by mode, so a state that its one-mode marginals
recompose is split into one part per mode, each with its own posterior at
every outcome; any other state is one part.  Each part is integrated on its
own outcome columns, and the parts' results combine by products and outer
products (a dim-16 two-mode thermal state takes two batches of ``16 x 16``
spectra, and no ``256 x 256`` eigenproblem).  ``er_numeric`` reads a
number-diagonal state (every off-diagonal entry exactly zero, one
``count_nonzero`` pass over its ``D^2`` entries) on its diagonal alone:
``max |rho|``, the asymmetry, the product test and the support take the
same values on its ``D`` diagonal entries as on all ``D^2``, since the rest
are zeros in the state, its marginals and their recomposition.  The
quadrature rule is the grid's: for one mode a Gauss-Hermite tensor rule
scaled to the outcome distribution, or a Cartesian trapezoid grid, each
with a coarser companion rule on a subset of its points, whose difference
is the error estimate; for two modes seeded importance-sampling Monte
Carlo, with its standard error.
The kernel integrates its outcomes chunk by chunk in the calling thread,
each chunk holding at most ``CHUNK_ENTRIES`` entries of the per-outcome
Gram stack (one outcome at the least); BLAS threads are its only
parallelism.  The kept blocks are read-only and guarded by a lock, so calls
from several threads share them safely.

Outcomes whose displaced noise state cannot be represented faithfully at
the chosen truncation are skipped, with the dropped probability charged
against the quadrature mass budget; see :func:`validity_radius`.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    GridMassDeficit,
    InvalidRange,
    NegligibleOutcome,
    NotPositiveDefinite,
    TruncationTooSmall,
)
from .matfun import LogBase

# Default probability-mass tolerance of the numerically integrated outcome
# distribution.
MASS_TOL = 1e-3

# Outcomes with numeric density below this are skipped (tracked as mass).
P_MIN = 1e-14

# Eigenvalues below this are dropped from entropy sums (truncation noise floor).
ENTROPY_FLOOR = 1e-14

# A multimode state counts as a product of its one-mode marginals when their
# recomposition ``tr(rho) (x)_k m_k`` matches it to this fraction of
# ``max |rho|`` in every entry.  Exact products recompose to within 5 eps of
# it (thermal and random low-energy products of two and three modes); a 1e-9
# departure from a product fails.
PRODUCT_TOL = 1e-14

# Bound on the unrepresented tail of a truncated thermal state or product.
TAIL_TOL = 1e-6

# Entries of the per-outcome stack in one chunk: the kernel's Gram matrices
# (``r^2`` per outcome), or the block builder's ``X_k`` (``dim u_k`` per
# radius).  256 full-width one-mode outcomes at dim 40.  Bounds the kernel's
# working memory at any mode count and support size.  It is also the most, in
# complex entries, that the blocks kept across calls hold (see _mode_blocks).
CHUNK_ENTRIES = 256 * 40 * 40

# Gauss-Hermite nodes per axis of the default one-mode rule, and the innermost
# of them on which its companion, the interpolatory rule for the same Gaussian,
# sits: 20^2 outcomes, 12^2 of them shared.  The companion is exact for degree
# <= 11 per axis and costs no outcome of its own.  More nodes buy nothing: at
# dim 40 the outer nodes already lie past the validity radius and are dropped,
# and that cut, not the node count, sets the accuracy (values wander by about
# 1e-6 on rank-12 states from 16 to 32).
HERMITE_NODES = 20
HERMITE_COMPANION_NODES = 12


def annihilation(dim: int) -> np.ndarray:
    """Single-mode lowering operator on the first ``dim`` number states.

    Raises:
        DimensionMismatch: when ``dim`` keeps fewer than 2 levels.
    """
    _check_levels(dim)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def _check_levels(dim: int) -> None:
    if dim < 2:
        raise DimensionMismatch(f"truncation must keep at least 2 levels, got {dim}")


def validity_radius(dim: int, noise: float) -> float:
    """Largest outcome amplitude representable faithfully at this truncation.

    A noise state displaced by ``z`` occupies number levels around
    ``|z|^2 + nbar`` with spread ``sqrt(|z|^2 (2 nbar + 1) + nbar(nbar+1) + 1)``;
    the radius is the largest ``|z|`` that keeps one spread inside the
    retained space, ``|z|^2 + nbar + spread <= dim``.  With ``t = |z|^2``
    that bound is the smaller root of
    ``t^2 - (2 dim + 1) t + (dim - nbar)^2 - nbar(nbar+1) - 1``, or 0 when
    the root is negative.  Beyond it the truncated operators fold back and
    the numeric outcome density becomes unreliable.

    Raises:
        DimensionMismatch: when ``dim`` keeps fewer than 2 levels.
        ValueError: when ``noise`` is negative or not finite.
    """
    _check_levels(dim)
    nbar = float(noise)
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"mean occupation must be finite and nonnegative, got {nbar}")
    b = 2.0 * dim + 1.0
    c = (dim - nbar) ** 2 - nbar * (nbar + 1.0) - 1.0
    # the discriminant b^2 - 4c = 4 dim (2 nbar + 1) + 4 nbar + 5 is positive;
    # 2c / (b + sqrt(...)) is the smaller root without cancellation
    return math.sqrt(max(0.0, 2.0 * c / (b + math.sqrt(b * b - 4.0 * c))))


def _thermal_diagonal(mean_number: float, dim: int) -> np.ndarray:
    _check_levels(dim)
    if not 0.0 <= mean_number < math.inf:
        raise ValueError(
            f"mean occupation must be finite and nonnegative, got {mean_number}"
        )
    if mean_number == 0.0:
        probs = np.zeros(dim)
        probs[0] = 1.0
        return probs
    ratio = mean_number / (mean_number + 1.0)
    tail = ratio**dim
    if tail > TAIL_TOL:
        raise TruncationTooSmall(
            f"thermal tail mass {tail:.2e} at dim={dim} exceeds {TAIL_TOL:.0e}"
        )
    n = np.arange(dim)
    return ratio**n / (mean_number + 1.0)


def thermal_state(mean_number, dim: int) -> np.ndarray:
    """Thermal density operator, or a product of them for several modes.

    The state is number-diagonal: the Kronecker product of the modes' thermal
    distributions is written onto the diagonal of a complex zero matrix, the
    same bits as ``kron`` of the modes' dense diagonal matrices, which are
    never built.

    Args:
        mean_number: scalar occupation, or one occupation per mode.
        dim: per-mode truncation dimension.

    Raises:
        DimensionMismatch: when no occupation is given, the occupations are
            not a scalar or a 1-D array, or ``dim`` keeps fewer than 2 levels.
        ValueError: when an occupation is negative or not finite.
        TruncationTooSmall: if the discarded mass exceeds :data:`TAIL_TOL`:
            the geometric tail ``t_k`` of a mode, or the product's
            ``1 - prod_k (1 - t_k)``, which is larger.
    """
    means = np.atleast_1d(np.asarray(mean_number, dtype=float))
    if means.ndim > 1:
        raise DimensionMismatch(
            f"occupations must be a scalar or one per mode, got shape {means.shape}"
        )
    if means.size == 0:
        raise DimensionMismatch("a thermal state needs at least one mode")
    diagonals = [_thermal_diagonal(mean, dim) for mean in means]
    missing = 1.0 - math.prod(d.sum() for d in diagonals)
    if missing > TAIL_TOL:
        raise TruncationTooSmall(f"thermal product tail mass {missing:.2e} exceeds {TAIL_TOL:.0e}")
    probs = reduce(np.multiply.outer, diagonals).ravel()
    rho = np.zeros((probs.size, probs.size), dtype=complex)
    np.fill_diagonal(rho, probs)
    return rho


@lru_cache(maxsize=8)
def _displacement_basis(dim: int):
    """Spectrum ``theta`` and eigenbasis ``V`` of the truncated generator ``i(a^dag - a)``.

    Every displacement is built from this one basis as
    ``D(z) = U_phi D(r) U_phi^dag`` with ``z = r e^{i phi}``,
    ``U_phi = e^{i phi n}`` and ``D(r) = exp(r(a^dag - a)) =
    V e^{-i r theta} V^dag``, which is real.  ``U_phi a U_phi^dag =
    e^{-i phi} a`` holds on the truncated space too, so the product is exactly
    the truncated ``exp(z a^dag - conj(z) a)``.
    """
    a = annihilation(dim)
    return np.linalg.eigh(1j * (a.conj().T - a))


def unitarity_defect(op: np.ndarray) -> float:
    """Max-norm deviation of ``op^dag op`` from the identity."""
    dim = op.shape[0]
    return float(np.abs(op.conj().T @ op - np.eye(dim)).max())


def displacement(z, dim: int) -> np.ndarray:
    """Truncated displacement operator ``exp(z a^dag - conj(z) a)``.

    Evaluated as ``e^{i phi n} exp(r(a^dag - a)) e^{-i phi n}`` for
    ``z = r e^{i phi}``, which equals the exponential of the truncated
    generator exactly (see :func:`_displacement_basis`).  Accepts one
    amplitude per mode; multimode operators are tensor products.  Warns when
    ``|z|^2 > dim/4`` (the action on low-lying states degrades well before the
    amplitude reaches ``sqrt(dim)``).

    Raises:
        DimensionMismatch: when ``dim`` keeps fewer than 2 levels.
        ValueError: if an amplitude is not finite.
        TruncationTooSmall: if the constructed matrix fails the unitarity
            check, which only happens on arithmetic blowup since the
            truncated generator is exactly anti-Hermitian.
    """
    _check_levels(dim)
    amps = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.isfinite(amps).all():
        raise ValueError(f"displacement amplitudes must be finite, got {z}")
    for amp in amps:
        if abs(amp) ** 2 > dim / 4.0:
            warnings.warn(
                f"displacement amplitude |z|^2 = {abs(amp)**2:.1f} exceeds dim/4 = "
                f"{dim / 4.0:.1f}; matrix elements near the truncation edge are inaccurate",
                stacklevel=2,
            )
    theta, v = _displacement_basis(dim)
    n = np.arange(dim)
    out = np.ones((1, 1), dtype=complex)
    for amp in amps:
        d_r = ((v * np.exp(-1j * abs(amp) * theta)) @ v.conj().T).real
        phase = np.exp(1j * np.angle(amp) * n)
        out = np.kron(out, phase[:, None] * d_r * phase.conj())
    if not unitarity_defect(out) <= 1e-6:
        raise TruncationTooSmall("displacement failed the unitarity check")
    return out


def povm_density(noise, z, dim: int) -> np.ndarray:
    """Operator density ``D(z) rho_noise D(z)^dag`` of the measurement POVM.

    Raises:
        ValueError: when ``z`` or ``noise`` is not finite.
    """
    d_op = displacement(z, dim)
    return d_op @ thermal_state(noise, dim) @ d_op.conj().T


def _check_square(op: np.ndarray, what: str) -> None:
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionMismatch(f"{what} must be a square matrix, got shape {op.shape}")


def _as_density(rho) -> np.ndarray:
    """``rho`` as a complex array, rejected before any work unless it is a
    finite square matrix."""
    rho = np.asarray(rho, dtype=complex)
    _check_square(rho, "a state")
    if not np.isfinite(rho).all():
        raise ValueError("density operator has non-finite entries")
    return rho


def _is_number_diagonal(rho: np.ndarray) -> bool:
    """Whether every off-diagonal entry of ``rho`` is exactly zero, decided
    by one ``count_nonzero`` pass over its ``D^2`` entries.  On such a state
    ``max |rho|``, the asymmetry ``rho - rho^dag`` and the product test take
    the same values on the ``D`` diagonal entries as on all ``D^2``."""
    return np.count_nonzero(rho) == np.count_nonzero(np.diagonal(rho))


def _check_density(rho: np.ndarray, w: np.ndarray, scale: float,
                   number_diagonal: bool = False) -> None:
    """Check Hermiticity, unit trace and positivity of ``rho``, with spectrum
    ``w``, ``scale = max |rho|`` and ``number_diagonal`` from
    :func:`_is_number_diagonal`."""
    if number_diagonal:
        # rho - rho^dag is zero off the diagonal and 2i Im rho_ii on it
        diagonal = np.diagonal(rho)
        defect = np.abs(diagonal - diagonal.conj()).max(initial=0.0)
    else:
        defect = np.abs(rho - rho.conj().T).max(initial=0.0)
    if defect > 1e-9 * (1.0 + scale):
        raise ValueError(f"density operator asymmetry {defect:.3e}")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > 1e-6:
        raise ValueError(f"density operator trace {trace} is not 1 within 1e-6")
    w_min = w.min(initial=0.0)
    if w_min < -1e-10:
        raise ValueError(f"density operator has eigenvalue {w_min:.3e}")


def _spectrum_entropy(w: np.ndarray, base: LogBase) -> float:
    w = w[w > ENTROPY_FLOOR]
    return float(-(w * np.log(w)).sum() / base.ln_base)


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check shape (``DimensionMismatch``), finiteness, Hermiticity, unit
    trace and positivity (``ValueError``) of a state."""
    rho = _as_density(rho)
    _check_density(rho, np.linalg.eigvalsh(rho), np.abs(rho).max(initial=0.0))
    return rho


def von_neumann_entropy(rho: np.ndarray, base: LogBase = LogBase.BITS) -> float:
    """Entropy of a PSD operator; eigenvalues below the noise floor are dropped.

    Raises:
        DimensionMismatch: when ``rho`` is not a square matrix.
    """
    rho = np.asarray(rho)
    _check_square(rho, "a state")
    return _spectrum_entropy(np.linalg.eigvalsh(rho), base)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators.

    Raises:
        DimensionMismatch: when ``a`` is not a square matrix or ``b`` has
            another shape.
    """
    a, b = np.asarray(a), np.asarray(b)
    _check_square(a, "an operator")
    if b.shape != a.shape:
        raise DimensionMismatch(f"operators of shapes {a.shape} and {b.shape} differ")
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def _mode_dimension(rho: np.ndarray, modes: int) -> int:
    """Per-mode truncation of a ``modes``-mode state."""
    if modes < 1:
        raise DimensionMismatch(f"mode count must be positive, got {modes}")
    dim = round(rho.shape[0] ** (1.0 / modes))
    if dim**modes != rho.shape[0]:
        raise DimensionMismatch(
            f"state dimension {rho.shape[0]} is not a {modes}-mode power"
        )
    return dim


def _mode_occupations(noise, modes: int) -> np.ndarray:
    """One noise occupation per mode, from one for every mode or one per mode."""
    occupations = np.atleast_1d(np.asarray(noise, dtype=float))
    if occupations.size == 1:
        return np.repeat(occupations, modes)
    if occupations.size != modes:
        raise DimensionMismatch(
            f"{occupations.size} noise occupations, expected 1 or {modes}"
        )
    return occupations


def posterior_state(rho: np.ndarray, noise, z) -> tuple[np.ndarray, float]:
    """Posterior state and outcome density for outcome ``z``.

    Returns the unit-trace operator
    ``sqrt(rho_noise) D(z)^dag rho D(z) sqrt(rho_noise) / p`` together with
    the density value ``p`` (against ``d^{2s}z / pi^s``).  ``noise`` is one
    occupation for every mode, or one per mode.

    Raises:
        ValueError: when ``rho`` or ``z`` is not finite.
        DimensionMismatch: when the state is not a square matrix, its
            dimension is not a power of the mode count of ``z``, or ``noise``
            has neither 1 nor ``s`` entries.
        NegligibleOutcome: when ``p`` falls below :data:`P_MIN`.
    """
    rho = _as_density(rho)
    modes = np.atleast_1d(np.asarray(z)).size
    dim = _mode_dimension(rho, modes)
    noise = _mode_occupations(noise, modes)
    d_op = displacement(z, dim)
    root = np.sqrt(thermal_state(noise, dim))
    raw = root @ d_op.conj().T @ rho @ d_op @ root
    p = float(np.trace(raw).real)
    if p < P_MIN:
        raise NegligibleOutcome(f"outcome density {p:.3e} below {P_MIN:.0e}")
    return raw / p, p


def normal_moments(rho: np.ndarray) -> tuple[complex, float, complex]:
    """First, normal second, and anomalous second moments of a one-mode state.

    Returns ``(<a>, Tr a rho a^dag, <a a>)``.

    Raises:
        DimensionMismatch: when ``rho`` is not a square matrix, or is
            ``1 x 1``: :func:`annihilation` needs at least 2 levels.
    """
    rho = np.asarray(rho)
    _check_square(rho, "a state")
    a = annihilation(rho.shape[0])
    first = complex(np.trace(rho @ a))
    normal = float(np.trace(a @ rho @ a.conj().T).real)
    anomalous = complex(np.trace(rho @ a @ a))
    return first, normal, anomalous


def gauge_average(rho: np.ndarray, modes: int = 1) -> np.ndarray:
    """Average a state over the phase group of the total number operator.

    For one mode this keeps exactly the diagonal of the number basis; for
    several modes it keeps matrix elements between states of equal total
    occupation.  Normal second moments are preserved, first and anomalous
    moments are annihilated.

    Raises:
        ValueError: when the state is not finite.
        DimensionMismatch: when the state is not a square matrix, ``modes``
            is not positive, or the state's dimension is not a ``modes``
            power.
    """
    rho = _as_density(rho)
    dim = _mode_dimension(rho, modes)
    if modes == 1:
        return np.diag(np.diag(rho))
    grids = np.meshgrid(*([np.arange(dim)] * modes), indexing="ij")
    totals = sum(grids).ravel()
    mask = totals[:, None] == totals[None, :]
    return rho * mask


@dataclass(frozen=True)
class OutcomeGrid:
    """Quadrature rule for the outcome integral.

    ``points`` holds complex outcomes, shape ``(n,)`` for one mode or
    ``(n, s)`` for ``s``; ``weights`` are the quadrature weights against the
    measure ``d^{2s}z / pi^s`` (for Monte Carlo they fold in the reciprocal
    proposal density, so the same weighted sums apply to both schemes).
    ``coarse``, when given, holds a companion rule's weights on the same
    points; the difference of the two rules is the error estimate.
    """

    points: np.ndarray
    weights: np.ndarray
    coarse: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.points.shape[0] == 0:
            raise ValueError("an outcome grid needs at least one point")
        for name in ("points", "weights", "coarse"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"outcome grid {name} must be finite")
        for name in ("weights", "coarse"):
            values = getattr(self, name)
            if values is not None and np.shape(values) != self.points.shape[:1]:
                raise ValueError(f"outcome grid {name} must hold one entry per point")
        if np.any(self.weights < 0.0):
            raise ValueError("quadrature weights must be nonnegative")


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the square grid ``axis x axis`` against ``d^2z / pi``."""
    w1 = np.full(axis.size, axis[1] - axis[0])
    w1[0] *= 0.5
    w1[-1] *= 0.5
    return np.outer(w1, w1) / math.pi


def cartesian_grid(radius: float, step: float) -> OutcomeGrid:
    """Trapezoid rule on the square ``[-R, R]^2`` of one-mode outcomes.

    The point count per axis is odd, so every other point forms a
    half-resolution subgrid; its trapezoid weights are the companion rule.

    Raises:
        InvalidRange: when ``radius`` or ``step`` is not positive and finite.
    """
    if not (0.0 < radius < math.inf and 0.0 < step < math.inf):
        raise InvalidRange(
            f"radius and step must be positive and finite, got {radius}, {step}"
        )
    half = max(1, math.ceil(radius / step))
    axis = np.linspace(-half * step, half * step, 2 * half + 1)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    coarse = np.zeros((axis.size, axis.size))
    coarse[::2, ::2] = _trapezoid_weights(axis[::2])
    return OutcomeGrid(
        points=(xs + 1j * ys).ravel(),
        weights=_trapezoid_weights(axis).ravel(),
        coarse=coarse.ravel(),
    )


@lru_cache(maxsize=4)
def _hermite_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Physicists' Gauss-Hermite nodes ``u`` and weights times ``exp(u^2)``.

    Both arrays are read-only: every call with ``nodes`` shares them.
    """
    u, w = np.polynomial.hermite.hermgauss(nodes)
    w1 = w * np.exp(u * u)
    u.flags.writeable = w1.flags.writeable = False
    return u, w1


@lru_cache(maxsize=4)
def _hermite_companion(nodes: int, inner: int) -> np.ndarray:
    """Weights times ``exp(u^2)`` of the interpolatory rule for ``exp(-u^2)``
    on the ``inner`` innermost of the ``nodes`` physicists' nodes ``u`` of
    :func:`_hermite_nodes`, zero on the others.

    The nodes are symmetric and sorted, so the innermost are the middle ones.
    The weights solve the moment equations in the Hermite basis,
    ``sum_j w_j H_k(u_j) = sqrt(pi) [k = 0]`` for ``k < inner``, so the rule
    is exact for polynomials of degree below ``inner``.  The array is
    read-only: every call with ``nodes`` and ``inner`` shares it.
    """
    u, _ = _hermite_nodes(nodes)
    kept = slice((nodes - inner) // 2, (nodes + inner) // 2)
    moments = np.zeros(inner)
    moments[0] = math.sqrt(math.pi)
    vander = np.polynomial.hermite.hermvander(u[kept], inner - 1)
    w1 = np.zeros(nodes)
    w1[kept] = np.linalg.solve(vander.T, moments) * np.exp(u[kept] ** 2)
    w1.flags.writeable = False
    return w1


def default_grid(mean_correlation: float, noise: float) -> OutcomeGrid:
    """Gauss-Hermite rule scaled to the outcome covariance ``S = lambda + N + 1``.

    The physicists' nodes ``u`` of the ``HERMITE_NODES`` rule are scaled by
    ``sqrt(S)`` on both axes, and their weights carry ``exp(u^2)`` back out,
    so ``weights`` applies to the outcome density itself against
    ``d^2z / pi``; it is exact for that Gaussian times any polynomial of
    degree below ``2 HERMITE_NODES`` per axis.  ``coarse`` is the companion,
    the interpolatory rule for the same Gaussian on the tensor square of the
    ``HERMITE_COMPANION_NODES`` innermost nodes (:func:`_hermite_companion`),
    zero on the other points: it costs no outcome of its own, and is exact
    for degree below ``HERMITE_COMPANION_NODES`` per axis.
    """
    variance = mean_correlation + noise + 1.0
    if not 0.0 < variance < math.inf:
        raise ValueError(
            f"outcome variance lambda + N + 1 = {variance} must be positive and finite"
        )
    u, w1 = _hermite_nodes(HERMITE_NODES)
    c1 = _hermite_companion(HERMITE_NODES, HERMITE_COMPANION_NODES)
    axis = math.sqrt(variance) * u
    scale = variance / math.pi
    return OutcomeGrid(
        points=(axis[:, None] + 1j * axis[None, :]).ravel(),
        weights=(scale * np.outer(w1, w1)).ravel(),
        coarse=(scale * np.outer(c1, c1)).ravel(),
    )


def monte_carlo_grid(
    output_covariance: np.ndarray, n_samples: int, seed: int
) -> OutcomeGrid:
    """Importance sample two-mode outcomes from a complex Gaussian proposal.

    ``output_covariance`` is the 2x2 Hermitian covariance of the proposal
    density ``exp(-z* S^-1 z)/det S`` against ``d^4 z / pi^2``; weights are
    the reciprocal proposal density over the sample count, so weighted sums
    estimate integrals against the outcome measure.

    Raises:
        ValueError: when ``n_samples`` is not a positive integer.
        DimensionMismatch: when the covariance is not 2x2.
        NotPositiveDefinite: when it is not finite and positive definite.
    """
    integer = isinstance(n_samples, (int, np.integer)) and not isinstance(n_samples, bool)
    if not integer or n_samples < 1:
        raise ValueError(
            f"Monte Carlo sampling needs at least one point, got {n_samples!r}"
        )
    sigma = np.asarray(output_covariance, dtype=complex)
    if sigma.shape != (2, 2):
        raise DimensionMismatch("two-mode sampling expects a 2x2 covariance")
    w, u = np.linalg.eigh(sigma)
    if not w.min() > 0.0:  # also false for a NaN spectrum
        raise NotPositiveDefinite(
            f"proposal covariance must be positive definite, spectrum {w}"
        )
    rng = np.random.default_rng(seed)
    root = (u * np.sqrt(w)) @ u.conj().T
    zeta = (
        rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    ) / math.sqrt(2.0)
    points = zeta @ root.T
    sigma_inv = np.linalg.inv(sigma)
    dens = np.exp(-np.einsum("ni,ij,nj->n", points.conj(), sigma_inv, points).real)
    dens /= np.linalg.det(sigma).real
    weights = 1.0 / (n_samples * dens)
    return OutcomeGrid(points=points, weights=weights)


# Each mode's blocks X_k^T X_k by key, least recently used first; see
# _mode_blocks.
_blocks: OrderedDict = OrderedDict()
_blocks_lock = threading.Lock()


def _build_mode_blocks(dim: int, nbar: float, radii: np.ndarray,
                       used: np.ndarray) -> np.ndarray:
    """``(m, u^2)`` stack of one mode's ``X^T X``, one row per radius.

    ``X = sqrt(rho_noise) D(r)^dag`` is real, ``dim x u`` on the ``u``
    levels ``used``, at each of the ``m`` radii ``r`` in ``radii``.  It is
    built chunk by chunk, each chunk's ``X`` stack at most
    ``CHUNK_ENTRIES`` entries: one complex GEMM
    ``(sqrt(rho_noise) V) @ (e^{i r theta} o V^dag[:, used])`` over the
    chunk's radii, its real part, and a batched ``X^T X``.
    """
    theta, v = _displacement_basis(dim)
    root = np.sqrt(_thermal_diagonal(nbar, dim))[:, None] * v
    vd = v.conj().T[:, used]
    m, u = radii.size, used.size
    stack = np.empty((m, u * u))
    chunk = max(1, CHUNK_ENTRIES // (dim * u))
    for start in range(0, m, chunk):
        r = radii[start : start + chunk]
        # x: the real X at each radius, as (radius, level, dim)
        x = vd[:, None, :] * np.exp(1j * np.outer(theta, r))[:, :, None]
        x = (root @ x.reshape(dim, -1)).real.reshape(dim, r.size, u).transpose(1, 2, 0)
        np.matmul(x, x.transpose(0, 2, 1),
                  out=stack[start : start + r.size].reshape(r.size, u, u))
    return stack


def _mode_blocks(dim: int, nbar: float, radii: np.ndarray, used: np.ndarray) -> np.ndarray:
    """:func:`_build_mode_blocks`, read-only and kept across calls.

    The stack reads neither the state nor the outcomes' phases, so it is
    kept on the key ``(dim, nbar, radii, used)`` (the arrays by their
    bytes), least recently used out first, while the kept stacks hold at
    most ``CHUNK_ENTRIES`` complex entries' bytes; a larger stack serves its
    own call and is not kept.  Safe to call from several threads.
    """
    key = (dim, float(nbar), radii.tobytes(), used.tobytes())
    with _blocks_lock:
        stack = _blocks.get(key)
        if stack is not None:
            _blocks.move_to_end(key)
            return stack
    stack = _build_mode_blocks(dim, nbar, radii, used)
    stack.flags.writeable = False
    budget = CHUNK_ENTRIES * np.dtype(complex).itemsize
    if stack.nbytes <= budget:
        with _blocks_lock:
            _blocks[key] = stack
            held = sum(kept.nbytes for kept in _blocks.values())
            while held > budget:
                held -= _blocks.popitem(last=False)[1].nbytes
    return stack


def _er_outcome_terms(
    support: np.ndarray,
    factor: np.ndarray,
    dim: int,
    noise: np.ndarray,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density and normalized posterior spectrum at each point, ``s`` modes.

    ``points`` has shape ``(n, s)``, ``noise`` one occupation per mode and
    ``dim`` is the truncation per mode.  The state lives on the ``r`` number
    states ``S = support`` (flat indices into ``D = dim^s``), as
    ``rho[S, S] = W W^dag``; the unnormalized posterior
    ``sqrt(rho_noise) D(z)^dag rho D(z) sqrt(rho_noise)`` has the nonzero
    spectrum of the ``r x r`` Gram matrix ``G = B^dag B`` for
    ``B = sqrt(rho_noise) D(z)^dag W``.  Per mode, with ``z = |z| e^{i phi}``,
    ``D(z)^dag = U_phi V e^{i |z| theta} V^dag U_phi^dag``, and the left
    ``U_phi`` commutes with the diagonal noise root and drops out, so
    ``G = W_phi^dag P[S, S] W_phi``.  ``W_phi = U_phi^dag W`` is ``W`` with
    the phase ``e^{-i sum_k phi_k n_k}`` on each row, and
    ``P = (x)_k X_k^T X_k`` for the real ``X_k = sqrt(rho_noise,k)
    D(|z_k|)^dag``.  Only the ``u_k`` levels of mode ``k`` that ``S`` uses
    are needed, so ``X_k`` is ``dim x u_k``, and ``P[S, S]`` is gathered
    from the ``u_k x u_k`` blocks by a flat index.  No ``D``-sized stack is
    built.

    ``P`` reads the outcome only through its radii ``|z_k|``, and the phases
    act only on ``W_phi``.  So each mode takes the distinct radii of its
    outcome column (a 1-D ``np.unique``, exact float equality) and its
    blocks ``X_k^T X_k`` at those radii from :func:`_mode_blocks`, which
    keeps them across calls on the key ``(dim, noise occupation, radii,
    used levels)``: a call whose keys an earlier call built builds no block.
    For ``s > 1`` the modes' radius indices combine into the distinct radius
    tuples (``np.ravel_multi_index`` and a 1-D ``np.unique``), so each mode
    builds each of its radii once, not once per tuple.  Each chunk forms
    ``P`` once per distinct tuple among its rows, gathering each mode's
    block by the flat index and multiplying them in mode order.
    ``factor`` is ``W`` (2-D, ``r x r``) for a general state: each outcome
    gathers its tuple's ``P`` and takes ``W_phi^dag P W_phi`` and its
    spectrum, and ``rows`` is ``arange(n)``.  For a number-diagonal state
    ``factor`` is 1-D, the amplitudes ``a`` of ``rho[S, S] = diag(a^2)``,
    zeros allowed: ``W = diag(a)``, the row phases act on it as a unitary on
    the right and drop out, and ``G = (a a^T) o P[S, S]`` (``o`` entry by
    entry) is real and depends on the radii alone.  Then the kernel
    integrates the distinct tuples, and ``rows`` maps every point to its
    tuple's row of the results.  Either way the values are those of a
    point-by-point evaluation, bit for bit, built or kept blocks alike:
    each row's phase ``sum_k phi_k n_k`` is summed mode by mode, the same
    for one point as for any batch.

    Chunks hold at most ``CHUNK_ENTRIES`` entries of the per-outcome stack,
    ``r^2`` for ``G``: a chunk of ``m`` outcomes allocates its ``P`` stack
    (``r^2`` reals per distinct tuple), the gathered blocks and each
    outcome's ``P`` and ``G`` as it goes.  Besides, each mode's block stack
    holds ``u_k^2`` reals per distinct radius of the whole column, kept or
    not.  The chunk size changes no bit of the results, nor does the
    builder's.

    Returns ``(p, spectra, rows)``: the density ``p = tr G`` and the spectrum
    of ``G / p``, one row of ``r`` eigenvalues per integrated point,
    roundoff-negative ones included, and each point's row.  A point whose
    ``p`` is below :data:`P_MIN` gets ``p = 0`` and a zero row, and its ``G``
    is never diagonalized.  The entropy, with its floor, is taken by
    :func:`er_numeric`, so the kernel serves every part of a state alike.
    """
    rank = support.size
    modes = points.shape[1]
    levels = np.array(np.unravel_index(support, (dim,) * modes))
    # per mode: each outcome's index into the column's distinct radii, the
    # blocks X_k^T X_k at those radii, and P[S, S]'s flat index into a block,
    # None when P[S, S] is the block itself (always for one mode)
    indices, stacks, flats = [], [], []
    for nbar, level, column in zip(noise, levels, points.T):
        used, pos = np.unique(level, return_inverse=True)
        radii, index = np.unique(np.abs(column), return_inverse=True)
        indices.append(index)
        stacks.append(_mode_blocks(dim, nbar, radii, used))
        flats.append(None if np.array_equal(pos, np.arange(rank))
                     else (pos[:, None] * used.size + pos[None, :]).ravel())
    # the distinct radius tuples, each as one radius index per mode
    if modes == 1:
        inverse, tuple_radii = indices[0], [np.arange(stacks[0].shape[0])]
    else:
        sizes = [stack.shape[0] for stack in stacks]
        codes, inverse = np.unique(np.ravel_multi_index(indices, sizes),
                                   return_inverse=True)
        tuple_radii = np.unravel_index(codes, sizes)
    diagonal = factor.ndim == 1
    if diagonal:
        # G reads only the radii: integrate each distinct tuple once
        tuples, rows = np.arange(tuple_radii[0].size), inverse
        amplitudes = np.outer(factor, factor).ravel()
    else:
        tuples, rows = inverse, np.arange(points.shape[0])
        amplitudes = 1.0  # the blocks' product is P[S, S] itself
        phases = reduce(np.add, map(np.multiply.outer, np.angle(points).T, levels))
    n = tuples.size
    chunk = max(1, CHUNK_ENTRIES // (rank * rank))
    density = np.zeros(n)
    spectra = np.zeros((n, rank))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        distinct, local = np.unique(tuples[start:stop], return_inverse=True)
        # the distinct tuples' P: each mode's gathered blocks, multiplied in
        # mode order (the order fixes the last bits)
        built = amplitudes
        for stack, flat, radius in zip(stacks, flats, tuple_radii):
            ids = radius[distinct]
            if flat is None:
                built = built * stack[ids]
            else:
                built = built * np.take(stack, ids[:, None] * stack.shape[1] + flat)
        if diagonal:
            gram = built.reshape(-1, rank, rank)
        else:
            p_stack = built[local].reshape(-1, rank, rank)
            # W_phi: W with the phase e^{-i sum_k phi_k n_k} on each row.
            # P W_phi is taken in real arithmetic on its interleaved real and
            # imaginary parts; W_phi^dag then conjugates W_phi in place
            w_phi = np.exp(-1j * phases[start:stop])[:, :, None] * factor
            product = (p_stack @ w_phi.view(float)).view(complex)
            gram = np.swapaxes(np.conjugate(w_phi, out=w_phi), 1, 2) @ product
        ps = np.einsum("kii->k", gram).real
        keep = ps >= P_MIN
        if not np.any(keep):
            continue
        idx = np.nonzero(keep)[0] + start
        density[idx] = ps[keep]
        spectra[idx] = np.linalg.eigvalsh(gram[keep]) / ps[keep, None]
    return density, spectra, rows


def _factor(rho: np.ndarray,
            number_diagonal: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support ``S``, spectrum ``w`` and kernel factor of a state.

    ``rho`` is zero off its support (the states with a nonzero row or
    column), so one ``eigh`` of that block gives its nonzero spectrum and
    ``W``, ``rho[S, S] = W W^dag``.  Every eigenpair is kept: a spectral
    floor would tie the cost to a state's tail.  A number-diagonal state
    (``number_diagonal``, from :func:`_is_number_diagonal`) skips ``eigh``
    and reads its diagonal alone: its support is the nonzero diagonal
    entries, and its factor the amplitudes ``sqrt(diag rho)``, which drop
    the outcome's phases from the Gram matrix.
    """
    if number_diagonal:
        diagonal = np.diagonal(rho)
        support = np.flatnonzero(diagonal)
        w = diagonal[support].real
        return support, w, np.sqrt(np.clip(w, 0.0, None))
    nonzero = rho != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    w, u = np.linalg.eigh(rho[np.ix_(support, support)])
    return support, w, u * np.sqrt(np.clip(w, 0.0, None))


def _product_parts(rho: np.ndarray, number_diagonal: bool, dim: int, modes: int,
                   scale: float) -> list[np.ndarray]:
    """Independent parts of a state: ``[rho]``, or one operator per mode.

    The parts are ``[tr(rho) m_0, m_1, ...]`` for the unit-trace marginals
    ``m_k = Tr_{!=k} rho / tr rho`` when their Kronecker product ``R`` is
    within :data:`PRODUCT_TOL` of ``scale = max |rho|`` of ``rho`` in every
    entry.
    ``R``'s spectrum stands in for ``rho``'s: by Weyl's bound they differ by
    at most ``||rho - R||_2 <= D PRODUCT_TOL max |rho|`` (2.6e-12 at
    ``D = 256``), inside the ``-1e-10`` positivity threshold for ``D < 10^4``.
    When ``rho`` is number-diagonal (``number_diagonal``), every
    off-diagonal entry of ``rho``, of its marginals and so of ``R`` is
    exactly zero, and the test compares ``R``'s diagonal, the outer product
    of the marginals' diagonals, with ``rho``'s: no ``D x D`` matrix is
    formed.
    """
    trace = np.trace(rho).real if modes > 1 else 0.0
    if trace == 0.0:  # one mode, or no state: the trace check rejects it
        return [rho]
    parts = []
    for k in range(modes):
        # rows and columns split as (modes before k, mode k, modes after k)
        shape = (dim**k, dim, dim ** (modes - k - 1)) * 2
        parts.append(np.einsum("aibajb->ij", rho.reshape(shape)) / trace)
    parts[0] = trace * parts[0]
    if number_diagonal:
        departure = (reduce(np.multiply.outer, map(np.diagonal, parts)).ravel()
                     - np.diagonal(rho))
    else:
        departure = reduce(np.kron, parts) - rho
    if np.abs(departure).max() > PRODUCT_TOL * scale:
        return [rho]
    return parts


def er_numeric(
    rho: np.ndarray,
    noise,
    grid: OutcomeGrid,
    base: LogBase = LogBase.BITS,
    mass_tol: float = MASS_TOL,
) -> tuple[float, float]:
    """Entropy reduction by direct numerical integration.

    Computes ``H(rho) - sum_i w_i p(z_i) H(posterior(z_i))`` over the grid.
    Outcomes with any amplitude beyond the truncation's validity radius
    (the smallest over the modes) are excluded and their (negligible)
    probability charged to the mass deficit; outcomes with density below
    :data:`P_MIN` are skipped the same way.

    Every state is a list of independent parts (:func:`_product_parts`),
    each integrated on its own outcome columns.  ``H(rho)`` and the
    positivity check read the outer product of the parts' spectra, and a
    number-diagonal ``rho`` takes its other checks and the product test on
    its diagonal alone (:func:`_is_number_diagonal`), with the same values.  An
    outcome's density is the product of the parts' densities and its
    posterior spectrum the outer product of theirs, once per distinct tuple
    of the parts' rows, and :data:`P_MIN` and :data:`ENTROPY_FLOOR` apply
    to those as to a joint posterior's.

    Args:
        noise: one occupation for every mode, or one per mode.

    Returns:
        ``(value, error_estimate)``; the estimate is the difference of the
        values of ``weights`` and of the companion rule ``coarse`` when the
        grid has one, else the Monte Carlo standard error.  It is not a
        bound: it misses truncation error and the validity-radius cut.

    Raises:
        ValueError: when ``rho`` or ``noise`` is not finite, ``rho`` is not
            a density operator, or ``mass_tol`` is negative or NaN.
        DimensionMismatch: when the state is not a square matrix, its
            dimension is not a power of the grid's mode count, or ``noise``
            has neither 1 nor ``s`` entries.
        GridMassDeficit: when the integrated outcome probability misses 1
            by more than ``mass_tol``.
    """
    if not mass_tol >= 0.0:
        raise ValueError(f"mass tolerance must be nonnegative, got {mass_tol}")
    rho = _as_density(rho)
    points = grid.points.reshape(grid.points.shape[0], -1)
    n, modes = points.shape
    dim = _mode_dimension(rho, modes)
    noise_arr = _mode_occupations(noise, modes)
    diagonal = _is_number_diagonal(rho)
    # max |rho| scales the product test and the asymmetry check alike
    scale = np.abs(np.diagonal(rho) if diagonal else rho).max(initial=0.0)
    parts = _product_parts(rho, diagonal, dim, modes, scale)
    # one part is rho itself, already tested; a mode's part is tested alone
    factored = [_factor(part, diagonal if part is rho else _is_number_diagonal(part))
                for part in parts]
    w = reduce(np.multiply.outer, [w_k for _, w_k, _ in factored]).ravel()
    _check_density(rho, w, scale, diagonal)
    entropy_in = _spectrum_entropy(w, base)

    r_valid = min(validity_radius(dim, nbar) for nbar in noise_arr)
    idx = np.nonzero(np.abs(points).max(axis=1) <= r_valid)[0]
    inside = points[idx]
    width = modes // len(factored)
    terms = [
        _er_outcome_terms(support, factor, dim, noise_arr[k : k + width],
                          inside[:, k : k + width])
        for k, (support, _, factor) in zip(range(0, modes, width), factored)
    ]
    # each posterior is the product of the parts' posteriors: one entropy per
    # distinct tuple of the parts' rows, with the product of their densities
    # and the outer product of their spectra
    p, spectra, rows = terms[0]
    for p_k, spectra_k, rows_k in terms[1:]:
        pairs, rows = np.unique(rows * p_k.size + rows_k, return_inverse=True)
        first, second = np.divmod(pairs, p_k.size)
        p = p[first] * p_k[second]
        spectra = spectra[first, :, None] * spectra_k[second, None, :]
        # the width is explicit: with no outcome inside the radius, -1 is unknown
        spectra = spectra.reshape(pairs.size, spectra.shape[1] * spectra.shape[2])
    # one entropy per integrated row; rows maps the outcomes onto them
    keep = p >= P_MIN
    spectra = spectra[keep]
    # roundoff-negative eigenvalues fall under the floor with the rest
    logs = np.where(spectra > ENTROPY_FLOOR,
                    np.log(np.maximum(spectra, ENTROPY_FLOOR)), 0.0)
    p_entropy = np.zeros(p.size)
    p_entropy[keep] = p[keep] * (-(spectra * logs).sum(axis=1) / base.ln_base)
    density = np.zeros(n)
    density_entropy = np.zeros(n)
    density[idx] = np.where(keep, p, 0.0)[rows]
    density_entropy[idx] = p_entropy[rows]
    total_mass = float(np.sum(grid.weights * density))
    if abs(total_mass - 1.0) > mass_tol:
        raise GridMassDeficit(
            f"integrated outcome mass {total_mass:.6f} misses 1 by more than {mass_tol}"
        )
    weighted = grid.weights * density_entropy
    fine_sum = float(np.sum(weighted))
    value = entropy_in - fine_sum
    if grid.coarse is not None:
        return value, abs(fine_sum - float(np.sum(grid.coarse * density_entropy)))
    return value, float(np.std(weighted * n) / math.sqrt(n))
