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
the eigenbasis of ``i(a^dag - a)``, so no ``D x D`` operator is built.  The
state is factored once per call as ``rho = W W^dag`` on its support, and
the Gram matrix is ``W_phi^dag P W_phi``: ``P`` is the tensor product of
real per-mode blocks ``X_k^T X_k`` with ``X_k = sqrt(rho_noise,k)
D(|z_k|)^dag``, on the levels the support uses, and ``W_phi`` is ``W`` with
the outcome's number phase ``e^{-i sum_k phi_k n_k}`` on each row.  A
number-diagonal state ``diag(a^2)`` drops every phase: its Gram matrix is
``(a a^T)`` times ``P`` entry by entry, its spectrum is taken in real
arithmetic, and it depends on the outcome only through the radii ``|z_k|``,
so the kernel takes one spectrum per distinct radius tuple, and its entropy
serves every outcome that shares it (33 spectra for the 209 outcomes inside
the validity radius of the default grid at dim 40, noise 1).  The
measurement acts mode by mode, so a product state has a product posterior at
every outcome: when the one-mode marginals of a multimode state recompose it
to within :data:`PRODUCT_TOL` of ``max |rho|``, the kernel runs once per mode
on that mode's marginal and outcome column, and the posterior's density and
spectrum are the product and the outer product of the modes' (two batches of
``16 x 16`` spectra in place of one ``256 x 256`` eigenproblem per outcome
for a dim-16 two-mode thermal state).  Any other state, whose posterior does
not factor, takes the joint kernel.  The quadrature rule is the grid's: for
one mode a Gauss-Hermite tensor rule scaled to the outcome distribution, or
a Cartesian trapezoid grid, each with a coarser companion rule whose
difference is the error estimate; for two modes seeded importance-sampling
Monte Carlo, with its standard error.
The kernel integrates its outcomes chunk by chunk in the calling thread,
each chunk holding at most ``CHUNK_ENTRIES`` entries of the larger
per-outcome stack (one outcome at the least); BLAS threads are its only
parallelism.  Each call allocates one workspace of ``CHUNK_ENTRIES`` complex
entries and writes its largest stacks there, so every call makes the same
large allocation whatever its grid, state or predecessor.

Outcomes whose displaced noise state cannot be represented faithfully at
the chosen truncation are skipped, with the dropped probability charged
against the quadrature mass budget; see :func:`validity_radius`.
"""

from __future__ import annotations

import math
import warnings
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

# Entries of the larger per-outcome stack in one chunk: the Gram matrix
# (``r^2`` per outcome) or a mode's ``X_k`` (``dim u_k``).  256 full-width
# one-mode outcomes at dim 40.  Bounds the kernel's working memory at any mode
# count and support size.  It is also the size, in complex entries, of the
# workspace that every call allocates (larger only when a single outcome's
# stack exceeds it).  A fixed size is the
# point: glibc's malloc maps a block at or above its mmap threshold on its own
# and unmaps it on free, so its pages fault afresh on every use, and it raises
# the threshold to the size of each such block it frees.  The workspace sets
# the threshold on the first call; from then on every stack of the kernel comes
# from heap pages the process keeps, whatever sizes earlier calls used.
CHUNK_ENTRIES = 256 * 40 * 40

# Gauss-Hermite nodes per axis of the default one-mode rule and of its
# companion.  The rules share no node, so together they take 20^2 + 15^2 = 625
# outcomes.  More nodes buy nothing: at dim 40 the outer nodes already lie past
# the validity radius and are dropped, and that cut, not the node count, sets
# the accuracy (values wander by about 1e-6 on rank-12 states from 16 to 32).
HERMITE_NODES = 20
HERMITE_COMPANION_NODES = 15


def annihilation(dim: int) -> np.ndarray:
    """Single-mode lowering operator on the first ``dim`` number states."""
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

    Args:
        mean_number: scalar occupation, or one occupation per mode.
        dim: per-mode truncation dimension.

    Raises:
        TruncationTooSmall: if the discarded mass exceeds :data:`TAIL_TOL`:
            the geometric tail ``t_k`` of a mode, or the product's
            ``1 - prod_k (1 - t_k)``, which is larger.
    """
    means = np.atleast_1d(np.asarray(mean_number, dtype=float))
    diagonals = [_thermal_diagonal(mean, dim) for mean in means]
    missing = 1.0 - math.prod(d.sum() for d in diagonals)
    if missing > TAIL_TOL:
        raise TruncationTooSmall(f"thermal product tail mass {missing:.2e} exceeds {TAIL_TOL:.0e}")
    return reduce(np.kron, [np.diag(d) for d in diagonals]).astype(complex)


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
        ValueError: if an amplitude is not finite.
        TruncationTooSmall: if the constructed matrix fails the unitarity
            check, which only happens on arithmetic blowup since the
            truncated generator is exactly anti-Hermitian.
    """
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


def _as_density(rho) -> np.ndarray:
    """``rho`` as a complex array, rejected before any work unless it is a
    finite square matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"a state must be a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density operator has non-finite entries")
    return rho


def _check_density(rho: np.ndarray, w: np.ndarray) -> None:
    """Check Hermiticity, unit trace and positivity of ``rho``, with spectrum ``w``."""
    defect = np.abs(rho - rho.conj().T).max(initial=0.0)
    if defect > 1e-9 * (1.0 + np.abs(rho).max(initial=0.0)):
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
    _check_density(rho, np.linalg.eigvalsh(rho))
    return rho


def von_neumann_entropy(rho: np.ndarray, base: LogBase = LogBase.BITS) -> float:
    """Entropy of a PSD operator; eigenvalues below the noise floor are dropped."""
    return _spectrum_entropy(np.linalg.eigvalsh(rho), base)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators."""
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
    """
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
    scheme: str
    seed: Optional[int] = None
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
        scheme="cartesian-trapezoid",
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


def _hermite_rule(nodes: int, variance: float) -> tuple[np.ndarray, np.ndarray]:
    """``nodes x nodes`` Gauss-Hermite rule for densities near ``exp(-|z|^2/S)/S``.

    The physicists' nodes ``u`` are scaled by ``sqrt(S)`` on both axes, and
    their weights carry ``exp(u^2)`` back out, so the rule applies to the
    density itself against ``d^2z / pi``.  It is exact for that Gaussian
    times any polynomial of degree below ``2 nodes`` per axis.
    """
    u, w1 = _hermite_nodes(nodes)
    axis = math.sqrt(variance) * u
    points = axis[:, None] + 1j * axis[None, :]
    return points.ravel(), (variance / math.pi * np.outer(w1, w1)).ravel()


def default_grid(mean_correlation: float, noise: float) -> OutcomeGrid:
    """Gauss-Hermite rule scaled to the outcome covariance ``S = lambda + N + 1``.

    ``points`` is the union of the ``HERMITE_NODES`` rule and its
    ``HERMITE_COMPANION_NODES`` companion; ``weights`` is the fine rule (zero
    on the companion's points) and ``coarse`` the companion (zero on the fine
    rule's points).
    """
    variance = mean_correlation + noise + 1.0
    if not 0.0 < variance < math.inf:
        raise ValueError(
            f"outcome variance lambda + N + 1 = {variance} must be positive and finite"
        )
    fine_points, fine = _hermite_rule(HERMITE_NODES, variance)
    coarse_points, coarse = _hermite_rule(HERMITE_COMPANION_NODES, variance)
    return OutcomeGrid(
        points=np.concatenate([fine_points, coarse_points]),
        weights=np.concatenate([fine, np.zeros(coarse.size)]),
        scheme="gauss-hermite",
        coarse=np.concatenate([np.zeros(fine.size), coarse]),
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
    return OutcomeGrid(
        points=points, weights=weights, scheme="monte-carlo", seed=seed
    )


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
    are needed, so ``X_k`` is ``dim x u_k``, one complex GEMM per mode and
    chunk, and ``P[S, S]`` is gathered from the ``u_k x u_k`` blocks by a
    flat index.  No ``D``-sized stack is built.

    ``factor`` is ``W`` (2-D, ``r x r``) for a general state.  For a
    number-diagonal state it is 1-D, the amplitudes ``a`` of
    ``rho[S, S] = diag(a^2)``, zeros allowed: ``W = diag(a)``, the row phases
    act on it as a unitary on the right and drop out, and
    ``G = (a a^T) o P[S, S]`` (``o`` entry by entry) is real.  That ``G``
    depends on ``z`` only through the radii ``|z_k|``, so it is built for
    the distinct radius tuples of ``points`` (``np.unique`` on ``|points|``,
    exact float equality), and ``rows`` maps every point to its tuple's
    row of the results; the values are those of a point-by-point
    evaluation, bit for bit.  A general state runs on every point, and
    ``rows`` is ``arange(n)``.

    Chunks hold at most ``CHUNK_ENTRIES`` entries of the larger per-outcome
    stack, ``r^2`` for ``G`` or ``dim u_k`` for ``X_k``, and write each
    mode's gathered block and their product ``P[S, S]`` as reals into one
    workspace of ``CHUNK_ENTRIES`` complex entries (see that constant).  The
    chunk size changes no bit of the results.

    Returns ``(p, spectra, rows)``: the density ``p = tr G`` and the spectrum
    of ``G / p``, one row of ``r`` eigenvalues per integrated point,
    roundoff-negative ones included, and each point's row.  A point whose
    ``p`` is below :data:`P_MIN` gets ``p = 0`` and a zero row, and its ``G``
    is never diagonalized.  The entropy, with its floor, is taken by
    :func:`er_numeric`, so the kernel serves a whole state and each mode of a
    product state alike.
    """
    rank = support.size
    modes = points.shape[1]
    theta, v = _displacement_basis(dim)
    roots = [np.sqrt(_thermal_diagonal(nbar, dim))[:, None] * v
             for nbar in noise]
    levels = np.array(np.unravel_index(support, (dim,) * modes))
    diagonal = factor.ndim == 1
    if diagonal:
        # G reads only |z_k|: integrate each distinct radius tuple once
        points, inverse = np.unique(np.abs(points), axis=0, return_inverse=True)
        amplitudes = np.outer(factor, factor).ravel()
    else:
        inverse = np.arange(points.shape[0])
        amplitudes = 1.0  # the blocks' product is P[S, S] itself
        # each row's phase sum_k phi_k n_k for every point at once: numpy
        # rounds a one-point product differently, so chunk sizes would show
        phases = np.angle(points) @ levels
    # per mode: the support's levels, and P[S, S]'s flat index into X_k^T X_k
    blocks = []
    for level in levels:
        used, pos = np.unique(level, return_inverse=True)
        flat = (pos[:, None] * used.size + pos[None, :]).ravel()
        blocks.append((v.conj().T[:, used], flat))
    per_outcome = max(rank * rank, dim * max(b.shape[1] for b, _ in blocks))
    n = points.shape[0]
    chunk = max(1, CHUNK_ENTRIES // per_outcome)
    work = np.empty(max(CHUNK_ENTRIES, per_outcome), dtype=complex)
    density = np.zeros(n)
    spectra = np.zeros((n, rank))

    def gram_stack(rows: slice) -> np.ndarray:
        zs = points[rows]
        m = zs.shape[0]
        # two real (point, r^2) stacks in ``work``: each mode gathers into one
        # and multiplies it in place by the product so far, held in the other
        stacks = work.view(float)[: 2 * m * rank * rank].reshape(2, m, -1)
        gram = amplitudes
        for k, (root, (vd, flat), r) in enumerate(zip(roots, blocks, np.abs(zs).T)):
            # x: the real X_k of every point, as (point, level, dim)
            x = vd[:, None, :] * np.exp(1j * np.outer(theta, r))[:, :, None]
            x = (root @ x.reshape(dim, -1)).real.reshape(dim, m, -1).transpose(1, 2, 0)
            # mode="clip" gathers straight into the stack; "raise" would buffer
            # (``flat`` is in range by construction)
            block = np.take((x @ x.transpose(0, 2, 1)).reshape(m, -1), flat, axis=1,
                            out=stacks[k % 2], mode="clip")
            block *= gram
            gram = block
        gram = gram.reshape(m, rank, rank)
        if diagonal:
            return gram
        # W_phi: W with the phase e^{-i sum_k phi_k n_k} on each row.  P W_phi
        # is taken in real arithmetic on its interleaved real and imaginary
        # parts; W_phi^dag then conjugates W_phi in place, not in a copy
        w_phi = np.exp(-1j * phases[rows])[:, :, None] * factor
        product = (gram @ w_phi.view(float)).view(complex)
        return np.swapaxes(np.conjugate(w_phi, out=w_phi), 1, 2) @ product

    for start in range(0, n, chunk):
        gram = gram_stack(slice(start, start + chunk))
        ps = np.einsum("kii->k", gram).real
        keep = ps >= P_MIN
        if not np.any(keep):
            continue
        idx = np.nonzero(keep)[0] + start
        density[idx] = ps[keep]
        spectra[idx] = np.linalg.eigvalsh(gram[keep]) / ps[keep, None]
    return density, spectra, inverse


def _factor(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support ``S``, spectrum ``w`` and kernel factor of a state.

    ``rho`` is zero off its support (the states with a nonzero row or
    column), so one ``eigh`` of that block gives its nonzero spectrum and
    ``W``, ``rho[S, S] = W W^dag``.  Every eigenpair is kept: a spectral
    floor would tie the cost to a state's tail.  A number-diagonal state
    skips ``eigh``, and its factor is the amplitudes ``sqrt(diag rho)``,
    which drop the outcome's phases from the Gram matrix.
    """
    nonzero = rho != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    block = rho[np.ix_(support, support)]
    if np.count_nonzero(block) == np.count_nonzero(np.diag(block)):
        w = np.diag(block).real
        return support, w, np.sqrt(np.clip(w, 0.0, None))
    w, u = np.linalg.eigh(block)
    return support, w, u * np.sqrt(np.clip(w, 0.0, None))


def _product_marginals(
    rho: np.ndarray, dim: int, modes: int
) -> Optional[list[np.ndarray]]:
    """Unit-trace one-mode marginals ``m_k`` when ``rho = tr(rho) (x)_k m_k``.

    ``m_k = Tr_{!=k} rho / tr rho``; ``rho`` counts as their product when the
    recomposition differs from it by at most :data:`PRODUCT_TOL` times
    ``max |rho|`` in every entry.  Returns ``None`` otherwise.
    """
    trace = np.trace(rho).real
    marginals = []
    for k in range(modes):
        # rows and columns split as (modes before k, mode k, modes after k)
        shape = (dim**k, dim, dim ** (modes - k - 1)) * 2
        marginals.append(np.einsum("aibajb->ij", rho.reshape(shape)) / trace)
    recomposed = trace * reduce(np.kron, marginals)
    if np.abs(recomposed - rho).max() > PRODUCT_TOL * np.abs(rho).max():
        return None
    return marginals


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

    A multimode state is tested for being the product ``tr(rho) (x)_k m_k``
    of its unit-trace one-mode marginals ``m_k = Tr_{!=k} rho / tr rho``
    (every entry within :data:`PRODUCT_TOL` of ``max |rho|``).  A product's
    posterior at every outcome is the product of the modes' posteriors, so
    each marginal is factored and integrated on its own mode's outcomes, the
    outcome density is ``tr(rho) prod_k p_k``, and the posterior spectrum is
    the outer product of the modes' normalized spectra.  :data:`P_MIN` then
    applies to that product density and :data:`ENTROPY_FLOOR` to the product
    spectrum, as they apply to the density and spectrum of a joint posterior.
    Every other state, correlated ones among them, is integrated jointly:
    its posterior does not factor.

    Args:
        noise: one occupation for every mode, or one per mode.

    Returns:
        ``(value, error_estimate)``; the estimate is the difference of the
        values of ``weights`` and of the companion rule ``coarse`` when the
        grid has one, else the Monte Carlo standard error.  It is not a
        bound: it misses truncation error and the validity-radius cut.

    Raises:
        ValueError: when ``rho`` or ``noise`` is not finite.
        DimensionMismatch: when the state is not a square matrix, its
            dimension is not a power of the grid's mode count, or ``noise``
            has neither 1 nor ``s`` entries.
        GridMassDeficit: when the integrated outcome probability misses 1
            by more than ``mass_tol``.
    """
    rho = _as_density(rho)
    support, w, factor = _factor(rho)
    _check_density(rho, w)
    entropy_in = _spectrum_entropy(w, base)
    points = grid.points.reshape(grid.points.shape[0], -1)
    n, modes = points.shape
    dim = _mode_dimension(rho, modes)
    noise_arr = _mode_occupations(noise, modes)

    r_valid = min(validity_radius(dim, nbar) for nbar in noise_arr)
    idx = np.nonzero(np.abs(points).max(axis=1) <= r_valid)[0]
    inside = points[idx]
    marginals = _product_marginals(rho, dim, modes) if modes > 1 else None
    if marginals is None:
        p, spectra, rows = _er_outcome_terms(support, factor, dim, noise_arr, inside)
    else:
        # every posterior is the product of the modes' posteriors: multiply
        # their densities and take the outer product of their spectra
        p, spectra = np.trace(rho).real, np.ones((idx.size, 1))
        for k, marginal in enumerate(marginals):
            support_k, _, factor_k = _factor(marginal)
            p_k, spectra_k, rows_k = _er_outcome_terms(
                support_k, factor_k, dim, noise_arr[k : k + 1], inside[:, k : k + 1]
            )
            p = p * p_k[rows_k]
            spectra = spectra[:, :, None] * spectra_k[rows_k, None, :]
            spectra = spectra.reshape(idx.size, -1)
        rows = np.arange(idx.size)
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
