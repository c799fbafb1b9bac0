import math
import re
import sys
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from gaussmeter import fockoracle
from gaussmeter.errors import (
    DimensionMismatch,
    GridMassDeficit,
    InvalidRange,
    NegligibleOutcome,
    NotPositiveDefinite,
    TruncationTooSmall,
)
from gaussmeter.fockoracle import (
    OutcomeGrid,
    annihilation,
    cartesian_grid,
    default_grid,
    displacement,
    er_numeric,
    gauge_average,
    monte_carlo_grid,
    normal_moments,
    posterior_state,
    povm_density,
    thermal_state,
    trace_distance,
    unitarity_defect,
    validate_density,
    validity_radius,
    von_neumann_entropy,
)
from gaussmeter.matfun import g_scalar
from gaussmeter.verify import random_low_energy_state

ER_UNIT = 0.9182958340544896


def sparse_diagonal_state(rng, dim, levels):
    """Number-diagonal two-mode state whose support is no grid of levels.

    The diagonal of a mixture of two products of random states on the lowest
    ``levels`` number states per mode, with mode 0's level 1 emptied, so the
    modes use different level counts and mode 0's levels skip one.
    """
    mix = sum(np.kron(random_low_energy_state(rng, a, dim),
                      random_low_energy_state(rng, b, dim)) for a, b in levels)
    probs = np.diag(mix).real.reshape(dim, dim).copy()
    probs[1] = 0.0
    return np.diag(probs.ravel() / probs.sum()).astype(complex)


def beam_splitter_state(dim):
    """Two-mode state on every level pair: a product thermal state with one
    mode displaced, then mixed on a beam splitter with a complex coupling."""
    a, eye = annihilation(dim), np.eye(dim)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    coupling = 0.6 * np.exp(0.4j) * a1.conj().T @ a2
    mixer = scipy.linalg.expm(coupling - coupling.conj().T)
    mixer = mixer @ np.kron(displacement(0.3 + 0.2j, dim), eye)
    full = mixer @ thermal_state((0.1, 0.02), dim) @ mixer.conj().T
    return 0.5 * (full + full.conj().T)


def spy_builds(monkeypatch):
    """The radius count of every stack of measurement blocks built from here
    on, one entry per build; kept stacks are not builds."""
    built = []
    build = fockoracle._build_mode_blocks

    def spy(dim, nbar, radii, used):
        built.append(radii.size)
        return build(dim, nbar, radii, used)

    monkeypatch.setattr(fockoracle, "_build_mode_blocks", spy)
    return built


def pointwise_value(rho, noise, grid):
    """The entropy reduction summed one outcome at a time from posterior_state."""
    expected = von_neumann_entropy(rho)
    for z, w in zip(grid.points, grid.weights):
        post, p = posterior_state(rho, noise, z)
        expected -= w * p * von_neumann_entropy(post)
    return expected


def coherent_state(amplitude, dim):
    d_op = displacement(amplitude, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return d_op @ rho @ d_op.conj().T


class TestThermalState:
    def test_vacuum(self):
        rho = thermal_state(0.0, 8)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected)

    def test_unit_occupation(self):
        rho = thermal_state(1.0, 40)
        diag = np.diag(rho).real
        assert diag[0] == pytest.approx(0.5, abs=1e-15)
        assert diag[1] == pytest.approx(0.25, abs=1e-15)
        mean = float(np.arange(40) @ diag)
        assert mean == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -0.1])
    def test_rejects_invalid_occupation(self, mean):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            thermal_state(mean, 40)

    def test_tail_guard(self):
        with pytest.raises(TruncationTooSmall):
            thermal_state(3.0, 24)

    def test_two_mode_product(self):
        rho = thermal_state([0.5, 0.5], 14)
        assert rho.shape == (196, 196)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("means, dim", [((0.7,), 40), ((0.2, 0.3), 16),
                                            ((0.1, 0.15, 0.05), 7)])
    def test_equals_kron_of_diagonal_matrices(self, means, dim):
        reference = reduce(np.kron, [np.diag(fockoracle._thermal_diagonal(mean, dim))
                                     for mean in means]).astype(complex)
        rho = thermal_state(means, dim)
        assert rho.dtype == reference.dtype and rho.shape == reference.shape
        assert rho.tobytes() == reference.tobytes()

    def test_product_tail_guard(self):
        # each mode's tail is 5.95e-7, within the bound; the product misses
        # 1.19e-6 and would fail the unit-trace check of every consumer
        assert 1.0 - np.trace(thermal_state(0.2, 8)).real < fockoracle.TAIL_TOL
        with pytest.raises(TruncationTooSmall, match="product tail mass 1.19e-06"):
            thermal_state((0.2, 0.2), 8)
        # the largest product the suite and the benchmark take misses 6.9e-7
        validate_density(thermal_state((0.1, 0.15, 0.05), 7))


class TestDisplacement:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(displacement(0.0, 12), np.eye(12), atol=1e-14)

    def test_unitary(self):
        assert unitarity_defect(displacement(1.3 - 0.4j, 40)) < 1e-12

    def test_coherent_poisson_mean(self):
        rho = coherent_state(1.0, 40)
        mean = float(np.arange(40) @ np.diag(rho).real)
        assert mean == pytest.approx(1.0, abs=1e-8)

    def test_coherent_amplitudes(self):
        amp = 0.8 + 0.3j
        column = displacement(amp, 40)[:, 0]
        n = np.arange(12)
        expected = np.exp(-abs(amp) ** 2 / 2) * amp**n / np.sqrt(
            [math.factorial(int(k)) for k in n]
        )
        np.testing.assert_allclose(column[:12], expected, atol=1e-12)

    def test_composition_phase(self):
        dim = 40
        z, w = 1.0, 1.0j
        product = displacement(z, dim) @ displacement(w, dim)
        target = np.exp(-1j * np.imag(np.conj(z) * w)) * displacement(z + w, dim)
        block = 20
        np.testing.assert_allclose(
            product[:block, :block], target[:block, :block], atol=1e-10
        )

    def test_warns_near_truncation_edge(self):
        with pytest.warns(UserWarning, match="exceeds dim/4"):
            displacement(4.0, 40)

    def test_two_mode_kron(self):
        d2 = displacement([0.5, -0.25j], 10)
        np.testing.assert_allclose(
            d2, np.kron(displacement(0.5, 10), displacement(-0.25j, 10)), atol=1e-13
        )

    @pytest.mark.filterwarnings("ignore:displacement amplitude")
    @pytest.mark.parametrize("dim", [16, 40])
    def test_equals_truncated_exponential(self, dim):
        # the exponential of the truncated generator, over the whole space,
        # on amplitudes out to the noiseless validity radius in every quadrant
        a = annihilation(dim)
        radius = validity_radius(dim, 0.0)
        for frac in (0.2, 0.6, 1.0):
            for angle in (0.3, 2.0, -2.6, math.pi):
                z = frac * radius * np.exp(1j * angle)
                exact = scipy.linalg.expm(z * a.conj().T - np.conj(z) * a)
                np.testing.assert_allclose(displacement(z, dim), exact, atol=1e-12)
        z = (0.9 - 0.4j, -1.1j)
        expected = np.kron(*(scipy.linalg.expm(w * a.conj().T - np.conj(w) * a) for w in z))
        np.testing.assert_allclose(displacement(z, dim), expected, atol=1e-12)

    @pytest.mark.parametrize("z", [math.nan, complex(0.5, math.inf), [0.5, math.nan]])
    def test_rejects_non_finite_amplitude(self, z):
        with pytest.raises(ValueError, match="finite"):
            displacement(z, 8)


class TestPovmDensity:
    def test_vacuum_outcome(self):
        np.testing.assert_allclose(
            povm_density(0.0, 0.0, 10), thermal_state(0.0, 10), atol=1e-14
        )

    def test_closed_form_density_at_origin(self):
        rho = thermal_state(1.0, 40)
        p = float(np.trace(rho @ povm_density(1.0, 0.0, 40)).real)
        assert p == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_pointwise_gaussian_density(self):
        rho = thermal_state(1.0, 40)
        sigma = 3.0  # 1 + 1 + 1
        for z in (0.5, 1.0 + 1.0j, 2.0 - 0.5j):
            p = float(np.trace(rho @ povm_density(1.0, z, 40)).real)
            expected = math.exp(-abs(z) ** 2 / sigma) / sigma
            assert p == pytest.approx(expected, abs=1e-6)

    @pytest.mark.filterwarnings("ignore:displacement amplitude")
    def test_completeness_over_grid(self):
        rho = thermal_state(1.0, 40)
        grid = default_grid(1.0, 1.0)
        cap = validity_radius(40, 1.0)
        mass = 0.0
        for z, w in zip(grid.points, grid.weights):
            if abs(z) > cap:
                continue
            mass += w * float(np.trace(rho @ povm_density(1.0, z, 40)).real)
        assert mass == pytest.approx(1.0, abs=1e-3)


def test_povm_density_rejects_non_finite_amplitude():
    with pytest.raises(ValueError, match="finite"):
        povm_density(1.0, complex(math.nan, 0.0), 10)


class TestPosteriorState:
    @pytest.mark.parametrize("z", [math.nan, [0.1, math.inf]])
    def test_rejects_non_finite_amplitude(self, z):
        rho = thermal_state(0.1 * np.ones(np.size(z)), 10)
        with pytest.raises(ValueError, match="finite"):
            posterior_state(rho, 0.1, z)

    def test_noise_count_must_match_modes(self):
        with pytest.raises(DimensionMismatch):
            posterior_state(thermal_state(0.2, 8), [0.01, 0.01], 0.3)
        # one occupation serves every mode, as in er_numeric
        rho = thermal_state([0.2, 0.2], 10)
        post, p = posterior_state(rho, 0.1, [0.3, 0.1j])
        post2, p2 = posterior_state(rho, [0.1, 0.1], [0.3, 0.1j])
        assert p == p2
        np.testing.assert_array_equal(post, post2)

    def test_pure_input_gives_pure_posteriors(self):
        rho = coherent_state(1.0, 40)
        for z in (0.0, 0.5 + 0.5j, -1.0j):
            post, _ = posterior_state(rho, 1.0, z)
            assert von_neumann_entropy(post) < 1e-8

    def test_displaced_thermal_family(self):
        rho = thermal_state(1.0, 40)
        z = 1.0 + 0.5j
        post, p = posterior_state(rho, 1.0, z)
        assert p == pytest.approx(math.exp(-abs(z) ** 2 / 3.0) / 3.0, abs=1e-9)
        gain = math.sqrt(2.0) / 3.0
        d_op = displacement(gain * z, 40)
        closed = d_op.conj().T @ thermal_state(1.0 / 3.0, 40) @ d_op
        assert trace_distance(post, closed) < 1e-5

    def test_factorization_independence(self):
        rho = thermal_state(1.0, 40)
        root = np.diag(np.sqrt(np.diag(rho).real)).astype(complex)
        for z in (0.3, 1.0 - 0.7j):
            post, p = posterior_state(rho, 1.0, z)
            other = root @ povm_density(1.0, z, 40) @ root / p
            np.testing.assert_allclose(
                np.linalg.eigvalsh(post), np.linalg.eigvalsh(other), atol=1e-9
            )

    def test_negligible_outcome(self):
        rho = thermal_state(0.05, 70)
        with pytest.warns(UserWarning):
            with pytest.raises(NegligibleOutcome):
                posterior_state(rho, 0.0, 6.2)


class TestOutcomeRules:
    @pytest.mark.parametrize("lam, noise", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.0)])
    def test_default_rules_integrate_outcome_gaussian(self, lam, noise):
        sigma = lam + noise + 1.0
        grid = default_grid(lam, noise)
        # the companion sits on 144 of the fine rule's 400 points
        assert grid.points.size == np.count_nonzero(grid.weights) == 400
        assert np.count_nonzero(grid.coarse) == 144
        assert not np.any(grid.coarse[grid.weights == 0])
        density = np.exp(-np.abs(grid.points) ** 2 / sigma) / sigma
        for weights in (grid.weights, grid.coarse):
            assert np.sum(weights * density) == pytest.approx(1.0, abs=1e-12)
            second = np.sum(weights * density * np.abs(grid.points) ** 2)
            assert second == pytest.approx(sigma, abs=1e-12)

    def test_default_grid_reuses_hermite_nodes(self, monkeypatch):
        default_grid(1.0, 1.0)
        hermgauss = np.polynomial.hermite.hermgauss
        hermvander = np.polynomial.hermite.hermvander
        calls = []
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                            lambda n: calls.append(n) or hermgauss(n))
        monkeypatch.setattr(np.polynomial.hermite, "hermvander",
                            lambda x, n: calls.append(n) or hermvander(x, n))
        first = default_grid(1.0, 1.0)
        first.points[:], first.weights[:], first.coarse[:] = 0.0, 0.0, 0.0
        grid = default_grid(0.5, 2.0)
        assert calls == []
        u, _ = fockoracle._hermite_nodes(fockoracle.HERMITE_NODES)
        with pytest.raises(ValueError):
            u[0] = 0.0
        c1 = fockoracle._hermite_companion(fockoracle.HERMITE_NODES,
                                           fockoracle.HERMITE_COMPANION_NODES)
        with pytest.raises(ValueError):
            c1[0] = 0.0
        # the fine rule bit-identical to the rule built from fresh nodes
        variance = 3.5
        u, w = hermgauss(fockoracle.HERMITE_NODES)
        axis = math.sqrt(variance) * u
        w1 = w * np.exp(u * u)
        np.testing.assert_array_equal(grid.points,
                                      (axis[:, None] + 1j * axis[None, :]).ravel())
        np.testing.assert_array_equal(
            grid.weights, (variance / math.pi * np.outer(w1, w1)).ravel())
        # the companion against the interpolatory rule on the 12 innermost
        # nodes solved independently: each Lagrange basis polynomial (degree
        # 11) integrated by the 20-node rule, which is exact to degree 39
        inner = u[4:16]
        basis = np.ones((u.size, inner.size))
        for j in range(inner.size):
            for m in np.delete(np.arange(inner.size), j):
                basis[:, j] *= (u - inner[m]) / (inner[j] - inner[m])
        expected = np.zeros(u.size)
        expected[4:16] = (w @ basis) * np.exp(inner * inner)
        assert np.all(expected[4:16] > 0.0)
        np.testing.assert_allclose(
            grid.coarse, (variance / math.pi * np.outer(expected, expected)).ravel(),
            rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("radius, step", [
        (math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf), (1.0, math.nan),
        (0.0, 0.5), (1.0, -0.5)])
    def test_cartesian_grid_rejects_invalid_spacing(self, radius, step):
        with pytest.raises(InvalidRange):
            cartesian_grid(radius, step)

    @pytest.mark.parametrize("sigma", [
        np.zeros((2, 2)), np.diag([1.0, -1.0]), np.full((2, 2), math.nan)],
        ids=["zero", "indefinite", "nan"])
    def test_monte_carlo_grid_rejects_non_positive_definite(self, sigma):
        with pytest.raises(NotPositiveDefinite):
            monte_carlo_grid(sigma, 4, seed=1)

    def test_cartesian_estimate_is_half_resolution_difference(self):
        # the estimate against the trapezoid rule of the every-other subgrid,
        # built by hand and integrated on the same points
        rho = thermal_state(1.0, 40)
        grid = cartesian_grid(5.0 * math.sqrt(3.0), 0.3 * math.sqrt(3.0))
        value, estimate = er_numeric(rho, 1.0, grid)
        m = math.isqrt(grid.points.size)
        axis = grid.points.real.reshape(m, m)[:, 0]
        w1 = np.full(axis[::2].size, axis[2] - axis[0])
        w1[[0, -1]] *= 0.5
        half = np.zeros((m, m))
        half[::2, ::2] = np.outer(w1, w1) / math.pi
        fine, _ = er_numeric(rho, 1.0, OutcomeGrid(grid.points, grid.weights))
        coarse, _ = er_numeric(rho, 1.0, OutcomeGrid(grid.points, half.ravel()))
        assert value == fine
        assert estimate == pytest.approx(abs(fine - coarse), abs=1e-15)

    def test_default_companion_leaves_the_value(self, rng):
        # the companion shares the fine rule's points, so the value is the
        # fine rule's alone, and the estimate the two rules' difference
        grid = default_grid(1.0, 1.0)
        for rho in (thermal_state(1.0, 40), random_low_energy_state(rng, 12, 40)):
            value, estimate = er_numeric(rho, 1.0, grid)
            fine, _ = er_numeric(rho, 1.0, OutcomeGrid(grid.points, grid.weights))
            coarse, _ = er_numeric(rho, 1.0, OutcomeGrid(grid.points, grid.coarse),
                                   mass_tol=math.inf)
            assert value == pytest.approx(fine, abs=1e-15)
            assert estimate == pytest.approx(abs(fine - coarse), abs=1e-15)


class TestErNumeric:
    def test_pure_input_yields_zero(self):
        rho = coherent_state(0.7 + 0.3j, 40)
        grid = cartesian_grid(abs(0.7 + 0.3j) + 5.0 * math.sqrt(2.0),
                              0.15 * math.sqrt(2.0))
        value, _ = er_numeric(rho, 1.0, grid)
        assert abs(value) <= 1e-6

    def test_thermal_matches_closed_form(self):
        rho = thermal_state(1.0, 40)
        value, estimate = er_numeric(rho, 1.0, default_grid(1.0, 1.0))
        assert value == pytest.approx(ER_UNIT, abs=1e-2)
        assert math.isfinite(estimate)

    def test_noiseless_recovers_input_entropy(self):
        rho = thermal_state(1.0, 40)
        value, _ = er_numeric(rho, 0.0, default_grid(1.0, 0.0))
        assert value == pytest.approx(2.0, abs=1e-2)

    def test_truncation_refinement(self):
        grid = default_grid(1.0, 1.0)
        coarse, _ = er_numeric(thermal_state(1.0, 40), 1.0, grid)
        fine, _ = er_numeric(thermal_state(1.0, 80), 1.0, grid)
        assert abs(coarse - fine) < 1e-3

    def test_mass_deficit_raises(self):
        rho = thermal_state(1.0, 40)
        with pytest.raises(GridMassDeficit):
            er_numeric(rho, 1.0, cartesian_grid(2.0, 0.26))
        # a product whose only outcome lies beyond the validity radius
        beyond = OutcomeGrid(np.array([[9.0 + 0j, 9.0 + 0j]]), np.ones(1))
        with pytest.raises(GridMassDeficit):
            er_numeric(thermal_state((0.2, 0.3), 12), (0.1, 0.1), beyond)

    @pytest.mark.parametrize("mass_tol", [math.nan, -1.0])
    def test_rejects_invalid_mass_tolerance(self, mass_tol):
        # a NaN tolerance would pass every mass check unread
        with pytest.raises(ValueError, match="mass tolerance"):
            er_numeric(thermal_state(1.0, 40), 1.0, default_grid(1.0, 1.0),
                       mass_tol=mass_tol)

    def test_two_mode_monte_carlo(self):
        # occupations sized so the sampled outcomes stay inside the
        # truncation's validity radius with room to spare; the second case
        # gives each mode its own occupation and noise
        dim = 16
        for lam, noise in (((0.2, 0.2), (0.2, 0.2)), ((0.2, 0.3), (0.15, 0.3))):
            rho = thermal_state(lam, dim)
            sigma = np.diag(np.add(lam, noise) + 1.0)
            grid = monte_carlo_grid(sigma, 80, seed=3)
            value, estimate = er_numeric(rho, noise, grid)
            expected = sum(
                g_scalar(l) - g_scalar(n * l / (n + l + 1.0)) for l, n in zip(lam, noise)
            )
            assert value == pytest.approx(expected, abs=2e-2)
            assert estimate < 2e-2

    def test_two_mode_matches_pointwise_posteriors(self, rng):
        # the batched kernel against posterior_state taken one outcome at a
        # time, on non-diagonal states: a mixture of products on 25 of 100
        # states, the beam-splitter state on every level pair (support
        # 36 = D), and a product of two of the mixture's states, which is
        # integrated mode by mode
        full = beam_splitter_state(6)
        assert np.count_nonzero(np.diag(full)) == full.shape[0]
        draws = [random_low_energy_state(rng, 5, 10) for _ in range(4)]
        mixture = 0.5 * (np.kron(draws[0], draws[1]) + np.kron(draws[2], draws[3]))
        product = np.kron(draws[0], draws[3])
        for rho, noise in ((mixture, (0.15, 0.3)), (full, (0.05, 0.1)),
                           (product, (0.15, 0.3))):
            points = 0.4 * (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
            weights = rng.uniform(0.5, 1.5, size=6)
            grid = OutcomeGrid(points=points, weights=weights)
            value, _ = er_numeric(rho, noise, grid, mass_tol=math.inf)
            expected = von_neumann_entropy(rho)
            for z, w in zip(points, weights):
                post, p = posterior_state(rho, noise, z)
                expected -= w * p * von_neumann_entropy(post)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_two_mode_thermal_matches_pointwise_posteriors(self, rng):
        # the Gram builder of number-diagonal states, one outcome at a time:
        # a product thermal state; a non-product state whose support is no
        # level grid (a swapped mode or a wrong gather index shows here); three
        # modes; one mode with a roundoff-negative entry, a zero amplitude.
        # The two products are integrated mode by mode, so a three-mode mixture
        # of products keeps the joint builder covered at three modes.
        mixed = 0.5 * (thermal_state((0.1, 0.15, 0.05), 8)
                       + thermal_state((0.15, 0.05, 0.1), 8))
        probs = np.pad(rng.dirichlet(np.ones(8)), (0, 12))
        probs[3] = 0.0
        negative = np.diag(probs / probs.sum())
        negative[3, 3] = -1e-13
        cases = [
            (thermal_state((0.2, 0.25), 10), (0.15, 0.3)),
            (sparse_diagonal_state(rng, 10, ((5, 3), (2, 6))), (0.15, 0.3)),
            (thermal_state((0.1, 0.15, 0.05), 7), (0.15, 0.1, 0.12)),
            (negative, 0.3),
            (mixed, (0.15, 0.1, 0.12)),
        ]
        for rho, noise in cases:
            modes = np.size(noise)
            shape = (6, modes) if modes > 1 else (6,)
            points = 0.4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            weights = rng.uniform(0.5, 1.5, size=6)
            grid = OutcomeGrid(points=points, weights=weights)
            value, _ = er_numeric(rho, noise, grid, mass_tol=math.inf)
            expected = von_neumann_entropy(rho)
            for z, w in zip(points, weights):
                post, p = posterior_state(rho, noise, z)
                expected -= w * p * von_neumann_entropy(post)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_diagonal_state_ignores_outcome_phases(self, rng):
        # a number-diagonal state is phase invariant, so rotating each mode's
        # outcomes by its own phase changes nothing
        cases = [
            (np.diag(np.pad(rng.dirichlet(np.ones(12)), (0, 28))), 1.0,
             cartesian_grid(2.0, 0.5)),
            (thermal_state((0.2, 0.3), 12), (0.15, 0.3),
             monte_carlo_grid(np.diag([1.35, 1.6]), 12, seed=4)),
        ]
        for rho, noise, grid in cases:
            value, _ = er_numeric(rho, noise, grid, mass_tol=math.inf)
            phases = np.exp(1j * rng.uniform(-math.pi, math.pi, size=grid.points.shape[1:]))
            turned = OutcomeGrid(grid.points * phases, grid.weights)
            rotated, _ = er_numeric(rho, noise, turned, mass_tol=math.inf)
            assert rotated == pytest.approx(value, abs=1e-12)

    def test_one_mode_matches_pointwise_posteriors(self, rng):
        # the Gram kernel against posterior_state taken one outcome at a time:
        # rank 1 on full support (roundoff-negative eigenvalues as zero
        # columns), rank 12 (non-diagonal) on a 12-level support, full rank
        dim, noise = 40, 1.0
        grid = cartesian_grid(2.0, 0.5)
        for rho in (coherent_state(0.7 + 0.3j, dim),
                    random_low_energy_state(rng, 12, dim),
                    thermal_state(1.0, dim)):
            value, _ = er_numeric(rho, noise, grid, mass_tol=math.inf)
            expected = von_neumann_entropy(rho)
            for z, w in zip(grid.points, grid.weights):
                post, p = posterior_state(rho, noise, z)
                expected -= w * p * von_neumann_entropy(post)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_noise_count_must_match_modes(self):
        with pytest.raises(DimensionMismatch):
            er_numeric(thermal_state(0.2, 8), [0.2, 0.3], cartesian_grid(1.0, 0.5))
        grid = monte_carlo_grid(1.5 * np.eye(2), 4, seed=3)
        with pytest.raises(DimensionMismatch):
            er_numeric(thermal_state([0.2, 0.2], 10), [0.2, 0.2, 0.2], grid)

    def test_rejects_non_finite_state(self):
        with pytest.raises(ValueError, match="non-finite"):
            er_numeric(np.full((40, 40), np.nan), 1.0, default_grid(1.0, 1.0))

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_rejects_non_finite_noise(self, noise):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            er_numeric(thermal_state(1.0, 40), noise, default_grid(1.0, 1.0))

    def test_monte_carlo_deterministic(self):
        sigma = 2.0 * np.eye(2)
        a = monte_carlo_grid(sigma, 50, seed=9)
        b = monte_carlo_grid(sigma, 50, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestChunking:
    """``er_numeric`` runs in the calling thread, and its chunk size changes no bit."""

    @staticmethod
    def assert_chunking_invariant(monkeypatch, rho, noise, grid):
        """``(value, estimate)`` on the default chunks, on chunks of one
        outcome (``CHUNK_ENTRIES`` below any outcome's stack) and on chunks of
        five full-support outcomes, equal.  Each run builds its blocks
        afresh, in chunks of its own size."""
        default = er_numeric(rho, noise, grid, mass_tol=math.inf)
        support = np.count_nonzero(np.abs(rho).sum(axis=0))
        for entries in (1, 5 * support**2):
            monkeypatch.setattr(fockoracle, "CHUNK_ENTRIES", entries)
            fockoracle._blocks.clear()
            assert er_numeric(rho, noise, grid, mass_tol=math.inf) == default
        monkeypatch.undo()

    def test_one_mode_thermal(self, monkeypatch):
        # 1685 outcomes inside the validity radius on 202 distinct radii: one
        # chunk by default.  The step 15/64 is exact in binary, so lattice
        # points of equal |z| give equal floats.
        self.assert_chunking_invariant(
            monkeypatch, thermal_state(1.0, 40), 1.0, cartesian_grid(6.0, 15 / 64))

    def test_two_mode_mixture(self, monkeypatch):
        # full support 256 at dim 16, no product (the diagonal of a mixture of
        # two product thermal states): 6 outcomes a chunk by default.  The
        # product thermal state runs mode by mode, in one chunk a mode.
        mixed = 0.5 * (thermal_state((0.2, 0.3), 16) + thermal_state((0.3, 0.2), 16))
        grid = monte_carlo_grid(np.diag([1.3, 1.6]), 48, seed=5)
        for rho in (np.diag(np.diag(mixed) / np.trace(mixed).real),
                    thermal_state((0.2, 0.3), 16)):
            self.assert_chunking_invariant(monkeypatch, rho, (0.1, 0.3), grid)

    def test_two_mode_non_product_diagonal(self, monkeypatch, rng):
        # the Gram builder of number-diagonal states on a support that is no
        # level grid (130 of 256 states): 24 outcomes a chunk by default
        rho = sparse_diagonal_state(rng, 16, ((12, 10), (6, 14)))
        grid = monte_carlo_grid(np.diag([1.7, 1.9]), 48, seed=5)
        self.assert_chunking_invariant(monkeypatch, rho, (0.1, 0.3), grid)

    def test_two_mode_dense(self, monkeypatch):
        # a non-diagonal, non-product state on all 36 states at dim 6, so the
        # phased factor W_phi crosses the chunk boundaries
        grid = monte_carlo_grid(np.diag([1.1, 1.2]), 48, seed=4)
        self.assert_chunking_invariant(monkeypatch, beam_splitter_state(6),
                                       (0.05, 0.1), grid)

    def test_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        monkeypatch.setenv("GAUSSMETER_THREADS", "8")
        er_numeric(thermal_state(1.0, 40), 1.0, cartesian_grid(6.0, 15 / 64))
        assert started == []


class TestWorkingMemory:
    """A warm call allocates what its chunks need, and no fixed
    ``CHUNK_ENTRIES``-sized workspace (6.5 MB)."""

    @pytest.mark.parametrize("case", ["thermal", "rank12", "two_mode"])
    def test_warm_call_peaks_under_2_mb(self, rng, case):
        # at dim 40 on the default grid, and the two-mode thermal product at
        # dim 16 on 48 Monte Carlo points: 0.5, 1.3 and 0.3 MB at the peak
        one_mode = default_grid(1.0, 1.0)
        rho, noise, grid = {
            "thermal": (thermal_state(1.0, 40), 1.0, one_mode),
            "rank12": (random_low_energy_state(rng, 12, 40), 1.0, one_mode),
            "two_mode": (thermal_state((0.2, 0.3), 16), (0.1, 0.3),
                         monte_carlo_grid(np.diag([1.3, 1.6]), 48, seed=5)),
        }[case]
        er_numeric(rho, noise, grid, mass_tol=math.inf)  # keeps its blocks
        tracemalloc.start()
        try:
            er_numeric(rho, noise, grid, mass_tol=math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestWorkerThreads:
    """``GAUSSMETER_THREADS``, which only ``verify.thread_cap`` reads, changes
    no bit of ``er_numeric``, whatever worker count it asks for."""

    @pytest.mark.parametrize("threads", [2, 8])
    def test_one_mode_thermal(self, monkeypatch, threads):
        # 1685 outcomes inside the validity radius on 202 distinct radii, one
        # chunk by default; here cut into ``threads`` chunks of 40 x 40 stacks
        rho = thermal_state(1.0, 40)
        grid = cartesian_grid(6.0, 15 / 64)
        monkeypatch.delenv("GAUSSMETER_THREADS", raising=False)
        unset = er_numeric(rho, 1.0, grid)
        chunks = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: chunks.append(a.shape[0]) or eigvalsh(a))
        monkeypatch.setattr(fockoracle, "CHUNK_ENTRIES", -(-202 // threads) * 40**2)
        monkeypatch.setenv("GAUSSMETER_THREADS", str(threads))
        fockoracle._blocks.clear()
        assert er_numeric(rho, 1.0, grid) == unset
        assert len(chunks) == threads and sum(chunks) == 202


class TestDistinctRadii:
    """Each mode builds its blocks ``X_k^T X_k`` once per distinct radius of
    its outcomes; number-diagonal states also integrate each radius tuple
    once."""

    @staticmethod
    def evaluated(monkeypatch, rho, noise, grid, **options):
        """``er_numeric`` with no kept blocks, how many posterior spectra it
        took and at how many radii it built blocks."""
        fockoracle._blocks.clear()
        spectra = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            spectra.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        built = spy_builds(monkeypatch)
        return er_numeric(rho, noise, grid, **options), sum(spectra), sum(built)

    @staticmethod
    def flipped(points, rng):
        """Each outcome again, with every mode negated, conjugated or turned by i.

        These flips keep each |z_k| exactly, so radius tuples repeat.
        """
        flips = np.array([-1.0, 1j, -1j])
        turned = [points]
        for _ in range(3):
            factors = rng.choice(flips, size=points.shape)
            conj = rng.random(points.shape) < 0.5
            turned.append(np.where(conj, points.conj(), points) * factors)
        return np.concatenate(turned)

    def test_matches_per_point_evaluation(self, monkeypatch, rng):
        # the kernel on every outcome alone, against one call on the grid:
        # equal bit for bit, as P[S, S] reads only |z_k| and each outcome's
        # phases are its own
        kernel = fockoracle._er_outcome_terms

        def per_point(support, factor, dim, noise, points):
            terms = [kernel(support, factor, dim, noise, points[i : i + 1])
                     for i in range(points.shape[0])]
            density, spectra, _ = (np.concatenate(part) for part in zip(*terms))
            return density, spectra, np.arange(points.shape[0])

        mixture = np.diag(np.pad(rng.dirichlet(np.ones(12)), (0, 28)))
        mc = monte_carlo_grid(np.diag([1.35, 1.6]), 12, seed=4)
        two_mode = OutcomeGrid(self.flipped(mc.points, rng), np.tile(mc.weights, 4) / 4)
        assert np.unique(np.abs(two_mode.points), axis=0).shape[0] == 12
        cases = [
            (thermal_state(1.0, 40), 1.0, default_grid(1.0, 1.0)),
            (mixture, 1.0, cartesian_grid(2.0, 0.5)),
            (sparse_diagonal_state(rng, 12, ((5, 4), (3, 6))), (0.15, 0.3),
             two_mode),
            # a product, whose parts' rows pair up: per outcome alone, each
            # outcome is its own pair
            (thermal_state((0.2, 0.3), 16), (0.15, 0.3), two_mode),
        ]
        # non-diagonal states, whose outcomes each gather their tuple's P
        hermite = default_grid(1.0, 1.0)
        one_mode = OutcomeGrid(self.flipped(hermite.points, rng),
                               np.tile(hermite.weights, 4) / 4)
        cases += [(random_low_energy_state(rng, 12, 40), 1.0, one_mode),
                  (beam_splitter_state(6), (0.05, 0.1), two_mode)]
        for rho, noise, grid in cases:
            whole = er_numeric(rho, noise, grid, mass_tol=math.inf)
            monkeypatch.setattr(fockoracle, "_er_outcome_terms", per_point)
            alone = er_numeric(rho, noise, grid, mass_tol=math.inf)
            monkeypatch.setattr(fockoracle, "_er_outcome_terms", kernel)
            assert whole == alone

    def test_default_grid_takes_17_spectra(self, monkeypatch):
        # 120 of the 400 outcomes lie inside the validity radius at dim 40,
        # noise 1, on 17 distinct radii
        grid = default_grid(1.0, 1.0)
        inside = grid.points[np.abs(grid.points) <= validity_radius(40, 1.0)]
        assert inside.size == 120
        _, count, built = self.evaluated(monkeypatch, thermal_state(1.0, 40), 1.0, grid)
        assert (built, count) == (17, 17)

    def test_non_diagonal_state_takes_every_outcome(self, monkeypatch, rng):
        rho = random_low_energy_state(rng, 12, 40)
        _, count, _ = self.evaluated(monkeypatch, rho, 1.0, default_grid(1.0, 1.0))
        assert count == 120

    def test_non_diagonal_state_builds_each_radius_tuple_once(self, monkeypatch, rng):
        # one chunk holds the 120 outcomes inside the radius, on 17 radii
        rho = random_low_energy_state(rng, 12, 40)
        _, count, built = self.evaluated(monkeypatch, rho, 1.0, default_grid(1.0, 1.0))
        assert (built, count) == (17, 120)

    def test_joint_state_builds_each_mode_radius_once(self, monkeypatch):
        # a non-product state on a 4 x 4 tensor grid: 16 radius tuples, but
        # each mode builds its 4 radii once
        first = np.array([0.3, 0.5j, -0.7, 0.6 - 0.6j])
        second = np.array([0.2j, -0.45, 0.35 + 0.5j, -0.8j])
        points = np.stack(np.meshgrid(first, second, indexing="ij"), axis=-1).reshape(16, 2)
        grid = OutcomeGrid(points, np.full(16, 0.05))
        rho, noise = beam_splitter_state(6), (0.05, 0.1)
        (value, _), count, built = self.evaluated(monkeypatch, rho, noise, grid,
                                                  mass_tol=math.inf)
        assert (built, count) == (8, 16)
        assert value == pytest.approx(pointwise_value(rho, noise, grid), abs=1e-12)


class TestKeptBlocks:
    """Each mode's blocks are kept across calls on the key ``(dim, noise,
    radii, levels)``, within ``CHUNK_ENTRIES`` complex entries' bytes; a kept
    block gives the bits of a built one."""

    def test_warm_call_builds_nothing(self, monkeypatch, rng):
        # a thermal state, a rank-12 state and a rank-12 product, whose modes
        # are integrated apart
        hermite = default_grid(1.0, 1.0)
        product = np.kron(random_low_energy_state(rng, 12, 16),
                          random_low_energy_state(rng, 12, 16))
        cases = [(thermal_state(1.0, 40), 1.0, hermite),
                 (random_low_energy_state(rng, 12, 40), 1.0, hermite),
                 (product, (0.1, 0.3), monte_carlo_grid(np.diag([1.3, 1.6]), 48, seed=5))]
        built = spy_builds(monkeypatch)
        for rho, noise, grid in cases:
            fockoracle._blocks.clear()
            cold = er_numeric(rho, noise, grid, mass_tol=math.inf)
            assert sum(built) > 0
            built.clear()
            assert er_numeric(rho, noise, grid, mass_tol=math.inf) == cold
            assert built == []

    def test_kept_stacks_are_read_only(self):
        er_numeric(thermal_state(1.0, 40), 1.0, default_grid(1.0, 1.0))
        stacks = list(fockoracle._blocks.values())
        assert len(stacks) == 1 and not stacks[0].flags.writeable
        with pytest.raises(ValueError):
            stacks[0][0, 0] = 0.0

    def test_levels_are_part_of_the_key(self, rng):
        # two states on one grid, noise and truncation, on levels 0-11 and on
        # the levels {0, 3, 7, 11}: the second must not take the first's blocks
        dim, noise = 40, 1.0
        points = 0.6 * (rng.normal(size=5) + 1j * rng.normal(size=5))
        grid = OutcomeGrid(points, rng.uniform(0.5, 1.5, size=5))
        sparse = np.zeros((dim, dim), dtype=complex)
        sparse[np.ix_([0, 3, 7, 11], [0, 3, 7, 11])] = random_low_energy_state(rng, 4, 4)
        states = (random_low_energy_state(rng, 12, dim), sparse)
        cold = []
        for rho in states:
            fockoracle._blocks.clear()
            cold.append(er_numeric(rho, noise, grid, mass_tol=math.inf))
        fockoracle._blocks.clear()
        for rho, alone in zip(states, cold):
            value, estimate = er_numeric(rho, noise, grid, mass_tol=math.inf)
            assert (value, estimate) == alone
            assert value == pytest.approx(pointwise_value(rho, noise, grid), abs=1e-12)
        assert len(fockoracle._blocks) == 2

    def test_budget_bounds_the_kept_stacks(self, monkeypatch, rng):
        # 2 full-width outcomes of entries: 51200 bytes.  The 12-level
        # states' blocks (17 radii, 19584 bytes) are kept, at most two at a
        # time, the least recently used out first; the thermal state's
        # (217600 bytes) serve their own call only, and evict nothing
        grid = default_grid(1.0, 1.0)
        rho = thermal_state(1.0, 40)
        full = er_numeric(rho, 1.0, grid)
        monkeypatch.setattr(fockoracle, "CHUNK_ENTRIES", 2 * 40 * 40)
        fockoracle._blocks.clear()
        built = spy_builds(monkeypatch)
        shifted = [np.diag(np.pad(rng.dirichlet(np.ones(12)), (k, 28 - k)))
                   for k in range(3)]
        er_numeric(shifted[0], 1.0, grid, mass_tol=math.inf)
        assert er_numeric(rho, 1.0, grid) == full
        assert er_numeric(rho, 1.0, grid) == full
        assert built == [17, 17, 17] and len(fockoracle._blocks) == 1
        for state in shifted[1:]:
            er_numeric(state, 1.0, grid, mass_tol=math.inf)
        assert built == [17] * 5 and len(fockoracle._blocks) == 2
        assert sum(stack.nbytes for stack in fockoracle._blocks.values()) == 2 * 17 * 144 * 8
        er_numeric(shifted[2], 1.0, grid, mass_tol=math.inf)
        assert built == [17] * 5
        er_numeric(shifted[0], 1.0, grid, mass_tol=math.inf)
        assert built == [17] * 6

    def test_threads_share_the_kept_blocks(self, monkeypatch, rng):
        # more threads than cores, a short switch interval and room for two
        # of the four states' blocks, so threads build, keep and evict at
        # once: every result is its serial one's bits, and the kept stacks
        # stay within the budget
        grid = default_grid(1.0, 1.0)
        states = [np.diag(np.pad(rng.dirichlet(np.ones(12)), (k, 28 - k)))
                  for k in range(4)]
        serial = [er_numeric(rho, 1.0, grid, mass_tol=math.inf) for rho in states]
        monkeypatch.setattr(fockoracle, "CHUNK_ENTRIES", 2 * 40 * 40)
        fockoracle._blocks.clear()
        results, errors = [], []

        def work(offset):
            try:
                for i in range(12):
                    k = (i + offset) % 4
                    results.append((k, er_numeric(states[k], 1.0, grid, mass_tol=math.inf)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        assert len(results) == 48 and all(value == serial[k] for k, value in results)
        held = sum(stack.nbytes for stack in fockoracle._blocks.values())
        assert 0 < held <= 2 * 40 * 40 * 16

    def test_no_outcome_inside_builds_nothing(self, monkeypatch):
        # every outcome beyond the validity radius: the typed mass error, for
        # one mode, a product and a joint state, and no block built
        built = spy_builds(monkeypatch)
        one_mode = OutcomeGrid(np.array([9.0 + 0j]), np.ones(1))
        two_mode = OutcomeGrid(np.array([[9.0 + 0j, 9.0 + 0j]]), np.ones(1))
        for rho, noise, grid in ((thermal_state(1.0, 40), 1.0, one_mode),
                                 (thermal_state((0.2, 0.3), 12), (0.1, 0.1), two_mode),
                                 (beam_splitter_state(6), (0.05, 0.1), two_mode)):
            with pytest.raises(GridMassDeficit):
                er_numeric(rho, noise, grid)
        assert sum(built) == 0


class TestProductSplit:
    """A product state is integrated mode by mode; any other takes the joint kernel."""

    @staticmethod
    def widths(monkeypatch, rho, noise, grid):
        """The widths of the posterior spectra ``er_numeric`` takes."""
        widths = set()
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            widths.add(a.shape[-1])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        er_numeric(rho, noise, grid, mass_tol=math.inf)
        return widths

    def test_product_takes_one_mode_spectra(self, monkeypatch):
        grid = monte_carlo_grid(np.diag([1.3, 1.6]), 48, seed=5)
        widths = self.widths(monkeypatch, thermal_state((0.2, 0.3), 16), (0.1, 0.3), grid)
        assert widths == {16}

    def test_non_diagonal_product_factors_each_mode(self, monkeypatch, rng):
        # two rank-12 marginals on 144 of the 256 states: each takes one
        # 12-wide eigh, and the joint support none
        rho = np.kron(random_low_energy_state(rng, 12, 16),
                      random_low_energy_state(rng, 12, 16))
        grid = monte_carlo_grid(np.diag([1.3, 1.6]), 48, seed=5)
        fockoracle._displacement_basis(16)  # cache the basis: its eigh is no state's
        widths = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: widths.append(a.shape[-1]) or eigh(a))
        er_numeric(rho, (0.1, 0.3), grid, mass_tol=math.inf)
        assert widths == [12, 12]

    def test_non_products_take_the_joint_kernel(self, monkeypatch, rng):
        # the beam-splitter state, a non-product diagonal state, and a product
        # thermal state moved off the product by 1e-9 in two entries (trace
        # kept): each takes spectra as wide as its support
        perturbed = thermal_state((0.2, 0.25), 10)
        perturbed[0, 0] += 1e-9
        perturbed[1, 1] -= 1e-9
        sparse = sparse_diagonal_state(rng, 10, ((5, 3), (2, 6)))
        grid = monte_carlo_grid(np.diag([1.1, 1.2]), 12, seed=4)
        for rho, noise in ((beam_splitter_state(6), (0.05, 0.1)),
                           (sparse, (0.15, 0.3)), (perturbed, (0.15, 0.3))):
            support = np.count_nonzero(np.abs(rho).sum(axis=0))
            assert self.widths(monkeypatch, rho, noise, grid) == {support}


class TestDiagonalChecks:
    """A number-diagonal state's input checks read its diagonal, not all D^2 entries."""

    def test_no_square_pass_after_the_zero_test(self, monkeypatch):
        # a product thermal state and the diagonal mixture of two products,
        # which is none: max |rho|, the product test, the asymmetry check and
        # the support read the 256 diagonal entries, so er_numeric calls no
        # kron, takes no |.| of 256^2 entries and copies no support block
        product = thermal_state((0.2, 0.3), 16)
        mixed = 0.5 * (product + thermal_state((0.3, 0.2), 16))
        grid = monte_carlo_grid(np.diag([1.3, 1.6]), 48, seed=5)
        krons, sizes, blocks = [], [], []
        kron, absolute, ix = np.kron, np.abs, np.ix_

        def spy_ix(*args):
            blocks.append(args)
            return ix(*args)

        def spy_kron(*args):
            krons.append(args)
            return kron(*args)

        def spy_abs(x, *args, **kwargs):
            sizes.append(np.size(x))
            return absolute(x, *args, **kwargs)

        monkeypatch.setattr(np, "kron", spy_kron)
        monkeypatch.setattr(np, "abs", spy_abs)
        monkeypatch.setattr(np, "ix_", spy_ix)
        for rho in (product, mixed):
            er_numeric(rho, (0.1, 0.3), grid, mass_tol=math.inf)
        assert krons == []
        assert blocks == []
        assert max(sizes) < 256**2


class TestMoments:
    def test_vacuum(self):
        first, lam, anom = normal_moments(thermal_state(0.0, 10))
        assert first == pytest.approx(0.0)
        assert lam == pytest.approx(0.0, abs=1e-14)
        assert anom == pytest.approx(0.0)

    def test_coherent(self):
        first, lam, anom = normal_moments(coherent_state(1.0, 40))
        assert first == pytest.approx(1.0, abs=1e-10)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert anom == pytest.approx(1.0, abs=1e-10)

    def test_fock_superposition(self):
        dim = 12
        psi = np.zeros(dim, dtype=complex)
        psi[0] = psi[2] = 1.0 / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        first, lam, anom = normal_moments(rho)
        assert first == pytest.approx(0.0)
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert anom == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-14)


class TestGaugeAverage:
    def test_diagonal_fixed_point(self):
        rho = thermal_state(1.0, 24)
        np.testing.assert_array_equal(gauge_average(rho), rho)

    def test_coherent_becomes_poisson(self):
        amp = 1.2 - 0.4j
        averaged = gauge_average(coherent_state(amp, 40))
        n = np.arange(16)
        poisson = np.exp(-abs(amp) ** 2) * abs(amp) ** (2 * n) / np.array(
            [math.factorial(int(k)) for k in n]
        )
        np.testing.assert_allclose(np.diag(averaged).real[:16], poisson, atol=1e-12)
        _, lam_avg, anom_avg = normal_moments(averaged)
        assert lam_avg == pytest.approx(abs(amp) ** 2, abs=1e-10)
        assert anom_avg == pytest.approx(0.0)

    def test_two_mode_keeps_total_number_blocks(self):
        dim = 3
        rho = np.ones((dim * dim, dim * dim), dtype=complex) / (dim * dim)
        averaged = gauge_average(rho, modes=2)
        # |01><10| connects equal totals and must survive; |00><01| must not
        assert averaged[1, dim] != 0.0
        assert averaged[0, 1] == 0.0

    def test_rejects_non_finite_state(self):
        with pytest.raises(ValueError, match="non-finite"):
            gauge_average(np.full((4, 4), np.nan))

    def test_rejects_bad_mode_count(self):
        with pytest.raises(DimensionMismatch):
            gauge_average(np.eye(10) / 10, modes=2)
        with pytest.raises(DimensionMismatch):
            gauge_average(np.eye(9) / 9, modes=0)

    def test_averaging_never_reduces_entropy_gain(self, rng):
        dim, noise = 40, 1.0
        for _ in range(3):
            rho = random_low_energy_state(rng, 12, dim)
            _, lam, _ = normal_moments(rho)
            grid = default_grid(lam, noise)
            plain, _ = er_numeric(rho, noise, grid)
            averaged, _ = er_numeric(gauge_average(rho), noise, grid)
            assert averaged >= plain - 5e-3


def test_concavity_spot_check(rng):
    dim, noise = 40, 1.0
    for _ in range(2):
        rho_a = random_low_energy_state(rng, 12, dim)
        rho_b = random_low_energy_state(rng, 12, dim)
        mix = (rho_a + rho_b) / 2.0
        _, lam, _ = normal_moments(mix)
        grid = default_grid(lam, noise)
        er_mix, _ = er_numeric(mix, noise, grid)
        er_a, _ = er_numeric(rho_a, noise, grid)
        er_b, _ = er_numeric(rho_b, noise, grid)
        assert er_mix >= (er_a + er_b) / 2.0 - 5e-3


def test_validate_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        validate_density(0.9 * thermal_state(0.0, 6))


def invalid_states():
    """States that fail a density check, each with a grid of its mode count
    and the message of the check.  Every one is number-diagonal, which
    er_numeric checks on its diagonal, except those with an entry set off
    the diagonal.  A trace message prints the trace as the check sums it."""
    one_mode = default_grid(1.0, 1.0)
    two_mode = monte_carlo_grid(np.diag([1.3, 1.6]), 12, seed=4)
    cases = []
    for base, grid in ((thermal_state(0.5, 20), one_mode),
                       (thermal_state((0.2, 0.1), 8), two_mode)):
        imaginary, skew, infinite = base.copy(), base.copy(), base.copy()
        imaginary[3, 3] += 1e-3j
        skew[0, 1] = 0.1
        infinite[2, 2] = np.inf
        cases += [
            (imaginary, grid, "density operator asymmetry 2.000e-03"),
            (skew, grid, "density operator asymmetry 1.000e-01"),
            (infinite, grid, "density operator has non-finite entries"),
        ]
    negative = np.diag(np.pad([0.6, 0.5, -0.1], (0, 5))).astype(complex)
    cases += [
        (np.diag(np.pad([1.1, -0.1], (0, 18))), one_mode,
         "density operator has eigenvalue -1.000e-01"),
        (np.kron(negative, thermal_state(0.2, 8)), two_mode,
         "density operator has eigenvalue -8.333e-02"),
        (np.zeros((64, 64)), two_mode, "density operator trace 0.0 is not 1 within 1e-6"),
    ]
    for rho, grid in ((1.01 * thermal_state(0.5, 20), one_mode),
                      (1.01 * thermal_state((0.2, 0.1), 8), two_mode)):
        trace = np.trace(rho).real
        cases.append((rho, grid, f"density operator trace {trace} is not 1 within 1e-6"))
    return cases


def test_er_numeric_rejects_invalid_states():
    # er_numeric's own density checks, on one mode and on two: a two-mode
    # product with a negative eigenvalue in one part is seen in the parts'
    # spectra, and a two-mode state of trace 0 stays one part
    for rho, grid, message in invalid_states():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            er_numeric(rho, 0.5, grid)


def test_validate_density_rejects_invalid_states():
    for rho, _, message in invalid_states():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_density(rho)


def test_validity_radius_monotone():
    assert validity_radius(80, 1.0) > validity_radius(40, 1.0)
    assert validity_radius(40, 0.0) > validity_radius(40, 2.0)


@pytest.mark.parametrize("dim", [2, 3, 7, 40, 200])
@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0, 4.5, 10.0])
def test_validity_radius_is_the_largest_fitting_amplitude(dim, noise):
    def fits(r):
        spread = math.sqrt(r * r * (2.0 * noise + 1.0) + noise * (noise + 1.0) + 1.0)
        return r * r + noise + spread <= dim

    radius = validity_radius(dim, noise)
    # the radius is the root itself, where rounding r^2 can tip the inequality
    # either way, so it is bracketed from inside by 1e-12 relative
    assert fits(radius * (1.0 - 1e-12)) if radius > 0.0 else not fits(0.0)
    assert not fits(radius * (1.0 + 1e-9))


@pytest.mark.parametrize("noise", [math.nan, math.inf, -0.5, -3.0])
def test_validity_radius_rejects_invalid_occupation(noise):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        validity_radius(40, noise)


def test_outcome_grid_rejects_negative_weights():
    with pytest.raises(ValueError):
        OutcomeGrid(
            points=np.array([0.0j]),
            weights=np.array([-1.0]),
        )


@pytest.mark.parametrize("field", ["points", "weights", "coarse"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_outcome_grid_rejects_non_finite_entries(field, bad):
    grid = cartesian_grid(1.0, 0.5)
    values = {"points": grid.points.copy(), "weights": grid.weights.copy(),
              "coarse": grid.coarse.copy()}
    values[field][3] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        OutcomeGrid(**values)


@pytest.mark.parametrize("call", [
    lambda: er_numeric(np.eye(40, 39) / 39, 1.0, default_grid(1.0, 1.0)),
    lambda: er_numeric(np.full(40, 1 / 40), 1.0, default_grid(1.0, 1.0)),
    lambda: posterior_state(np.eye(4, 3) / 3, 0.5, 0.1),
    lambda: validate_density(np.eye(4, 3)),
    lambda: gauge_average(np.eye(4, 3)),
], ids=["er_numeric-rectangular", "er_numeric-1d", "posterior_state",
        "validate_density", "gauge_average"])
def test_rejects_non_square_state(call):
    with pytest.raises(DimensionMismatch, match="square matrix"):
        call()


@pytest.mark.parametrize("field, values", [
    ("weights", np.ones((400, 2))), ("coarse", np.ones(5)),
    ("coarse", np.ones((400, 1)))])
def test_outcome_grid_rejects_misshapen_weights(field, values):
    grid = default_grid(1.0, 1.0)
    rules = {"weights": grid.weights, "coarse": grid.coarse, field: values}
    with pytest.raises(ValueError, match=f"{field} must hold one entry per point"):
        OutcomeGrid(grid.points, **rules)


def test_validate_density_rejects_non_finite():
    rho = thermal_state(0.1, 8)
    rho[2, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        validate_density(rho)


def test_outcome_grid_rejects_empty_point_set():
    with pytest.raises(ValueError, match="at least one point"):
        OutcomeGrid(points=np.zeros(0, dtype=complex), weights=np.zeros(0))
    with pytest.raises(ValueError, match="at least one point"):
        monte_carlo_grid(np.eye(2), 0, seed=1)


@pytest.mark.parametrize("count", [-1, 2.5, "4", True])
def test_monte_carlo_grid_rejects_bad_sample_count(count):
    with pytest.raises(ValueError, match="at least one point"):
        monte_carlo_grid(np.eye(2), count, seed=1)


@pytest.mark.parametrize("dim", [-3, 0, 1])
def test_validity_radius_rejects_fewer_than_two_levels(dim):
    with pytest.raises(DimensionMismatch, match="at least 2 levels"):
        validity_radius(dim, 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: thermal_state([], 8), "at least one mode"),
    (lambda: trace_distance(np.eye(4), np.eye(3)), "differ"),
    (lambda: trace_distance(np.eye(4, 3), np.eye(4, 3)), "square matrix"),
    (lambda: von_neumann_entropy(np.eye(4, 3)), "square matrix"),
    (lambda: von_neumann_entropy(np.full(4, 0.25)), "square matrix"),
    (lambda: normal_moments(np.eye(4, 3) / 3), "square matrix"),
    (lambda: displacement(0.0, 1), "at least 2 levels"),
    (lambda: displacement(0.5, 0), "at least 2 levels"),
    (lambda: thermal_state([[0.1, 0.2]], 8), "one per mode"),
    (lambda: annihilation(0), "at least 2 levels"),
    (lambda: annihilation(1), "at least 2 levels"),
    (lambda: normal_moments(np.ones((1, 1))), "at least 2 levels"),
], ids=["thermal_state-no-mode", "trace_distance-shapes", "trace_distance-rectangular",
        "von_neumann_entropy-rectangular", "von_neumann_entropy-1d",
        "normal_moments-rectangular", "displacement-one-level", "displacement-no-level",
        "thermal_state-2d-occupations", "annihilation-no-level",
        "annihilation-one-level", "normal_moments-one-level"])
def test_degenerate_inputs_raise_dimension_mismatch(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call()


@pytest.mark.parametrize("lam, noise", [(-5.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
def test_default_grid_rejects_invalid_variance(lam, noise):
    with pytest.raises(ValueError, match="positive and finite"):
        default_grid(lam, noise)


def test_entropy_of_thermal_matches_g():
    rho = thermal_state(0.75, 60)
    assert von_neumann_entropy(rho) == pytest.approx(g_scalar(0.75), abs=1e-8)


def test_annihilation_commutator():
    a = annihilation(30)
    comm = a @ a.conj().T - a.conj().T @ a
    np.testing.assert_allclose(np.diag(comm).real[:-1], np.ones(29), atol=1e-14)
