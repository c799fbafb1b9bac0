import math

import numpy as np
import pytest

from conftest import random_psd, random_unitary
from gaussmeter.errors import DimensionMismatch, DivisionDegenerate, NegativeEigenvalue
from gaussmeter.gauge import (
    GaugeMeasurement,
    GaugeState,
    _entropy_reduction_gradient,
    cp_certificate,
    dual_channel_params,
    entropy_reduction_gauge,
    output_density_params,
    posterior_params,
    sqrt_gaussian_params,
)
from gaussmeter.matfun import LogBase, g_scalar, g_trace, hermitian_function

ER_UNIT = 0.9182958340544896  # 2 - g(1/3), frozen


def one_mode(lam, noise):
    return GaugeState(np.array([[lam]], dtype=complex)), GaugeMeasurement(
        np.array([[noise]], dtype=complex)
    )


class TestOutputDensity:
    def test_heterodyne_on_vacuum(self):
        state, meas = one_mode(0.0, 0.0)
        np.testing.assert_allclose(output_density_params(state, meas), [[1.0]])

    def test_scalar_sum(self):
        state, meas = one_mode(1.0, 1.0)
        np.testing.assert_allclose(output_density_params(state, meas), [[3.0]])

    def test_direct_sum_over_modes(self):
        state = GaugeState(np.diag([1.0, 2.0]).astype(complex))
        meas = GaugeMeasurement(np.eye(2, dtype=complex))
        np.testing.assert_allclose(
            output_density_params(state, meas), np.diag([3.0, 4.0])
        )

    def test_dimension_mismatch(self):
        state = GaugeState(np.eye(2, dtype=complex))
        meas = GaugeMeasurement(np.array([[1.0]], dtype=complex))
        with pytest.raises(DimensionMismatch):
            output_density_params(state, meas)


class TestPosteriorParams:
    def test_noiseless_collapse(self):
        state, meas = one_mode(2.0, 0.0)
        post = posterior_params(state, meas)
        np.testing.assert_allclose(post.gain, [[0.0]])
        np.testing.assert_allclose(post.correlation, [[0.0]])

    def test_unit_case(self):
        state, meas = one_mode(1.0, 1.0)
        post = posterior_params(state, meas)
        assert post.gain[0, 0].real == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)
        assert post.correlation[0, 0].real == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_scalar_matches_capacity_noise_term(self):
        # Ntilde must equal N E / (N + E + 1) for scalars
        for lam, noise in [(0.5, 2.0), (2.0, 0.5), (3.0, 1.5)]:
            state, meas = one_mode(lam, noise)
            post = posterior_params(state, meas)
            assert post.correlation[0, 0].real == pytest.approx(
                noise * lam / (noise + lam + 1.0), abs=1e-12
            )

    def test_hermiticity_for_non_commuting_inputs(self, rng):
        for s in (2, 3, 4):
            for _ in range(10):
                state = GaugeState(random_psd(rng, s))
                meas = GaugeMeasurement(random_psd(rng, s))
                # independent route: the raw triple product, no symmetrization
                grow = hermitian_function(
                    meas.noise, lambda w: np.sqrt(w * (w + 1.0))
                )
                shrink = hermitian_function(
                    meas.noise, lambda w: np.sqrt(w / (w + 1.0))
                )
                m_inv = np.linalg.inv(state.correlation + meas.noise + np.eye(s))
                raw = shrink @ state.correlation @ m_inv @ grow
                assert np.abs(raw - raw.conj().T).max() <= 1e-9
                post = posterior_params(state, meas)
                assert np.linalg.eigvalsh(post.correlation).min() >= -1e-10


class TestEntropyReduction:
    def test_heterodyne_recovers_state_entropy(self):
        for lam in (0.1, 1.0, 10.0):
            state, meas = one_mode(lam, 0.0)
            assert entropy_reduction_gauge(state, meas) == g_scalar(lam)

    def test_unit_case(self):
        state, meas = one_mode(1.0, 1.0)
        assert entropy_reduction_gauge(state, meas) == pytest.approx(
            ER_UNIT, abs=1e-12
        )

    def test_vacuum_input_gives_zero(self):
        for noise in (0.0, 1.0, 7.5):
            state, meas = one_mode(0.0, noise)
            assert entropy_reduction_gauge(state, meas) == 0.0

    def test_noiseless_collapse_exact(self, rng):
        for s in (1, 3):
            lam = random_psd(rng, s)
            state = GaugeState(lam)
            meas = GaugeMeasurement(np.zeros((s, s), dtype=complex))
            assert entropy_reduction_gauge(state, meas) == g_trace(lam)

    def test_nonnegative_on_random_draws(self, rng):
        for _ in range(40):
            s = int(rng.integers(1, 5))
            state = GaugeState(random_psd(rng, s))
            meas = GaugeMeasurement(random_psd(rng, s))
            assert entropy_reduction_gauge(state, meas) >= -1e-9

    def test_scalar_monotone_decreasing_in_noise(self):
        lam = 1.0
        values = []
        for noise in np.linspace(0.0, 20.0, 81):
            state, meas = one_mode(lam, noise)
            values.append(entropy_reduction_gauge(state, meas))
        assert np.all(np.diff(values) < 0)

    def test_additive_over_decoupled_modes(self):
        state = GaugeState(np.diag([1.0, 1.0]).astype(complex))
        meas = GaugeMeasurement(np.eye(2, dtype=complex))
        assert entropy_reduction_gauge(state, meas) == pytest.approx(
            2.0 * ER_UNIT, abs=1e-12
        )


def hermitian_basis(s):
    """Orthonormal basis of the s x s Hermitian matrices under ``Sp(A B)``."""
    for i in range(s):
        for j in range(s):
            b = np.zeros((s, s), dtype=complex)
            if i == j:
                b[i, i] = 1.0
            elif i < j:
                b[i, j] = b[j, i] = 1.0 / math.sqrt(2.0)
            else:
                b[i, j], b[j, i] = 1j / math.sqrt(2.0), -1j / math.sqrt(2.0)
            yield b


class TestEntropyReductionGradient:
    @pytest.mark.parametrize("s, noise_rank", [(2, 1), (3, 2), (3, 1), (5, 5)])
    def test_matches_central_differences(self, rng, s, noise_rank):
        # independent route: central differences of the public closed form
        lam = random_psd(rng, s) + 0.2 * np.eye(s)
        modes = random_unitary(rng, s)[:, :noise_rank]
        noise = (modes * rng.uniform(0.2, 2.0, noise_rank)) @ modes.conj().T
        meas = GaugeMeasurement(noise)
        for base in LogBase:
            value, grad = _entropy_reduction_gradient(GaugeState(lam), meas, base)
            assert value == pytest.approx(
                entropy_reduction_gauge(GaugeState(lam), meas, base), abs=1e-12
            )
            h = 1e-5
            numeric = np.zeros((s, s), dtype=complex)
            for b in hermitian_basis(s):
                up = entropy_reduction_gauge(GaugeState(lam + h * b), meas, base)
                down = entropy_reduction_gauge(GaugeState(lam - h * b), meas, base)
                numeric += (up - down) / (2.0 * h) * b
            assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(grad)

    def test_heterodyne_is_state_entropy_derivative(self):
        # N = 0: the posterior is pure, so G = g'(Lambda) = log(1 + 1/Lambda)
        lam = np.diag([0.5, 2.0]).astype(complex)
        _, grad = _entropy_reduction_gradient(
            GaugeState(lam), GaugeMeasurement(np.zeros((2, 2))), LogBase.NATS
        )
        np.testing.assert_allclose(grad, np.diag(np.log1p(1.0 / np.diag(lam).real)),
                                   atol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_singular_state_raises_typed_error(self):
        # g'(0) is infinite, so G has no finite value on the kernel of Lambda
        state = GaugeState(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(DivisionDegenerate):
            _entropy_reduction_gradient(state, GaugeMeasurement(np.eye(2)), LogBase.BITS)


class TestSqrtGaussian:
    def test_vacuum_projector(self):
        _, meas = one_mode(0.0, 0.0)
        big_l, c2 = sqrt_gaussian_params(meas)
        np.testing.assert_allclose(big_l, [[0.0]])
        assert c2 == pytest.approx(1.0)

    def test_unit_noise(self):
        _, meas = one_mode(0.0, 1.0)
        big_l, c2 = sqrt_gaussian_params(meas)
        assert big_l[0, 0].real == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
        assert c2 == pytest.approx((1.0 + math.sqrt(2.0)) ** 2, abs=1e-12)

    def test_modewise(self):
        meas = GaugeMeasurement(np.diag([1.0, 3.0]).astype(complex))
        big_l, _ = sqrt_gaussian_params(meas)
        np.testing.assert_allclose(
            big_l, np.diag([1.0 + math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(3.0)]),
            atol=1e-12,
        )

    def test_against_elementwise_root_of_thermal_spectrum(self):
        # independent route: sqrt of the geometric spectrum, not the formula
        from gaussmeter.fockoracle import thermal_state

        _, meas = one_mode(0.0, 1.0)
        big_l, c2 = sqrt_gaussian_params(meas)
        dim = 50
        root = np.sqrt(np.diag(thermal_state(1.0, dim)).real)
        target = math.sqrt(c2) * np.diag(thermal_state(big_l[0, 0].real, dim)).real
        np.testing.assert_allclose(root, target, atol=1e-12)


class TestDualChannel:
    def test_unit_case_exact(self):
        state, meas = one_mode(1.0, 1.0)
        dual = dual_channel_params(state, meas)
        assert dual.noise_form[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert dual.gain[0, 0].real == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)

    def test_noiseless_measurement(self):
        # K vanishes with the noise, leaving B = (R^-1 + R)/4 = 1/2
        state, meas = one_mode(1.0, 0.0)
        dual = dual_channel_params(state, meas)
        np.testing.assert_allclose(dual.gain, [[0.0]])
        assert dual.noise_form[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_state_gain(self):
        for noise in (0.5, 1.0, 4.0):
            state, meas = one_mode(0.0, noise)
            dual = dual_channel_params(state, meas)
            expected = math.sqrt(noise * (noise + 1.0)) / (noise + 1.0)
            assert dual.gain[0, 0].real == pytest.approx(expected, abs=1e-12)
            ok, _ = cp_certificate(dual)
            assert ok


class TestCpCertificate:
    def test_unit_case_margins(self):
        state, meas = one_mode(1.0, 1.0)
        dual = dual_channel_params(state, meas)
        half = 0.5 * (1.0 - dual.gain[0, 0].real ** 2)
        assert half == pytest.approx(7.0 / 18.0, abs=1e-12)
        ok, margin = cp_certificate(dual)
        assert ok
        assert margin == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_boundary_case(self):
        state, meas = one_mode(0.0, 0.0)
        ok, margin = cp_certificate(dual_channel_params(state, meas))
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_random_draws_always_pass(self, rng):
        for _ in range(200):
            s = int(rng.integers(1, 4))
            state = GaugeState(random_psd(rng, s))
            meas = GaugeMeasurement(random_psd(rng, s))
            ok, margin = cp_certificate(dual_channel_params(state, meas))
            assert ok, f"margin {margin}"


def test_state_rejects_indefinite_correlation():
    with pytest.raises(NegativeEigenvalue):
        GaugeState(np.diag([1.0, -0.2]).astype(complex))
