import math

import numpy as np
import pytest

from conftest import random_psd, random_unitary, stack_pairs
from gaussmeter.errors import (
    DimensionMismatch,
    DivisionDegenerate,
    InvalidRange,
    NegativeEigenvalue,
    NoModes,
    NotHermitian,
    ValidationError,
)
from gaussmeter.gauge import (
    OCCUPATION_LIMIT,
    DualChannelParams,
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
from gaussmeter.matfun import LogBase, as_hermitian, g_scalar, g_trace, hermitian_function

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

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_gain_is_posterior_gain_adjoint(self, rng, s):
        # full-rank, singular and zero Lambda against random, singular and
        # zero N; the gain is the posterior's to the last bit
        lams = [random_psd(rng, s), random_psd(rng, s, scale=0.0)]
        noises = [random_psd(rng, s), np.zeros((s, s), dtype=complex)]
        if s > 1:
            u = random_unitary(rng, s)
            lams.append((u * np.r_[0.0, rng.uniform(0.2, 1.0, s - 1)]) @ u.conj().T)
            noises.append((u * np.r_[rng.uniform(0.2, 1.0, s - 1), 0.0]) @ u.conj().T)
        for lam in lams:
            for noise in noises:
                state, meas = GaugeState(lam), GaugeMeasurement(noise)
                dual = dual_channel_params(state, meas)
                expected = posterior_params(state, meas).gain.conj().T
                assert np.array_equal(dual.gain, expected)


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

    def test_margin_is_smaller_separate_minimum(self, rng):
        # both sign choices, each by its own eigvalsh, to the last bit
        cases = [one_mode(1.0, 1.0), one_mode(0.0, 0.0)]
        for _ in range(60):
            s = int(rng.integers(1, 5))
            cases.append((GaugeState(random_psd(rng, s)),
                          GaugeMeasurement(random_psd(rng, s))))
        for state, meas in cases:
            dual = dual_channel_params(state, meas)
            form = as_hermitian(dual.noise_form)
            half = (np.eye(state.s) - dual.gain.conj().T @ dual.gain) / 2.0
            expected = min(np.linalg.eigvalsh(form - half).min(),
                           np.linalg.eigvalsh(form + half).min())
            assert cp_certificate(dual)[1] == float(expected)


def test_state_rejects_indefinite_correlation():
    with pytest.raises(NegativeEigenvalue):
        GaugeState(np.diag([1.0, -0.2]).astype(complex))


@pytest.mark.parametrize("cls", [GaugeState, GaugeMeasurement])
def test_rejects_zero_modes(cls):
    with pytest.raises(NoModes):
        cls(np.zeros((0, 0), dtype=complex))


def _stacked(values):
    return np.stack([np.asarray(v) for v in values])


class TestStacks:
    """Every closed form takes ``(k, s, s)`` stacks and gives the per-matrix
    results bit for bit; one bad member makes the call raise its error."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_stack_matches_per_matrix(self, rng, s):
        lams, noises = stack_pairs(rng, s)
        state, meas = GaugeState(lams), GaugeMeasurement(noises)
        singles = [(GaugeState(lam), GaugeMeasurement(noise))
                   for lam, noise in zip(lams, noises)]

        def each(fn):
            return [fn(st, me) for st, me in singles]

        assert np.array_equal(state.correlation, _stacked(st.correlation for st, _ in singles))
        for name in ("noise", "occupations", "grow", "shrink"):
            assert np.array_equal(getattr(meas, name),
                                  _stacked(getattr(me, name) for _, me in singles))
        root = meas.spectral(np.sqrt)
        assert np.array_equal(root, _stacked(me.spectral(np.sqrt) for _, me in singles))
        assert np.array_equal(output_density_params(state, meas),
                              _stacked(each(output_density_params)))
        post, posts = posterior_params(state, meas), each(posterior_params)
        assert np.array_equal(post.gain, _stacked(p.gain for p in posts))
        assert np.array_equal(post.correlation, _stacked(p.correlation for p in posts))
        assert np.array_equal(entropy_reduction_gauge(state, meas),
                              _stacked(each(entropy_reduction_gauge)))
        dual, duals = dual_channel_params(state, meas), each(dual_channel_params)
        assert np.array_equal(dual.gain, _stacked(d.gain for d in duals))
        assert np.array_equal(dual.noise_form, _stacked(d.noise_form for d in duals))
        ok, margin = cp_certificate(dual)
        certs = [cp_certificate(d) for d in duals]
        assert np.array_equal(ok, _stacked(c[0] for c in certs))
        assert np.array_equal(margin, _stacked(c[1] for c in certs))
        big_l, c2 = sqrt_gaussian_params(meas)
        roots = [sqrt_gaussian_params(me) for _, me in singles]
        assert np.array_equal(big_l, _stacked(r[0] for r in roots))
        assert np.array_equal(c2, _stacked(r[1] for r in roots))

    def test_two_d_results_keep_their_types(self, rng):
        state, meas = GaugeState(random_psd(rng, 2)), GaugeMeasurement(random_psd(rng, 2))
        assert type(entropy_reduction_gauge(state, meas)) is float
        ok, margin = cp_certificate(dual_channel_params(state, meas))
        assert type(ok) is bool and type(margin) is float
        assert type(sqrt_gaussian_params(meas)[1]) is float
        lams, noises = stack_pairs(rng, 2)
        er = entropy_reduction_gauge(GaugeState(lams), GaugeMeasurement(noises))
        assert isinstance(er, np.ndarray) and er.shape == (len(lams),)

    def test_leading_axes_broadcast(self, rng):
        lam = random_psd(rng, 2)
        _, noises = stack_pairs(rng, 2)
        post = posterior_params(GaugeState(lam), GaugeMeasurement(noises))
        for noise, gain in zip(noises, post.gain):
            single = posterior_params(GaugeState(lam), GaugeMeasurement(noise))
            assert np.array_equal(gain, single.gain)

    @pytest.mark.parametrize("cls, bad, error", [
        (GaugeState, np.diag([1.0, -0.2]), NegativeEigenvalue),
        (GaugeMeasurement, np.diag([1.0, -0.2]), NegativeEigenvalue),
        (GaugeState, np.array([[1.0, 0.5], [0.0, 1.0]]), NotHermitian),
        (GaugeMeasurement, np.array([[1.0, np.nan], [np.nan, 1.0]]), NotHermitian),
        (GaugeMeasurement, 1e155 * np.eye(2), InvalidRange),
    ], ids=["state-negative", "noise-negative", "asymmetric", "non-finite", "huge-noise"])
    def test_one_bad_member_raises_its_error(self, rng, cls, bad, error):
        with pytest.raises(error) as alone:
            cls(bad.astype(complex))
        members = [random_psd(rng, 2), random_psd(rng, 2), bad, random_psd(rng, 2)]
        with pytest.raises(error) as stacked:
            cls(np.stack(members).astype(complex))
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("cls", [GaugeState, GaugeMeasurement])
    def test_zero_mode_stack_raises(self, cls):
        with pytest.raises(NoModes):
            cls(np.zeros((3, 0, 0), dtype=complex))

    def test_empty_stack_gives_empty_results(self):
        state = GaugeState(np.zeros((0, 2, 2), dtype=complex))
        meas = GaugeMeasurement(np.zeros((0, 2, 2), dtype=complex))
        assert entropy_reduction_gauge(state, meas).shape == (0,)
        assert posterior_params(state, meas).gain.shape == (0, 2, 2)
        ok, margin = cp_certificate(dual_channel_params(state, meas))
        assert ok.shape == margin.shape == (0,)


class TestNonFiniteAndHugeInputs:
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)],
                             ids=["nan", "inf", "-inf", "imag-inf"])
    def test_cp_certificate_rejects_non_finite_gain(self, entry):
        with pytest.raises(InvalidRange, match="^gain has non-finite entries$"):
            cp_certificate(DualChannelParams(gain=np.array([[entry]]), noise_form=np.eye(1)))
        gain = np.zeros((3, 2, 2), dtype=complex)
        gain[1, 0, 1] = entry
        with pytest.raises(ValidationError):
            cp_certificate(DualChannelParams(gain=gain, noise_form=np.stack([np.eye(2)] * 3)))

    def test_huge_occupation_raises_at_construction(self):
        with pytest.raises(InvalidRange, match=r"occupation 1\.000e\+155 above "
                                               r"sqrt\(max float\) = 1\.341e\+154"):
            GaugeMeasurement(1e155 * np.eye(2, dtype=complex))
        assert OCCUPATION_LIMIT == math.sqrt(np.finfo(float).max)

    def test_occupation_1e150_still_works(self):
        state = GaugeState(np.eye(2, dtype=complex))
        meas = GaugeMeasurement(1e150 * np.eye(2, dtype=complex))
        post = posterior_params(state, meas)
        assert np.isfinite(post.gain).all() and np.isfinite(post.correlation).all()
        assert math.isfinite(entropy_reduction_gauge(state, meas))
        ok, margin = cp_certificate(dual_channel_params(state, meas))
        assert ok and math.isfinite(margin)
