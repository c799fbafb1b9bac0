import math

import numpy as np
import pytest
from scipy.linalg import expm, sqrtm

from conftest import (
    random_admissible_cov,
    random_psd,
    random_symplectic,
    random_unitary,
    stack_pairs,
)
from gaussmeter import matfun, symplectic
from gaussmeter.errors import (
    DimensionMismatch,
    InvalidCovariance,
    NoModes,
    NotSymmetric,
    SingularSum,
)
from gaussmeter.gauge import (
    GaugeMeasurement,
    GaugeState,
    entropy_reduction_gauge,
    posterior_params,
)
from gaussmeter.matfun import symplectic_form, symplectic_spectrum
from gaussmeter.symplectic import (
    GeneralMeasurement,
    RealCovariance,
    embed_complex_correlation,
    embed_gauge_invariant,
    entropy_reduction_general,
    gaussian_entropy,
    posterior_covariance,
    validate_covariance,
)

ER_UNIT = 0.9182958340544896
G_HALF_BITS = 1.3774437510817343  # g(1/2), frozen from scalar evaluation


class TestValidateCovariance:
    def test_vacuum_saturates(self):
        ok, margin = validate_covariance(0.5 * np.eye(2), symplectic_form(1))
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_below_vacuum_fails(self):
        ok, margin = validate_covariance(0.25 * np.eye(2), symplectic_form(1))
        assert not ok
        assert margin < -1e-3

    def test_squeezed_boundary(self):
        ok, margin = validate_covariance(np.diag([2.0, 0.125]), symplectic_form(1))
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            validate_covariance(np.array([[1.0, 0.3], [0.0, 1.0]]), symplectic_form(1))


class TestGaussianEntropy:
    def test_vacuum_is_pure(self):
        assert gaussian_entropy(RealCovariance(0.5 * np.eye(2))) == 0.0

    def test_isotropic_thermal(self):
        assert gaussian_entropy(RealCovariance(1.5 * np.eye(2))) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_squeezed_thermal(self):
        # nu = 1 by the one-mode determinant rule, so the entropy is g(1/2)
        assert gaussian_entropy(RealCovariance(np.diag([2.0, 0.5]))) == pytest.approx(
            G_HALF_BITS, abs=1e-10
        )

    def test_symplectic_invariance(self, rng):
        for s in (1, 2):
            cov = random_admissible_cov(rng, s)
            ref = gaussian_entropy(RealCovariance(cov))
            sympl = random_symplectic(rng, s)
            moved = gaussian_entropy(RealCovariance(sympl @ cov @ sympl.T))
            assert moved == pytest.approx(ref, abs=1e-8)


class TestPosteriorCovariance:
    def test_matched_isotropic(self):
        alpha = RealCovariance(1.5 * np.eye(2))
        out = posterior_covariance(alpha, alpha)
        np.testing.assert_allclose(out.cov, (5.0 / 6.0) * np.eye(2), atol=1e-12)

    def test_heterodyne_on_vacuum_is_vacuum(self):
        vac = RealCovariance(0.5 * np.eye(2))
        out = posterior_covariance(vac, vac)
        np.testing.assert_allclose(out.cov, 0.5 * np.eye(2), atol=1e-12)

    def test_random_posteriors_admissible(self, rng):
        for _ in range(30):
            s = int(rng.integers(1, 4))
            alpha = RealCovariance(random_admissible_cov(rng, s))
            beta = RealCovariance(random_admissible_cov(rng, s))
            out = posterior_covariance(alpha, beta)
            ok, margin = validate_covariance(out.cov, out.form)
            assert ok, f"margin {margin}"

    @pytest.mark.parametrize("s", [2, 3])
    def test_matches_gauge_closed_form_under_squeezing(self, rng, s):
        # a symplectic S with squeezing moves both covariances off the
        # standard complex structure; the posterior moves with them, so it
        # must equal S embed(Ntilde + I/2) S^T with Ntilde = N - R M^-1 R
        eye = np.eye(s)
        for _ in range(20):
            state = GaugeState(random_psd(rng, s))
            meas = GaugeMeasurement(random_psd(rng, s))
            alpha, general = embed_gauge_invariant(state, meas)
            # under the standard complex structure T embeds R = sqrt(N(N+I))
            np.testing.assert_allclose(symplectic._grow_factor(general.beta),
                                       embed_complex_correlation(meas.grow),
                                       rtol=0.0, atol=1e-12)
            sympl = random_symplectic(rng, s)
            out = posterior_covariance(
                RealCovariance(sympl @ alpha.cov @ sympl.T),
                RealCovariance(sympl @ general.beta.cov @ sympl.T),
            )
            tilde = posterior_params(state, meas).correlation
            expected = sympl @ embed_complex_correlation(tilde + eye / 2.0) @ sympl.T
            np.testing.assert_allclose(out.cov, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("s", [2, 3])
    def test_matches_shrink_factor_formula(self, rng, s):
        # the formula as written: F = sqrt(I + (2 beta Delta^-1)^-2) and
        # beta - F beta (alpha+beta)^-1 beta F^T, on noise that does not
        # commute with Delta (no standard complex structure)
        form = symplectic_form(s)
        for _ in range(20):
            alpha = random_admissible_cov(rng, s)
            beta = random_admissible_cov(rng, s)
            assert np.abs(beta @ form.matrix - form.matrix @ beta).max() > 1e-3
            squared = 4.0 * np.linalg.matrix_power(beta @ form.inverse, 2)
            factor = sqrtm(np.eye(2 * s) + np.linalg.inv(squared))
            assert np.abs(factor.imag).max() < 1e-10
            factor = factor.real
            expected = beta - factor @ beta @ np.linalg.inv(alpha + beta) @ beta @ factor.T
            out = posterior_covariance(RealCovariance(alpha), RealCovariance(beta))
            np.testing.assert_allclose(out.cov, expected, rtol=0.0,
                                       atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("s", [2, 3])
    def test_pure_noise_leaves_noise(self, rng, s):
        # beta = S S^T / 2 has every nu = 1/2, so 1 - 1/(4 nu^2) is 0 up to
        # roundoff of either sign, the factor vanishes and the posterior is beta
        for _ in range(10):
            sympl = random_symplectic(rng, s)
            beta = RealCovariance(0.5 * sympl @ sympl.T)
            alpha = RealCovariance(random_admissible_cov(rng, s))
            out = posterior_covariance(alpha, beta)
            np.testing.assert_allclose(out.cov, beta.cov, rtol=0.0, atol=1e-12)
        # every mode squeezed to variance ratio 4 a^2, then mixed: the roundoff
        # in nu^2 grows with beta's condition number, and the clip with it.
        # The posterior is beta to about eps times the variance ratio (up to
        # 3.6e-7 relative measured at a = 1e4)
        for a in (10.0, 1e2, 1e3, 1e4):
            sympl = random_symplectic(rng, s)
            beta = sympl @ np.kron(np.eye(s), np.diag([a, 0.25 / a])) @ sympl.T
            beta = RealCovariance((beta + beta.T) / 2.0)
            out = posterior_covariance(RealCovariance(random_admissible_cov(rng, s)), beta)
            np.testing.assert_allclose(out.cov, beta.cov, rtol=0.0,
                                       atol=1e-6 * np.abs(beta.cov).max())

    @pytest.mark.parametrize("a", [10.0, 1e2, 1e3, 1e4])
    def test_rotated_squeezed_pure_noise_leaves_noise(self, rng, a):
        # one-mode pure noise R diag(a, 1/(4a)) R^T; at theta = 0.7 and
        # a = 1e3 the roundoff in 1 - 1/(4 nu^2) reaches -1.3e-10, below the
        # clip's 1e-10 floor
        for theta in (0.7, *rng.uniform(0.0, math.pi, 5)):
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            beta = RealCovariance(rot @ np.diag([a, 0.25 / a]) @ rot.T)
            out = posterior_covariance(RealCovariance(random_admissible_cov(rng, 1)), beta)
            np.testing.assert_allclose(out.cov, beta.cov, rtol=0.0,
                                       atol=1e-6 * np.abs(beta.cov).max())

    @pytest.mark.parametrize("n", [10.0, 1e2, 1e3])
    def test_pure_mode_beside_strong_noise(self, rng, n):
        # vacuum noise on one mode and thermal noise n on the other, mixed by
        # a passive unitary O: the roundoff at the pure mode grows with
        # max(w)^2, not with the condition number (n + 1/2) / (1/2).  The
        # posterior moves with O, so it equals O (the unmixed posterior) O^T
        beta0 = np.diag([0.5, 0.5, n + 0.5, n + 0.5])
        for _ in range(10):
            mix = embed_complex_correlation(random_unitary(rng, 2))
            alpha0 = np.zeros((4, 4))
            alpha0[:2, :2] = random_admissible_cov(rng, 1)
            alpha0[2:, 2:] = random_admissible_cov(rng, 1)
            unmixed = posterior_covariance(RealCovariance(alpha0), RealCovariance(beta0))
            expected = mix @ unmixed.cov @ mix.T
            out = posterior_covariance(RealCovariance(mix @ alpha0 @ mix.T),
                                       RealCovariance(mix @ beta0 @ mix.T))
            np.testing.assert_allclose(out.cov, expected, rtol=0.0,
                                       atol=1e-9 * np.abs(expected).max())


class TestEntropyReductionGeneral:
    def test_matched_isotropic(self):
        alpha = RealCovariance(1.5 * np.eye(2))
        meas = GeneralMeasurement(beta=alpha)
        assert entropy_reduction_general(alpha, meas) == pytest.approx(
            ER_UNIT, abs=1e-12
        )

    def test_vacuum_input_gives_zero(self):
        vac = RealCovariance(0.5 * np.eye(2))
        for beta_scale in (0.5, 1.5, 4.0):
            meas = GeneralMeasurement(beta=RealCovariance(beta_scale * np.eye(2)))
            assert entropy_reduction_general(vac, meas) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_pure_state_nullity(self, rng):
        for s in (1, 2):
            sympl = random_symplectic(rng, s)
            alpha = RealCovariance(0.5 * sympl @ sympl.T)
            beta = RealCovariance(random_admissible_cov(rng, s))
            assert entropy_reduction_general(
                alpha, GeneralMeasurement(beta=beta)
            ) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_on_random_draws(self, rng):
        for _ in range(40):
            s = int(rng.integers(1, 4))
            alpha = RealCovariance(random_admissible_cov(rng, s))
            beta = RealCovariance(random_admissible_cov(rng, s))
            assert (
                entropy_reduction_general(alpha, GeneralMeasurement(beta=beta))
                >= -1e-9
            )

    def test_joint_symplectic_invariance(self, rng):
        # a Gaussian unitary applied to both the state and the measurement
        # noise changes nothing; S = exp(J K) includes squeezing
        for i in range(60):
            s = 1 + i % 3
            alpha = random_admissible_cov(rng, s)
            beta = random_admissible_cov(rng, s)
            sympl = random_symplectic(rng, s)
            ref = entropy_reduction_general(
                RealCovariance(alpha), GeneralMeasurement(beta=RealCovariance(beta))
            )
            moved = entropy_reduction_general(
                RealCovariance(sympl @ alpha @ sympl.T),
                GeneralMeasurement(beta=RealCovariance(sympl @ beta @ sympl.T)),
            )
            assert moved == pytest.approx(ref, abs=1e-10)

    def test_squeezed_input_matches_fock_engine(self):
        # squeezed thermal state with covariance diag(2, 1/2) measured with
        # isotropic noise beta = 1.5 I (the N = 1 phase-insensitive POVM)
        from gaussmeter.fockoracle import (
            annihilation,
            default_grid,
            er_numeric,
            validate_density,
        )

        dim = 64
        a = annihilation(dim)
        squeeze = expm(0.5 * (-0.5 * math.log(2.0)) * (a @ a - a.conj().T @ a.conj().T))
        n = np.arange(dim)
        thermal = np.diag(0.5**n / 1.5**(n + 1)).astype(complex)
        rho = squeeze @ thermal @ squeeze.conj().T
        # self-check the construction through the quadrature variances
        x_op = (a + a.conj().T) / math.sqrt(2.0)
        p_op = (a - a.conj().T) / (1j * math.sqrt(2.0))
        assert np.trace(rho @ x_op @ x_op).real == pytest.approx(2.0, abs=1e-6)
        assert np.trace(rho @ p_op @ p_op).real == pytest.approx(0.5, abs=1e-6)
        validate_density(rho)

        numeric, _ = er_numeric(rho, 1.0, default_grid(2.0, 1.0))
        alpha = RealCovariance(np.diag([2.0, 0.5]))
        meas = GeneralMeasurement(beta=RealCovariance(1.5 * np.eye(2)))
        closed = entropy_reduction_general(alpha, meas)
        assert numeric == pytest.approx(closed, abs=1e-2)


class TestEmbedding:
    def test_unit_scalars(self):
        state = GaugeState(np.array([[1.0]], dtype=complex))
        meas = GaugeMeasurement(np.array([[1.0]], dtype=complex))
        alpha, general = embed_gauge_invariant(state, meas)
        np.testing.assert_allclose(alpha.cov, 1.5 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(general.beta.cov, 1.5 * np.eye(2), atol=1e-15)

    def test_vacuum(self):
        state = GaugeState(np.array([[0.0]], dtype=complex))
        meas = GaugeMeasurement(np.array([[0.0]], dtype=complex))
        alpha, general = embed_gauge_invariant(state, meas)
        np.testing.assert_allclose(alpha.cov, 0.5 * np.eye(2))
        np.testing.assert_allclose(general.beta.cov, 0.5 * np.eye(2))

    def test_complex_off_diagonal_round_trip(self):
        lam = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 2.0]])
        noise = np.array([[0.7, -0.1 + 0.4j], [-0.1 - 0.4j, 1.2]])
        state, meas = GaugeState(lam), GaugeMeasurement(noise)
        alpha, general = embed_gauge_invariant(state, meas)
        assert entropy_reduction_general(alpha, general) == pytest.approx(
            entropy_reduction_gauge(state, meas), abs=1e-9
        )

    def test_embedding_preserves_spectrum(self, rng):
        lam = random_psd(rng, 3)
        embedded = embed_complex_correlation(lam + 0.5 * np.eye(3))
        nus = np.sort(
            np.linalg.eigvalsh(lam).real + 0.5
        )[::-1]
        from gaussmeter.matfun import symplectic_spectrum

        np.testing.assert_allclose(
            symplectic_spectrum(embedded, symplectic_form(3)), nus, atol=1e-10
        )

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (1, 2), ()])
    def test_embedding_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatch):
            embed_complex_correlation(np.ones(shape, dtype=complex))

    def test_representation_match_on_random_draws(self, rng):
        for _ in range(100):
            s = int(rng.integers(1, 4))
            state = GaugeState(random_psd(rng, s))
            meas = GaugeMeasurement(random_psd(rng, s))
            alpha, general = embed_gauge_invariant(state, meas)
            assert entropy_reduction_general(alpha, general) == pytest.approx(
                entropy_reduction_gauge(state, meas), abs=1e-9
            )


def test_real_covariance_rejects_inadmissible():
    with pytest.raises(InvalidCovariance):
        RealCovariance(0.25 * np.eye(2))


def test_real_covariance_rejects_zero_modes():
    with pytest.raises(NoModes):
        RealCovariance(np.zeros((0, 0)))


def test_real_covariance_rejects_complex_entries():
    with pytest.raises(NotSymmetric, match="imaginary"):
        RealCovariance(np.eye(2) * (1 + 1j))
    alpha = RealCovariance(np.eye(2).astype(complex))
    assert alpha.cov.dtype == np.float64
    assert alpha.cov.tolist() == np.eye(2).tolist()


class TestValidatedOnce:
    """A covariance is checked once, when built, and keeps its spectrum."""

    def test_checks_symmetry_once(self, monkeypatch, rng):
        calls = []
        real = matfun.as_symmetric

        def spy(matrix, *args):
            calls.append(1)
            return real(matrix, *args)

        monkeypatch.setattr(symplectic, "as_symmetric", spy)
        monkeypatch.setattr(matfun, "as_symmetric", spy)
        alpha = RealCovariance(random_admissible_cov(rng, 2))
        gaussian_entropy(alpha)
        assert len(calls) == 1

    def test_second_entropy_takes_no_eigensolve(self, monkeypatch, rng):
        alpha = RealCovariance(random_admissible_cov(rng, 2))
        first = gaussian_entropy(alpha)
        calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name: calls.append(_n))
        assert gaussian_entropy(alpha) == first
        assert calls == []

    def test_spectrum_matches_public_function_and_is_read_only(self, rng):
        alpha = RealCovariance(random_admissible_cov(rng, 3))
        expected = symplectic_spectrum(alpha.cov, alpha.form)
        assert alpha.spectrum.tolist() == expected.tolist()
        with pytest.raises(ValueError):
            alpha.spectrum[0] = 1.0


class TestStacks:
    """Real-covariance closed forms take ``(k, 2s, 2s)`` stacks and give the
    per-matrix results bit for bit."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_gauge_embedding_stack_matches_per_matrix(self, rng, s):
        lams, noises = stack_pairs(rng, s)
        assert np.array_equal(embed_complex_correlation(lams),
                              np.stack([embed_complex_correlation(m) for m in lams]))
        state, meas = GaugeState(lams), GaugeMeasurement(noises)
        alpha, general = embed_gauge_invariant(state, meas)
        singles = [embed_gauge_invariant(GaugeState(lam), GaugeMeasurement(noise))
                   for lam, noise in zip(lams, noises)]
        assert np.array_equal(alpha.cov, np.stack([a.cov for a, _ in singles]))
        assert np.array_equal(general.beta.cov, np.stack([g.beta.cov for _, g in singles]))
        assert np.array_equal(entropy_reduction_general(alpha, general),
                              [entropy_reduction_general(a, g) for a, g in singles])

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_general_stack_matches_per_matrix(self, rng, s):
        form = symplectic_form(s)
        alphas = np.stack([random_admissible_cov(rng, s) for _ in range(5)])
        betas = np.stack([random_admissible_cov(rng, s) for _ in range(4)]
                         + [0.5 * np.eye(2 * s)])
        ok, margin = validate_covariance(alphas, form)
        each = [validate_covariance(a, form) for a in alphas]
        assert np.array_equal(ok, [e[0] for e in each])
        assert np.array_equal(margin, [e[1] for e in each])
        alpha, beta = RealCovariance(alphas), RealCovariance(betas)
        assert np.array_equal(alpha.spectrum, np.stack([RealCovariance(a).spectrum for a in alphas]))
        assert np.array_equal(gaussian_entropy(alpha),
                              [gaussian_entropy(RealCovariance(a)) for a in alphas])
        assert np.array_equal(symplectic._grow_factor(beta),
                              np.stack([symplectic._grow_factor(RealCovariance(b)) for b in betas]))
        tilde = posterior_covariance(alpha, beta)
        assert np.array_equal(tilde.cov, np.stack([
            posterior_covariance(RealCovariance(a), RealCovariance(b)).cov
            for a, b in zip(alphas, betas)]))
        assert np.array_equal(
            entropy_reduction_general(alpha, GeneralMeasurement(beta)),
            [entropy_reduction_general(RealCovariance(a), GeneralMeasurement(RealCovariance(b)))
             for a, b in zip(alphas, betas)])

    def test_two_d_results_keep_their_types(self, rng):
        alpha = RealCovariance(random_admissible_cov(rng, 2))
        ok, margin = validate_covariance(alpha.cov, alpha.form)
        assert type(ok) is bool and type(margin) is float
        assert type(gaussian_entropy(alpha)) is float
        general = GeneralMeasurement(RealCovariance(random_admissible_cov(rng, 2)))
        assert type(entropy_reduction_general(alpha, general)) is float

    def test_inadmissible_member_raises_its_error(self, rng):
        with pytest.raises(InvalidCovariance) as alone:
            RealCovariance(0.25 * np.eye(2))
        members = [random_admissible_cov(rng, 1), 0.25 * np.eye(2), np.eye(2)]
        with pytest.raises(InvalidCovariance) as stacked:
            RealCovariance(np.stack(members))
        assert str(stacked.value) == str(alone.value)

    def test_singular_sum_member_raises_its_error(self, rng):
        squeezed = np.diag([1e7, 0.25e-7])
        with pytest.raises(SingularSum):
            posterior_covariance(RealCovariance(squeezed), RealCovariance(squeezed))
        alphas = np.stack([np.eye(2), squeezed, random_admissible_cov(rng, 1)])
        with pytest.raises(SingularSum):
            posterior_covariance(RealCovariance(alphas), RealCovariance(alphas))

    def test_zero_mode_stack_raises(self):
        with pytest.raises(NoModes):
            RealCovariance(np.zeros((3, 0, 0)))

    def test_empty_stack_gives_empty_results(self):
        alpha = RealCovariance(np.zeros((0, 4, 4)))
        assert gaussian_entropy(alpha).shape == (0,)
        general = GeneralMeasurement(RealCovariance(np.zeros((0, 4, 4))))
        assert entropy_reduction_general(alpha, general).shape == (0,)
