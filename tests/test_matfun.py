import math
import warnings

import numpy as np
import pytest

from conftest import random_psd, random_symplectic, random_unitary
from gaussmeter.errors import (
    DimensionMismatch,
    InvalidRange,
    NegativeArgument,
    NegativeEigenvalue,
    NoModes,
    NotHermitian,
    NotPositiveDefinite,
    NotSymmetric,
)
from gaussmeter.matfun import (
    LogBase,
    SymplecticForm,
    as_hermitian,
    g_scalar,
    g_trace,
    psd_sqrt,
    symplectic_form,
    symplectic_spectrum,
)
from gaussmeter.symplectic import RealCovariance, gaussian_entropy

# 8/3 - log2(3), frozen from an independent high-precision evaluation
G_ONE_THIRD_BITS = 1.0817041659455104


class TestGScalar:
    def test_continuity_at_zero(self):
        assert g_scalar(0.0) == 0.0

    def test_unit_occupation_is_two_bits(self):
        assert g_scalar(1.0) == pytest.approx(2.0, abs=1e-14)

    def test_one_third(self):
        assert g_scalar(1.0 / 3.0) == pytest.approx(G_ONE_THIRD_BITS, abs=1e-6)

    def test_one_third_matches_fock_thermal_entropy(self):
        # independent route: spectrum of the truncated thermal state
        from gaussmeter.fockoracle import thermal_state, von_neumann_entropy

        rho = thermal_state(1.0 / 3.0, 60)
        assert von_neumann_entropy(rho) == pytest.approx(G_ONE_THIRD_BITS, abs=1e-9)

    def test_nats(self):
        assert g_scalar(1.0, LogBase.NATS) == pytest.approx(2.0 * math.log(2.0))

    def test_clip_window(self):
        assert g_scalar(-1e-13) == 0.0
        assert g_scalar(np.array([-1e-13, 1.0])).tolist() == [0.0, g_scalar(1.0)]

    def test_negative_raises(self):
        for x in (-1e-6, [1.0, -1e-6], [[0.5], [-2e-12]], math.nan):
            with pytest.raises(NegativeArgument):
                g_scalar(np.asarray(x))

    def test_infinite_raises(self):
        for x in (math.inf, [1.0, math.inf]):
            with pytest.raises(InvalidRange):
                g_scalar(np.asarray(x))

    @pytest.mark.parametrize("base", list(LogBase))
    def test_array_matches_scalars(self, base):
        xs = np.array([[0.0, 1e-300, 0.3], [1.0, 7.5, 1e6]])
        vals = g_scalar(xs, base)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        assert vals.tolist() == [[g_scalar(x, base) for x in row] for row in xs.tolist()]
        assert type(g_scalar(0.3, base)) is float
        assert type(g_scalar(np.float64(0.3), base)) is float

    @pytest.mark.parametrize("base", list(LogBase))
    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_subnormal_occupation(self, x, base):
        # g(x) = x(1 - ln x) + O(x^2) nats; 1/x would overflow here
        expected = x * (1.0 - math.log(x)) / base.ln_base
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = g_scalar(x, base)
            values = g_scalar(np.array([x, 0.0, 1.0, x]), base)
        assert value == pytest.approx(expected, rel=1e-12)
        assert values.tolist() == [value, 0.0, g_scalar(1.0, base), value]

    def test_increasing_and_concave(self):
        xs = np.linspace(0.05, 30.0, 400)
        vals = np.array([g_scalar(x) for x in xs])
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)


class TestGMatrix:
    """``g`` of a Hermitian matrix, through the trace :func:`g_trace`."""

    def test_zero_matrix(self):
        assert g_trace(np.zeros((3, 3))) == 0.0

    def test_two_unit_modes(self):
        assert g_trace(np.eye(2)) == pytest.approx(4.0, abs=1e-12)

    def test_basis_invariance(self, rng):
        u = random_unitary(rng, 2)
        conj = u @ np.diag([1.0, 1.0 / 3.0]).astype(complex) @ u.conj().T
        assert g_trace(conj) == pytest.approx(2.0 + G_ONE_THIRD_BITS, abs=1e-9)

    def test_trace_unitarily_invariant(self, rng):
        for _ in range(10):
            a = random_psd(rng, 3)
            u = random_unitary(rng, 3)
            assert g_trace(u @ a @ u.conj().T) == pytest.approx(
                g_trace(a), abs=1e-9
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            g_trace(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NegativeEigenvalue):
            g_trace(np.diag([1.0, -0.5]))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_scalar_shrink_factor(self):
        # N (N+1)^-1 at N = 1
        val = psd_sqrt(np.array([[0.5]]))[0, 0].real
        assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_square_round_trip(self, rng):
        for _ in range(10):
            a = random_psd(rng, 4)
            # keep the condition number moderate
            a += 1e-6 * np.trace(a).real / 4 * np.eye(4)
            root = psd_sqrt(a)
            assert np.abs(root @ root - a).max() < 1e-9


class TestSymplecticSpectrum:
    def test_vacuum(self):
        form = symplectic_form(1)
        np.testing.assert_allclose(
            symplectic_spectrum(0.5 * np.eye(2), form), [0.5]
        )

    def test_isotropic_thermal(self):
        form = symplectic_form(1)
        np.testing.assert_allclose(
            symplectic_spectrum(1.5 * np.eye(2), form), [1.5]
        )

    def test_squeezed(self):
        form = symplectic_form(1)
        np.testing.assert_allclose(
            symplectic_spectrum(np.diag([2.0, 0.5]), form), [1.0], atol=1e-12
        )

    def test_one_mode_determinant_rule(self, rng):
        form = symplectic_form(1)
        for _ in range(20):
            a = random_psd(rng, 2).real + 0.6 * np.eye(2)
            a = (a + a.T) / 2.0
            nu = symplectic_spectrum(a, form)[0]
            assert nu == pytest.approx(math.sqrt(np.linalg.det(a)), abs=1e-10)

    def test_symplectic_congruence_invariance(self, rng):
        for s in (1, 2):
            form = symplectic_form(s)
            base = random_psd(rng, 2 * s).real + 0.7 * np.eye(2 * s)
            base = (base + base.T) / 2.0
            ref = symplectic_spectrum(base, form)
            sympl = random_symplectic(rng, s)
            moved = symplectic_spectrum(sympl @ base @ sympl.T, form)
            np.testing.assert_allclose(moved, ref, atol=1e-8, rtol=1e-8)

    def test_form_properties(self):
        form = symplectic_form(3)
        delta = form.matrix
        np.testing.assert_allclose(delta, -delta.T)
        np.testing.assert_allclose(delta @ delta, -np.eye(6))

    def test_form_is_shared_and_read_only(self):
        form = symplectic_form(2)
        assert symplectic_form(2) is form
        with pytest.raises(ValueError):
            form.matrix[0, 1] = 2.0

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            symplectic_spectrum(np.array([[1.0, 0.2], [0.0, 1.0]]), symplectic_form(1))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            symplectic_spectrum(np.diag([1.0, -1.0]), symplectic_form(1))

    def test_strongly_squeezed_vacuum(self):
        # condition number 1.44e12: admissible, and positive definite far
        # beyond eigh's backward error; its core is exactly diag(1/4, 1/4)
        alpha = np.diag([6e5, 1.0 / 2.4e6])
        assert symplectic_spectrum(alpha, symplectic_form(1)).tolist() == [0.5]
        assert gaussian_entropy(RealCovariance(alpha)) == 0.0

    def test_rejects_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symplectic_spectrum(np.eye(2), symplectic_form(2))

    def test_form_rejects_zero_modes(self):
        with pytest.raises(NoModes):
            SymplecticForm(0)


def test_as_hermitian_symmetrizes(rng):
    a = random_psd(rng, 3)
    jitter = a + 1e-13 * rng.normal(size=(3, 3))
    out = as_hermitian(jitter)
    np.testing.assert_allclose(out, out.conj().T)


@pytest.mark.parametrize("entry", [
    complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0),
    complex(math.inf, math.nan), complex(1.0, math.nan),
], ids=["nan", "inf", "-inf", "inf+nan*j", "nan-imag"])
def test_as_hermitian_rejects_non_finite(entry):
    a = np.eye(2, dtype=complex)
    a[0, 1] = entry
    with pytest.raises(NotHermitian, match="^matrix has non-finite entries$"):
        as_hermitian(a)
