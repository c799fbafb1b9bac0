import numpy as np
import pytest
from scipy.linalg import expm

from gaussmeter import fockoracle
from gaussmeter.matfun import symplectic_form


@pytest.fixture(autouse=True)
def no_kept_blocks():
    """Start every test with no measurement blocks kept from earlier calls,
    so build counts and cold evaluations do not depend on test order."""
    fockoracle._blocks.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_psd(rng, s, scale=0.6):
    """Random Hermitian positive semidefinite matrix of moderate norm."""
    a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    return scale * (a @ a.conj().T) / s


def random_unitary(rng, s):
    a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_symplectic(rng, s, scale=0.4):
    """exp(Delta H) with symmetric H is symplectic for the interleaved form."""
    h = rng.normal(size=(2 * s, 2 * s)) * scale
    h = (h + h.T) / 2.0
    return expm(symplectic_form(s).matrix @ h)


def random_admissible_cov(rng, s, scale=0.4):
    """Random quantum covariance matrix: squeezed vacuum plus classical noise."""
    sympl = random_symplectic(rng, s, scale)
    extra = rng.normal(size=(2 * s, 2 * s)) * scale
    return 0.5 * sympl @ sympl.T + extra @ extra.T


def stack_pairs(rng, s, extra=4):
    """Stacked ``(Lambda, N)`` draws on ``s`` modes for the stacked-path
    tests: a singular Lambda, N = 0, a singular N (s > 1) and ``extra``
    random non-commuting pairs."""
    u = random_unitary(rng, s)
    singular_lam = (u * np.r_[0.0, rng.uniform(0.2, 1.0, s - 1)]) @ u.conj().T
    lams = [singular_lam, random_psd(rng, s)]
    noises = [random_psd(rng, s), np.zeros((s, s), dtype=complex)]
    if s > 1:
        v = random_unitary(rng, s)
        lams.append(random_psd(rng, s))
        noises.append((v * np.r_[rng.uniform(0.2, 1.0, s - 1), 0.0]) @ v.conj().T)
    for _ in range(extra):
        lams.append(random_psd(rng, s))
        noises.append(random_psd(rng, s))
    return np.stack(lams), np.stack(noises)
