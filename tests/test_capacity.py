import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from gaussmeter import capacity
from gaussmeter.capacity import (
    EnergyConstraint,
    c_unassisted_one_mode,
    cea_multimode,
    cea_one_mode,
    excess_limit,
    gain,
    sweep_one_mode,
)
from gaussmeter.errors import DimensionMismatch, InfeasibleConstraint, InvalidRange
from gaussmeter.gauge import GaugeMeasurement, GaugeState, entropy_reduction_gauge
from gaussmeter.matfun import LogBase, g_scalar

ER_UNIT = 0.9182958340544896
TWO_MODE_UNIT = 1.8365916681089792  # 2 * (2 - g(1/3))


class TestOneModeClosedForms:
    def test_noiseless_equals_state_entropy(self):
        for energy in (0.1, 1.0, 10.0):
            assert cea_one_mode(energy, 0.0) == g_scalar(energy)

    def test_unit_case(self):
        assert cea_one_mode(1.0, 1.0) == pytest.approx(ER_UNIT, abs=1e-12)

    def test_weak_signal_asymptote(self):
        energy, noise = 1e-6, 1.0
        asym = -(energy / (noise + 1.0)) * math.log2(energy)
        assert cea_one_mode(energy, noise) / asym == pytest.approx(1.0, abs=0.15)

    def test_unassisted_values(self):
        assert c_unassisted_one_mode(1.0, 1.0) == pytest.approx(
            math.log2(1.5), abs=1e-12
        )
        assert c_unassisted_one_mode(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_unassisted_strong_noise_asymptote(self):
        energy, noise = 1.0, 1000.0
        asym = energy / (noise + 1.0) * math.log2(math.e)
        assert c_unassisted_one_mode(energy, noise) / asym == pytest.approx(
            1.0, abs=0.002
        )

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            cea_one_mode(0.0, 1.0)
        with pytest.raises(InvalidRange):
            cea_one_mode(1.0, -0.1)
        with pytest.raises(InvalidRange):
            c_unassisted_one_mode(-1.0, 0.0)
        for fn in (cea_one_mode, c_unassisted_one_mode):
            with pytest.raises(InvalidRange, match="energy .* got 0.0"):
                fn(np.array([1.0, 0.0, 2.0]), 1.0)
            with pytest.raises(InvalidRange, match="noise .* got -0.1"):
                fn(np.ones(3), np.array([[0.5, 1.0, -0.1]]))
            with pytest.raises(InvalidRange, match="noise .* got inf"):
                fn(1.0, [0.0, math.inf])

    @pytest.mark.parametrize("energy, noise", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)])
    def test_non_finite_arguments(self, energy, noise):
        for fn in (cea_one_mode, c_unassisted_one_mode, gain):
            with pytest.raises(InvalidRange):
                fn(energy, noise)

    def test_nats(self):
        assert cea_one_mode(1.0, 0.0, LogBase.NATS) == pytest.approx(
            2.0 * math.log(2.0)
        )


class TestGain:
    def test_weak_signal(self):
        assert gain(1e-4, 1.0) / (-math.log(1e-4)) == pytest.approx(1.0, abs=0.15)

    def test_strong_signal_excess_over_unassisted(self):
        # G - 1 approaches excess / C; at E = 1e6 that is still 2.3 percent
        energy, noise = 1e6, 1.0
        expected = 1.0 + excess_limit(noise) / c_unassisted_one_mode(energy, noise)
        assert gain(energy, noise) == pytest.approx(expected, abs=1e-6)

    def test_monotone_approach_to_one(self):
        values = [gain(10.0**k, 1.0) for k in range(2, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=0.02)

    def test_strong_noise_plateau(self):
        target = 2.0 * math.log(2.0)
        assert abs(gain(1.0, 1e4) - target) / target <= 0.02

    def test_base_independent(self):
        assert gain(3.0, 2.0, LogBase.BITS) == pytest.approx(
            gain(3.0, 2.0, LogBase.NATS), abs=1e-12
        )


class TestExcessLimit:
    def test_unit_noise(self):
        assert excess_limit(1.0) == pytest.approx(
            math.log2(math.e) - 1.0, abs=1e-12
        )

    def test_vanishes_for_large_noise(self):
        assert excess_limit(1e9) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_difference_at_large_energy(self):
        energy, noise = 1e6, 1.0
        direct = cea_one_mode(energy, noise) - c_unassisted_one_mode(energy, noise)
        assert abs(direct - excess_limit(noise)) <= 1e-3

    def test_invalid(self):
        for noise in (0.0, math.inf):
            with pytest.raises(InvalidRange):
                excess_limit(noise)


class TestCapacityOrdering:
    def test_assistance_never_hurts(self):
        energies = np.geomspace(1e-3, 1e3, 100)
        noises = np.linspace(0.0, 20.0, 100)
        for noise in noises:
            for energy in energies:
                assert cea_one_mode(energy, noise) >= c_unassisted_one_mode(
                    energy, noise
                )

    def test_monotone_in_energy_and_noise(self):
        energies = np.geomspace(1e-2, 1e2, 40)
        for noise in (0.0, 1.0, 5.0):
            cea = [cea_one_mode(e, noise) for e in energies]
            c = [c_unassisted_one_mode(e, noise) for e in energies]
            assert all(b > a for a, b in zip(cea, cea[1:]))
            assert all(b > a for a, b in zip(c, c[1:]))
        noises = np.linspace(0.0, 10.0, 40)
        for energy in (0.1, 1.0, 10.0):
            cea = [cea_one_mode(energy, n) for n in noises]
            c = [c_unassisted_one_mode(energy, n) for n in noises]
            assert all(b < a for a, b in zip(cea, cea[1:]))
            assert all(b < a for a, b in zip(c, c[1:]))

    def test_gain_asymptote_sandwich(self):
        for noise in (0.5, 1.0, 10.0):
            for energy in np.geomspace(1e-8, 1e-4, 9):
                ratio = gain(energy, noise) / (-math.log(energy))
                assert abs(ratio - 1.0) <= 0.2


class TestMultimode:
    def test_stacks_are_rejected(self):
        # the optimizer takes one measurement and one energy matrix
        with pytest.raises(DimensionMismatch):
            EnergyConstraint(np.stack([np.eye(2)] * 3), 1.0)
        with pytest.raises(DimensionMismatch):
            cea_multimode(GaugeMeasurement(np.zeros((3, 2, 2), dtype=complex)),
                          EnergyConstraint(np.eye(2), 1.0))

    def test_one_mode_recovers_closed_form(self, rng):
        for _ in range(20):
            noise = float(rng.uniform(0.0, 5.0))
            energy = float(rng.uniform(0.1, 10.0))
            report = cea_multimode(
                GaugeMeasurement(np.array([[noise]], dtype=complex)),
                EnergyConstraint(np.array([[1.0]]), energy),
            )
            assert report.assisted == pytest.approx(
                cea_one_mode(energy, noise), abs=1e-6
            )
            assert report.unassisted == pytest.approx(
                c_unassisted_one_mode(energy, noise), abs=1e-12
            )

    def test_one_mode_weighted_energy_matrix(self):
        # the shell pins the correlation at E / eps
        report = cea_multimode(
            GaugeMeasurement(np.array([[1.0]], dtype=complex)),
            EnergyConstraint(np.array([[2.0]]), 2.0),
        )
        assert report.assisted == pytest.approx(cea_one_mode(1.0, 1.0), abs=1e-12)
        assert report.energy_used == pytest.approx(2.0, abs=1e-9)

    def test_two_mode_decoupled(self):
        report = cea_multimode(
            GaugeMeasurement(np.eye(2, dtype=complex)),
            EnergyConstraint(np.eye(2), 2.0),
        )
        assert report.converged
        assert report.assisted == pytest.approx(TWO_MODE_UNIT, abs=1e-6)
        assert abs(report.energy_used - 2.0) <= 1e-6

    def test_two_mode_coupled_dominates_grid(self):
        eps = np.diag([1.0, 2.0])
        noise = np.diag([0.0, 1.0]).astype(complex)
        budget = 2.0
        report = cea_multimode(
            GaugeMeasurement(noise), EnergyConstraint(eps, budget)
        )
        meas = GaugeMeasurement(noise)
        best = -math.inf
        for lam1 in np.linspace(0.0, budget / eps[0, 0], 50):
            for lam2 in np.linspace(0.0, budget / eps[1, 1], 50):
                used = eps[0, 0] * lam1 + eps[1, 1] * lam2
                if used <= 0.0:
                    continue
                scale = budget / used
                state = GaugeState(np.diag([lam1 * scale, lam2 * scale]))
                best = max(best, entropy_reduction_gauge(state, meas))
        assert report.assisted >= best - 1e-6
        assert abs(report.energy_used - budget) <= 1e-6

    def test_deterministic_given_seed(self):
        meas = GaugeMeasurement((np.eye(2) * 0.5).astype(complex))
        constraint = EnergyConstraint(np.diag([1.0, 1.5]), 3.0)
        a = cea_multimode(meas, constraint)
        b = cea_multimode(meas, constraint)
        assert a.assisted == b.assisted
        np.testing.assert_array_equal(
            a.best_state.correlation, b.best_state.correlation
        )

    def test_infeasible_budget(self):
        for budget in (0.0, math.inf):
            with pytest.raises(InfeasibleConstraint, match="positive and finite"):
                EnergyConstraint(np.eye(2), budget)


def coupled_capacity():
    """Criterion 9's commuting coupled case by 1-D brute force.

    eps = diag(1, 2), N = diag(0, 1), E = 2: the optimum is diagonal, so it
    is the best split of the energy between the two one-mode capacities.
    """
    def minus(lam1):
        return -(cea_one_mode(lam1, 0.0) + cea_one_mode((2.0 - lam1) / 2.0, 1.0))

    best = minimize_scalar(minus, bounds=(1e-9, 2.0 - 1e-9), method="bounded",
                           options={"xatol": 1e-12})
    return -best.fun


COUPLED = (np.diag([0.0, 1.0]), np.diag([1.0, 2.0]), 2.0)

# absolute roundoff of computed capacities near 2 bits
VALUE_ROUNDOFF = 1e-14


class TestCertificate:
    def test_reference_value(self):
        assert coupled_capacity() == pytest.approx(2.8390143512, abs=1e-10)

    @pytest.mark.parametrize("case", ["decoupled", "coupled"])
    def test_gap_bounds_the_error(self, case):
        if case == "decoupled":
            noise, eps, budget = np.eye(2), np.eye(2), 2.0
            exact = 2.0 * cea_one_mode(1.0, 1.0)
        else:
            noise, eps, budget = COUPLED
            exact = coupled_capacity()
        report = cea_multimode(GaugeMeasurement(noise), EnergyConstraint(eps, budget))
        assert report.converged == (report.gap <= capacity.GAP_TOL)
        assert report.converged
        assert exact - report.assisted <= report.gap + VALUE_ROUNDOFF
        assert abs(exact - report.assisted) <= capacity.GAP_TOL + VALUE_ROUNDOFF

    @pytest.mark.parametrize("noise, eps", [
        (np.zeros((2, 2)), np.diag([1.0, 3.0])),
        (np.eye(2), np.array([[1.0, 0.4], [0.4, 2.0]])),
        (np.diag([0.0, 1.0]), np.array([[1.0, 0.4], [0.4, 2.0]])),
    ], ids=["heterodyne", "unit-noise", "singular-noise"])
    def test_large_budget_converges_in_few_iterations(self, noise, eps):
        report = cea_multimode(GaugeMeasurement(noise), EnergyConstraint(eps, 1e6))
        assert report.gap <= capacity.GAP_TOL
        assert report.iterations < 100

    @pytest.mark.filterwarnings("error")
    def test_singular_trial_steps_are_rejected(self):
        # heterodyne detection at a small budget: some trial steps land on a
        # singular Lambda, whose gradient is infinite
        rng = np.random.default_rng(3)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        eps = b @ b.conj().T / 3.0 + 0.5 * np.eye(3)
        budget = 0.01
        report = cea_multimode(GaugeMeasurement(np.zeros((3, 3))),
                               EnergyConstraint(eps, budget))
        assert report.converged
        # N = 0: the optimum fills eps's eigenmodes with 1 / (exp(mu e) - 1)
        e = np.linalg.eigvalsh(eps)
        mu = brentq(lambda m: np.sum(e / np.expm1(m * e)) - budget, 1e-3, 20.0)
        exact = sum(g_scalar(1.0 / math.expm1(mu * x)) for x in e)
        assert abs(exact - report.assisted) <= report.gap + VALUE_ROUNDOFF

    def test_capped_run_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(capacity, "MAX_ITER", 2)
        noise, eps, budget = COUPLED
        report = cea_multimode(GaugeMeasurement(noise), EnergyConstraint(eps, budget))
        assert report.iterations == 2
        assert not report.converged
        assert report.gap > capacity.GAP_TOL
        # the certificate holds at any iterate, not only at convergence
        assert coupled_capacity() - report.assisted <= report.gap + VALUE_ROUNDOFF


class TestSweep:
    def test_figure_parameter_set(self):
        rows = sweep_one_mode([0.0, 1.0, 10.0], np.geomspace(1e-2, 1e2, 25))
        assert len(rows) == 75
        for noise in (0.0, 1.0, 10.0):
            gains = [r.gain for r in rows if r.noise == noise]
            assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_single_point(self):
        rows = sweep_one_mode([0.0], [1.0])
        assert len(rows) == 1
        row = rows[0]
        assert (row.assisted, row.unassisted, row.gain) == pytest.approx(
            (2.0, 1.0, 2.0), abs=1e-12
        )

    @pytest.mark.parametrize("base", list(LogBase))
    def test_rows_match_pointwise_closed_forms(self, base):
        rng = np.random.default_rng(11)
        rows = sweep_one_mode(rng.uniform(0.0, 10.0, 7), rng.uniform(1e-3, 1e3, 40), base)
        assert len(rows) == 280
        for row in rows:
            assisted = cea_one_mode(row.energy, row.noise, base)
            unassisted = c_unassisted_one_mode(row.energy, row.noise, base)
            assert (row.assisted, row.unassisted, row.gain) == pytest.approx(
                (assisted, unassisted, assisted / unassisted), rel=1e-15, abs=0.0
            )

    def test_rows_sorted(self):
        rows = sweep_one_mode([1.0, 0.0], [10.0, 0.1])
        keys = [(r.noise, r.energy) for r in rows]
        assert keys == sorted(keys)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidRange):
            sweep_one_mode([], [1.0])
