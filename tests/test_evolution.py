import math

import numpy as np
import pytest
from scipy.integrate import quad

from kerrosc.driven import DriveSpec
from kerrosc.evolution import (
    ModelParams,
    drive_coefficient,
    evolved_state,
    integrate_wei_norman,
    linearized_ladder,
)
from kerrosc.fock import (
    FockOperator,
    TruncationError,
    annihilation_operator,
    coherent_state,
    expectation,
    number_state,
    poisson_tail,
)


def cosine_params(omega0=1.0, chi=0.0, alpha=0.0):
    return ModelParams(omega0=omega0, chi=chi,
                       drive=DriveSpec.cosine(1.0, omega0), alpha=alpha)


class TestModelParams:
    def test_nu(self):
        assert cosine_params(1.0, 0.25).nu == 0.75

    def test_strong_kerr_warns(self):
        with pytest.warns(UserWarning, match="weak-nonlinearity") as rec:
            ModelParams(omega0=1.0, chi=0.8)
        assert rec[0].filename == __file__

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(omega0=0.0)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, chi=-0.1)


class TestLinearizedLadder:
    def test_sourceless_case(self):
        p = ModelParams(omega0=1.0, chi=0.3, drive=DriveSpec.zero())
        lin = linearized_ladder(p, 4, 1.7)
        assert lin.zeta == 0.0
        assert lin.delta == 0.0
        assert abs(lin.gamma_phase - 2 * 0.3 * 4 * 1.7) < 1e-12
        # ladder coefficient reduces to exp(-i (nu + 2 chi n) t)
        expected = np.exp(-1j * (p.nu + 2 * 0.3 * 4) * 1.7)
        assert abs(lin.a0_coefficient - expected) < 1e-12

    def test_first_order_response_vs_quadrature_oracle(self):
        p = cosine_params(omega0=1.0, chi=0.0)
        t = 2.3
        lin = linearized_ladder(p, 0, t)
        nu = p.nu
        re = quad(lambda s: math.cos(s) * math.cos(-nu * (t - s)), 0, t,
                  epsabs=1e-13)[0]
        im = quad(lambda s: math.cos(s) * math.sin(-nu * (t - s)), 0, t,
                  epsabs=1e-13)[0]
        oracle = 1j / math.sqrt(2.0) * (re + 1j * im)
        assert abs(lin.zeta - oracle) < 1e-10

    def test_refined_branch_reduces_to_first_order_without_kerr(self):
        p = cosine_params(omega0=1.0, chi=0.0)
        for t in (0.7, 2.3, 5.1):
            lin = linearized_ladder(p, 0, t)
            assert abs(lin.drive_term - (-lin.zeta)) < 1e-10

    def test_mean_occupation_from_linearized_ladder_on_vacuum(self):
        # <n(t)> on |0> equals |zeta|^2: build (a(t))^dag a(t) from the
        # first-order coefficients and take the expectation via fock-core
        p = cosine_params(omega0=1.0, chi=0.0)
        t = 1.9
        lin = linearized_ladder(p, 0, t)
        n_trunc = 25
        a = annihilation_operator(n_trunc).matrix
        coeff = np.exp(-1j * p.nu * t)
        a_t = coeff * a - lin.zeta * np.eye(n_trunc)
        n_t = FockOperator(a_t.conj().T @ a_t)
        val = expectation(n_t, number_state(0, n_trunc)).real
        assert abs(val - abs(lin.zeta) ** 2) < 1e-10

    def test_occupation_shifts_the_rate(self):
        p = ModelParams(omega0=1.0, chi=0.2, drive=DriveSpec.zero())
        lin = linearized_ladder(p, 3, 1.0)
        assert lin.n_bar == pytest.approx(3.0)
        assert lin.rate == pytest.approx(2 * 0.2 * 3.0)


class TestDriveCoefficient:
    def test_kerr_free_reduction(self):
        p = cosine_params(omega0=2.0, chi=0.0, alpha=1.5)
        t = 0.9
        g = drive_coefficient(p, t)
        expected = math.cos(2.0 * t) / math.sqrt(4.0) * np.exp(-2j * t)
        assert abs(g - expected) < 1e-14

    def test_t0_value(self):
        p = cosine_params(omega0=1.0, chi=0.25, alpha=3.0)
        assert abs(drive_coefficient(p, 0.0) - 1.0 / math.sqrt(2.0)) < 1e-14

    def test_modulus_factorizes(self):
        p = cosine_params(omega0=1.0, chi=0.25, alpha=3.0)
        t = 1.0
        g = drive_coefficient(p, t)
        expected = (abs(math.cos(t)) / math.sqrt(2.0)
                    * math.exp(9.0 * (math.cos(2 * 0.25 * t) - 1.0)))
        assert abs(abs(g) - expected) < 1e-12


class TestWeiNorman:
    def test_zero_drive_trajectories_vanish(self):
        p = ModelParams(omega0=1.0, chi=0.25, drive=DriveSpec.zero(),
                        alpha=2.0)
        sol = integrate_wei_norman(p, 5.0, tol=1e-10, samples=1001)
        assert np.abs(sol.x1).max() == 0.0
        assert np.abs(sol.x2).max() == 0.0
        assert np.abs(sol.x3).max() == 0.0
        np.testing.assert_allclose(sol.eta, np.full(1001, 2.0 + 0j))

    def test_constant_drive_closed_form(self):
        p = ModelParams(omega0=1.0, chi=0.0, drive=DriveSpec.constant(1.0))
        sol = integrate_wei_norman(p, math.pi, tol=1e-10)
        x2_pred = -(1.0 / math.sqrt(2.0)) * (np.exp(1j * math.pi) - 1.0)
        assert abs(sol.x2[-1] - x2_pred) < 1e-10
        assert abs(sol.x2[-1] - math.sqrt(2.0)) < 1e-10

    def test_x1_consistent_with_trapezoid_reintegration(self):
        tol = 1e-8
        p = cosine_params(omega0=1.0, chi=0.25, alpha=1.0)
        sol = integrate_wei_norman(p, 2 * math.pi, tol=tol, samples=100001)
        integrand = -1j * drive_coefficient(p, sol.times) * sol.x2
        steps = np.diff(sol.times)
        x1_re = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * steps)])
        assert np.abs(sol.x1 - x1_re).max() <= 10 * tol

    def test_initial_conditions(self):
        p = cosine_params(chi=0.25, alpha=1.0)
        sol = integrate_wei_norman(p, 1.0, tol=1e-10)
        assert sol.x1[0] == 0.0 and sol.x2[0] == 0.0 and sol.x3[0] == 0.0
        assert sol.eta[0] == 1.0 + 0j

    def test_interpolation_window_enforced(self):
        p = cosine_params(chi=0.25, alpha=1.0)
        sol = integrate_wei_norman(p, 1.0, tol=1e-10)
        with pytest.raises(ValueError):
            sol.eta_at(2.0)


class TestEvolvedState:
    def test_t0_is_initial_coherent_state(self):
        p = cosine_params(omega0=1.0, chi=0.25, alpha=1.5)
        sol = integrate_wei_norman(p, 1.0, tol=1e-10)
        state = evolved_state(p, sol, 0.0, 40)
        target = coherent_state(1.5, 40)
        assert abs(abs(np.vdot(target.amplitudes, state.amplitudes)) - 1) < 1e-12

    def test_zero_drive_gives_pure_kerr_state(self):
        p = ModelParams(omega0=1.0, chi=0.3, drive=DriveSpec.zero(), alpha=1.2)
        sol = integrate_wei_norman(p, 2.0, tol=1e-10)
        t = 2.0
        state = evolved_state(p, sol, t, 40)
        n = np.arange(40)
        base = coherent_state(1.2, 40).amplitudes
        expected = base * np.exp(-1j * (p.omega0 * t * n + p.chi * t * n ** 2))
        # global phase (zero-point rotation) is free; compare up to it
        overlap = abs(np.vdot(expected, state.amplitudes))
        assert abs(overlap - 1.0) < 1e-12

    def test_norm_preservation_across_times(self):
        p = cosine_params(omega0=1.0, chi=0.25, alpha=2.0)
        sol = integrate_wei_norman(p, 6.0, tol=1e-10)
        for t in np.linspace(0.0, 6.0, 13):
            assert abs(evolved_state(p, sol, float(t), 60).norm() - 1) < 1e-9

    def test_statistics_poisson_with_mean_eta_squared(self):
        p = cosine_params(omega0=1.0, chi=0.25, alpha=2.0)
        sol = integrate_wei_norman(p, 4.0, tol=1e-10)
        t = 3.1
        state = evolved_state(p, sol, t, 70)
        mu = abs(sol.eta_at(t)) ** 2
        n = np.arange(70)
        from scipy.special import gammaln
        log_p = n * math.log(mu) - gammaln(n + 1.0) - mu
        assert np.abs(state.occupations() - np.exp(log_p)).max() < 1e-10

    def test_adjacent_level_phases_match_linearized_rate(self):
        # zero drive, coherent start: arg(c_{n+1}/c_n) advances by
        # -(nu + 2 chi n) t - arg-independent offset, the linearized rate
        p = ModelParams(omega0=1.0, chi=0.05, drive=DriveSpec.zero(), alpha=1.5)
        sol = integrate_wei_norman(p, 2.0, tol=1e-10)
        t = 2.0
        state = evolved_state(p, sol, t, 30)
        c = state.amplitudes
        for n in range(6):
            measured = np.angle(c[n + 1] / c[n])
            predicted = np.angle(
                np.exp(-1j * (p.nu + 2 * p.chi * (n + 1)) * t)
                * 1.5 / math.sqrt(n + 1.0))
            assert abs(np.exp(1j * measured) - np.exp(1j * predicted)) < 1e-9

    def test_truncation_tail_guard(self):
        p = cosine_params(omega0=1.0, chi=0.0, alpha=3.0)
        sol = integrate_wei_norman(p, 1.0, tol=1e-10)
        with pytest.raises(TruncationError):
            evolved_state(p, sol, 1.0, 12)
        # and the guard threshold is the documented 1e-9 tail mass
        assert poisson_tail(9.0, 12) > 1e-9
