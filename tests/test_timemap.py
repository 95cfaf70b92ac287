import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kerrosc.driven import FrequencySpec
from kerrosc.fock import FockState, coherent_state, momentum_operator, position_operator
from kerrosc.oracle import fidelity, integrate_schrodinger
from kerrosc.timemap import (
    MassSpec,
    energy_level,
    evolve_via_timemap,
    heisenberg_coefficients,
    physical_time,
    rescaled_time,
    transformed_frequency,
)


class TestRescaledTime:
    def test_unit_mass_is_identity(self):
        assert rescaled_time(MassSpec.constant(1.0), 5.0) == 5.0

    def test_exponential_closed_form_and_saturation(self):
        m = MassSpec.exponential(1.0, 1.0)
        assert abs(rescaled_time(m, 2.0) - (1 - math.exp(-2.0))) < 1e-14
        assert abs(rescaled_time(m, 50.0) - 1.0) < 1e-12  # horizon at 1/rate

    def test_exponential_rate_half_frozen_value(self):
        m = MassSpec.exponential(1.0, 0.5)
        tau = rescaled_time(m, 2.0)
        assert abs(tau - 2.0 * (1 - math.exp(-1.0))) < 1e-14
        assert abs(tau - 1.2642411176571153) < 1e-12
        # quadrature oracle over 1/m
        oracle = quad(lambda s: math.exp(-0.5 * s), 0.0, 2.0, epsabs=1e-13)[0]
        assert abs(tau - oracle) < 1e-12

    def test_tabulated_against_quadrature_oracle(self):
        ts = np.linspace(0.0, 4.0, 41)
        ms = 1.0 + 0.5 * np.sin(ts) ** 2
        m = MassSpec.tabulated(ts, ms)
        t_eval = 3.3
        knots = [float(k) for k in ts if 0.0 < k < t_eval]
        oracle = quad(lambda s: 1.0 / float(m(s)), 0.0, t_eval,
                      epsabs=1e-13, limit=500, points=knots)[0]
        assert abs(rescaled_time(m, t_eval) - oracle) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rescaled_time(MassSpec.constant(1.0), -0.1)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(ValueError):
            MassSpec.constant(0.0)
        with pytest.raises(ValueError):
            MassSpec.tabulated([0.0, 1.0], [1.0, -2.0])

    def test_inverse_round_trip(self):
        for m in (MassSpec.constant(2.0), MassSpec.exponential(1.5, 0.4),
                  MassSpec.tabulated(np.linspace(0, 5, 21),
                                     2.0 + np.cos(np.linspace(0, 5, 21)))):
            t = 2.7
            assert abs(physical_time(m, rescaled_time(m, t)) - t) < 1e-9

    @given(st.integers(0, 10 ** 6), st.floats(0.05, 4.0), st.floats(0.05, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_for_random_tabulated_mass(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 5.0, 17)
        ms = np.exp(rng.normal(scale=0.5, size=17))
        m = MassSpec.tabulated(ts, ms)
        lo, hi = sorted((t1, t2))
        if hi - lo > 1e-6:
            assert rescaled_time(m, hi) > rescaled_time(m, lo)


class TestTransformedFrequency:
    def test_unit_mass(self):
        f = FrequencySpec(1.7, 0.2)
        m = MassSpec.constant(1.0)
        t = 0.9
        assert transformed_frequency(m, f, t) == pytest.approx(float(f(t)))

    def test_exponential_mass_scales_frequency(self):
        m = MassSpec.exponential(1.0, 0.8)
        f = FrequencySpec(2.0)
        assert transformed_frequency(m, f, 1.5) == pytest.approx(
            2.0 * math.exp(0.8 * 1.5))

    def test_constants_multiply(self):
        assert transformed_frequency(MassSpec.constant(2.0),
                                     FrequencySpec(3.0), 0.3) == 6.0


class TestEnergyLevel:
    def test_ground_state(self):
        assert energy_level(0, FrequencySpec(1.0), 0.0) == 0.5

    def test_third_level(self):
        assert energy_level(3, FrequencySpec(2.0), 1.1) == pytest.approx(7.0)

    def test_mass_independence_of_levels(self):
        # a pure mass profile leaves Omega and hence the spectrum untouched
        f = FrequencySpec(1.3)
        m = MassSpec.exponential(1.0, 0.6)
        for t in (0.0, 1.0, 2.5):
            ratio = transformed_frequency(m, f, t) / float(m(t))
            assert abs(energy_level(2, f, t) - ratio * 2.5) < 1e-12

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            energy_level(-1, FrequencySpec(1.0), 0.0)


class TestHeisenbergCoefficients:
    def test_identity_at_t0(self):
        qp = heisenberg_coefficients(1.0, 1.0, 0.4, 0.0)
        np.testing.assert_allclose(qp.matrix(), np.eye(2), atol=1e-14)

    def test_zero_rate_limit_matches_constant_mass_oscillator(self):
        m0, w0, t = 1.3, 0.9, 2.1
        qp = heisenberg_coefficients(m0, w0, 1e-9, t)
        assert abs(qp.c_qq - math.cos(w0 * t)) < 1e-8
        assert abs(qp.c_qp - math.sin(w0 * t) / (m0 * w0)) < 1e-8
        assert abs(qp.c_pq + m0 * w0 * math.sin(w0 * t)) < 1e-8
        assert abs(qp.c_pp - math.cos(w0 * t)) < 1e-8

    def test_symplectic_determinant(self):
        qp = heisenberg_coefficients(1.0, 1.0, 0.4, 2.0)
        assert abs(qp.symplectic_determinant() - 1.0) < 1e-12

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError, match="overdamped"):
            heisenberg_coefficients(1.0, 0.4, 1.0, 1.0)

    def test_solves_damped_oscillator_equation(self):
        # q(t) obeys q'' + rate q' + w0^2 q = 0 for each column
        m0, w0, rate = 1.0, 1.2, 0.5
        h = 1e-5

        def col(t):
            qp = heisenberg_coefficients(m0, w0, rate, t)
            return np.array([qp.c_qq, qp.c_qp])

        t = 1.7
        dd = (col(t + h) - 2 * col(t) + col(t - h)) / h ** 2
        d1 = (col(t + h) - col(t - h)) / (2 * h)
        resid = dd + rate * d1 + w0 ** 2 * col(t)
        assert np.abs(resid).max() < 1e-5

    def test_momentum_is_mass_times_velocity(self):
        m0, w0, rate = 1.0, 1.1, 0.3
        h = 1e-6
        t = 1.9
        qp = heisenberg_coefficients(m0, w0, rate, t)
        dq = (heisenberg_coefficients(m0, w0, rate, t + h).c_qq
              - heisenberg_coefficients(m0, w0, rate, t - h).c_qq) / (2 * h)
        mass = m0 * math.exp(rate * t)
        assert abs(qp.c_pq - mass * dq) < 1e-6


def _constant_mass_evolver(mass, freq, n_trunc, tol=1e-9):
    q2 = position_operator(n_trunc).matrix @ position_operator(n_trunc).matrix
    p2 = momentum_operator(n_trunc).matrix @ momentum_operator(n_trunc).matrix

    def h_star(tau):
        t = physical_time(mass, tau)
        w = transformed_frequency(mass, freq, t)
        return 0.5 * p2 + 0.5 * w * w * q2

    def evolver(psi, tau):
        out = integrate_schrodinger(h_star, psi, tau, tol=tol)[-1]
        return FockState(out / np.linalg.norm(out), normalized=True)

    return evolver


class TestEvolveViaTimemap:
    def test_unit_mass_reduces_to_star_evolution(self):
        n = 24
        mass = MassSpec.constant(1.0)
        freq = FrequencySpec(1.0)
        psi0 = coherent_state(0.8, n)
        evolver = _constant_mass_evolver(mass, freq, n)
        out = evolve_via_timemap(psi0, mass, evolver, 1.3)
        direct = evolver(psi0, 1.3)
        assert fidelity(out, direct) > 1.0 - 1e-12

    def test_t0_returns_initial_state(self):
        n = 16
        mass = MassSpec.exponential(1.0, 0.3)
        psi0 = coherent_state(0.5, n)
        out = evolve_via_timemap(psi0, mass,
                                 lambda psi, tau: psi if tau == 0 else None,
                                 0.0)
        np.testing.assert_allclose(out.amplitudes, psi0.amplitudes)

    def test_exponential_mass_matches_direct_integration(self):
        # fidelity between the mapped and direct evolutions (theorem check)
        n = 40
        m0, w0, rate = 1.0, 1.0, 0.3
        mass = MassSpec.exponential(m0, rate)
        freq = FrequencySpec(w0)
        psi0 = coherent_state(1.0, n)
        q2 = position_operator(n).matrix @ position_operator(n).matrix
        p2 = momentum_operator(n).matrix @ momentum_operator(n).matrix

        def h_direct(t):
            m = m0 * math.exp(rate * t)
            return p2 / (2 * m) + 0.5 * m * w0 ** 2 * q2

        t_end = 3.0
        direct = integrate_schrodinger(h_direct, psi0, t_end, tol=1e-9)[-1]
        direct = FockState(direct / np.linalg.norm(direct), normalized=True)
        mapped = evolve_via_timemap(
            psi0, mass, _constant_mass_evolver(mass, freq, n), t_end)
        assert fidelity(mapped, direct) >= 1.0 - 1e-8


class TestSymplecticProperty:
    def test_determinant_one_at_100_random_times(self):
        rng = np.random.default_rng(20240817)
        m0, w0, rate = 1.0, 1.0, 0.4
        for t in rng.uniform(0.0, 10.0, size=100):
            qp = heisenberg_coefficients(m0, w0, rate, float(t))
            assert abs(qp.symplectic_determinant() - 1.0) < 1e-10

    @given(st.floats(0.2, 2.0), st.floats(0.0, 0.9), st.floats(0.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_determinant_one_property(self, w0, rate_frac, t):
        rate = rate_frac * 2.0 * w0 * 0.99
        qp = heisenberg_coefficients(1.0, w0, rate, t)
        assert abs(qp.symplectic_determinant() - 1.0) < 1e-9
