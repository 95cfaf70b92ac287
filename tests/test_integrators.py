import logging
import math

import numpy as np
import pytest

from kerrosc.fock import FockState
from kerrosc.integrators import StepSizeError, _panel_quadrature
from kerrosc.oracle import integrate_schrodinger


def scalar_schrodinger(energy, y0, t_end, tol, sample_times=None):
    """integrate_schrodinger on the 1x1 Hamiltonian energy(t)."""
    return integrate_schrodinger(lambda t: np.array([[energy(t)]]),
                                 FockState(np.array([y0])), t_end, tol=tol,
                                 sample_times=sample_times)


class TestAdaptiveIntegrator:
    """The cases of the Dormand-Prince 5(4) stepper that still apply, run on
    the propagator of `integrate_schrodinger` that replaced it, with a 1x1
    Hamiltonian.  The energy varies in time, so the midpoint rule inside
    each substep is not exact and the step-size controller has work to do;
    tol is the error budget per unit step."""

    def test_linear_oscillator_endpoint(self):
        # E(t) = -w (1 + cos(t) / 2): psi(t) = exp(i w (t + sin(t) / 2))
        w = 5.0
        ys = scalar_schrodinger(lambda t: -w * (1.0 + 0.5 * math.cos(t)),
                                1.0, 10.0, 1e-10)
        exact = np.exp(1j * w * (10.0 + 0.5 * math.sin(10.0)))
        assert abs(ys[-1, 0] - exact) < 1e-9

    def test_dense_output_matches_exact_solution(self):
        # the propagator lands on every sample rather than interpolating
        w = 3.0
        ts = np.linspace(0.0, 6.0, 41)
        ys = scalar_schrodinger(lambda t: -w * (1.0 + 0.5 * math.cos(t)),
                                1.0, 6.0, 1e-10, sample_times=ts)
        exact = np.exp(1j * w * (ts + 0.5 * np.sin(ts)))
        assert np.abs(ys[:, 0] - exact).max() < 1e-9

    def test_zero_rhs_is_exact(self):
        ts = np.linspace(0.0, 5.0, 7)
        ys = scalar_schrodinger(lambda t: 0.0, 2.0 + 1j, 5.0, 1e-10,
                                sample_times=ts)
        np.testing.assert_allclose(ys, np.full((7, 1), 2.0 + 1j))

    def test_zero_span(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            ys = scalar_schrodinger(lambda t: 1.0, 1.0, 0.0, 1e-8)
        np.testing.assert_allclose(ys[-1], [1.0])
        # no step taken: the record reads 0/0 and its line formats
        record, = caplog.records
        assert (record.steps.accepted, record.steps.rejected) == (0, 0)
        assert record.getMessage().endswith(", 0.0 us per attempted step")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            scalar_schrodinger(lambda t: 1.0, 1.0, 1.0, -1e-8)
        with pytest.raises(ValueError):
            scalar_schrodinger(lambda t: 1.0, 1.0, -1.0, 1e-8)
        with pytest.raises(ValueError):
            scalar_schrodinger(lambda t: 1.0, 1.0, 1.0, 1e-8,
                               sample_times=np.array([2.0]))


def gl_integral(f, a, b, tol=1e-6):
    """Integral of f on [a, b] on the panel kernel, f taking node times."""
    return float(_panel_quadrature(lambda t, running: f(t), [a], [b], tol)[0])


class TestAdaptiveSimpson:
    """The cases of the adaptive Simpson rule, run on the Gauss-Legendre panel
    kernel that replaced it."""

    def test_polynomial_is_exact(self):
        val = gl_integral(lambda x: x ** 3 - 2 * x, 0.0, 2.0)
        assert abs(val - (4.0 - 4.0)) < 1e-13

    def test_oscillatory_integral(self):
        val = gl_integral(np.sin, 0.0, math.pi)
        assert abs(val - 2.0) < 1e-11

    def test_exponential_against_closed_form(self):
        g = 0.5
        val = gl_integral(lambda s: np.exp(-g * s), 0.0, 2.0)
        assert abs(val - (1 - math.exp(-1.0)) / g) < 1e-12

    def test_empty_interval(self):
        assert gl_integral(np.exp, 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            gl_integral(np.exp, 1.0, 0.0)


class TestPanelQuadrature:
    def test_nan_integrand_ends_at_the_cap(self):
        with pytest.raises(StepSizeError) as exc:
            _panel_quadrature(lambda t, running: np.full(t.shape, math.nan),
                              [0.0, 0.5], [0.5, 1.5], 1e-6)
        assert exc.value.t == 0.0

    def test_running_integral_feeds_a_nested_one(self):
        # integral over [a, b] of cos(u) (sin u - sin a), per interval
        a, b = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 7.0])
        totals = _panel_quadrature(
            lambda t, running: np.cos(t) * running(np.cos(t)), a, b, 1e-7)
        exact = (0.5 * (np.sin(b) ** 2 - np.sin(a) ** 2)
                 - np.sin(a) * (np.sin(b) - np.sin(a)))
        np.testing.assert_allclose(totals, exact, rtol=0, atol=1e-13)

    def test_stacked_integrands_return_one_row_each(self):
        totals = _panel_quadrature(
            lambda t, running: (np.ones_like(t), t, 1j * t ** 2),
            [0.0, 1.0], [1.0, 3.0], 1e-6)
        np.testing.assert_allclose(
            totals, [[1.0, 2.0], [0.5, 4.0], [1j / 3, 26j / 3]],
            rtol=0, atol=1e-14)
