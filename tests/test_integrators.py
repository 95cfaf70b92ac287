import logging
import math

import numpy as np
import pytest

from kerrosc.integrators import StepSizeError, _panel_quadrature, integrate_adaptive


class TestAdaptiveIntegrator:
    def test_linear_oscillator_endpoint(self):
        w = 5.0
        _, ys = integrate_adaptive(lambda t, y: 1j * w * y,
                                   np.array([1.0 + 0j]), 0.0, 10.0, 1e-8)
        assert abs(ys[-1, 0] - np.exp(1j * w * 10.0)) < 1e-9

    def test_dense_output_matches_exact_solution(self):
        w = 3.0
        ts = np.linspace(0.0, 6.0, 41)
        _, ys = integrate_adaptive(lambda t, y: 1j * w * y,
                                   np.array([1.0 + 0j]), 0.0, 6.0, 1e-8,
                                   sample_times=ts)
        assert np.abs(ys[:, 0] - np.exp(1j * w * ts)).max() < 1e-9

    def test_tolerance_halving_superlinear(self):
        w = 4.0
        errs = []
        for tol in (1e-4, 5e-5):
            _, ys = integrate_adaptive(lambda t, y: 1j * w * y,
                                       np.array([1.0 + 0j]), 0.0, 8.0, tol)
            errs.append(abs(ys[-1, 0] - np.exp(1j * w * 8.0)))
        assert errs[0] / errs[1] >= 4.0

    def test_budget_floor_reported_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="kerrosc")

        def floor_records(tol):
            caplog.clear()
            integrate_adaptive(lambda t, y: 1j * y, np.array([1.0 + 0j]),
                               0.0, 1.0, tol)
            return [r for r in caplog.records if "floor" in r.getMessage()]

        recs = floor_records(1e-8)
        assert len(recs) == 1
        assert recs[0].levelno == logging.DEBUG
        assert recs[0].name.startswith("kerrosc")
        assert "1e-16" in recs[0].getMessage()
        assert "1e-13" in recs[0].getMessage()
        assert floor_records(1e-4) == []

    def test_zero_rhs_is_exact(self):
        ts = np.linspace(0.0, 5.0, 7)
        _, ys = integrate_adaptive(lambda t, y: np.zeros_like(y),
                                   np.array([2.0 + 1j]), 0.0, 5.0, 1e-10,
                                   sample_times=ts)
        np.testing.assert_allclose(ys, np.full((7, 1), 2.0 + 1j))

    def test_zero_span(self):
        ts, ys = integrate_adaptive(lambda t, y: y, np.array([1.0 + 0j]),
                                    2.0, 2.0, 1e-8)
        np.testing.assert_allclose(ys[-1], [1.0])

    def test_step_budget_exhaustion_reports_time(self):
        with pytest.raises(StepSizeError) as exc:
            integrate_adaptive(lambda t, y: 1j * y, np.array([1.0 + 0j]),
                               0.0, 10.0, 1e-10, max_steps=3)
        assert exc.value.t >= 0.0

    def test_rejects_bad_inputs(self):
        y0 = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t, y: y, y0, 0.0, 1.0, -1e-8)
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t, y: y, y0, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t, y: y, y0, 0.0, 1.0, 1e-8,
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
