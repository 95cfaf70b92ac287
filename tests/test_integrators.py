import logging
import math

import numpy as np
import pytest

from kerrosc.integrators import StepSizeError, adaptive_simpson, integrate_adaptive


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


class TestAdaptiveSimpson:
    def test_polynomial_is_exact(self):
        val = adaptive_simpson(lambda x: x ** 3 - 2 * x, 0.0, 2.0)
        assert abs(val - (4.0 - 4.0)) < 1e-13

    def test_oscillatory_integral(self):
        val = adaptive_simpson(math.sin, 0.0, math.pi, rel_tol=1e-12)
        assert abs(val - 2.0) < 1e-11

    def test_exponential_against_closed_form(self):
        g = 0.5
        val = adaptive_simpson(lambda s: math.exp(-g * s), 0.0, 2.0,
                               rel_tol=1e-12)
        assert abs(val - (1 - math.exp(-1.0)) / g) < 1e-12

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_simpson(math.exp, 1.0, 0.0)
