import math
from pathlib import Path

import numpy as np
import pytest

from kerrosc.config import load_config
from kerrosc.driven import DriveSpec
from kerrosc.evolution import ModelParams, evolved_state, integrate_wei_norman
from kerrosc.fock import coherent_state, inner
from kerrosc.kerr_states import KerrStateParams, kerr_state
from kerrosc.observables import (
    AutocorrSeries,
    _find_peaks,
    _median5,
    autocorrelation,
    autocorrelation_series,
    detect_revivals,
    find_grid_peaks,
    husimi_expectation,
    husimi_grid,
    husimi_snapshot,
)


def fig2_params(chi, alpha=3.0):
    return ModelParams(omega0=1.0, chi=chi,
                       drive=DriveSpec.cosine(1.0, 1.0), alpha=alpha)


class TestAutocorrelation:
    def test_unity_at_t0(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 1.0, tol=1e-10)
        assert abs(autocorrelation(p, sol, 0.0) - 1.0) < 1e-12

    def test_kerr_wrap_revival_without_drive(self):
        # at t = 2 pi / chi the number-squared phase wraps exactly and the
        # overlap reduces to that of two rotated coherent states
        for omega0 in (1.0, 1.3):
            chi, alpha = 0.25, 3.0
            p = ModelParams(omega0=omega0, chi=chi, drive=DriveSpec.zero(),
                            alpha=alpha)
            t = 2 * math.pi / chi
            sol = integrate_wei_norman(p, t, tol=1e-10)
            f = autocorrelation(p, sol, t)
            expected = math.exp(-alpha ** 2 * (1 - math.cos(omega0 * t)))
            assert abs(abs(f) - expected) < 1e-10

    def test_series_equals_state_inner_product(self):
        p = fig2_params(0.25, alpha=2.0)
        sol = integrate_wei_norman(p, 6.0, tol=1e-10)
        n_trunc = 70
        start = coherent_state(2.0, n_trunc)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.05, 6.0, size=10):
            f_series = autocorrelation(p, sol, float(t))
            f_state = inner(start, evolved_state(p, sol, float(t), n_trunc))
            assert abs(f_series - f_state) < 1e-10
            assert abs(abs(f_series) ** 2 - abs(f_state) ** 2) < 1e-10

    def test_series_container_invariants(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 3.0, tol=1e-9)
        ser = autocorrelation_series(p, sol, np.linspace(0.0, 3.0, 301))
        assert abs(ser.abs_squared[0] - 1.0) < 1e-10
        assert ser.abs_squared.max() <= 1.0 + 1e-9


class TestDetectRevivals:
    @pytest.mark.filterwarnings("ignore:chi/omega0")
    def test_kerr_revivals_near_wrap_times(self):
        p = fig2_params(1.0)
        sol = integrate_wei_norman(p, 14.0, tol=1e-9)
        ser = autocorrelation_series(p, sol, np.arange(0.0, 14.0, 0.01))
        revs = detect_revivals(ser, 0.5)
        for k in (1, 2):
            target = 2 * math.pi * k
            assert np.abs(revs - target).min() <= 0.011

    def test_high_threshold_returns_empty(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 3.0, tol=1e-9)
        ser = autocorrelation_series(p, sol, np.linspace(0.0, 3.0, 301))
        assert detect_revivals(ser, 1.1).size == 0

    @pytest.mark.filterwarnings("ignore:chi/omega0")
    def test_with_revivals_records_detected_times(self):
        p = fig2_params(1.0)
        sol = integrate_wei_norman(p, 7.0, tol=1e-9)
        ser = autocorrelation_series(p, sol, np.arange(0.0, 7.0, 0.01))
        assert ser.revival_times is None
        tagged = ser.with_revivals(0.5)
        assert tagged.revival_times is not None and tagged.revival_times.size
        np.testing.assert_allclose(tagged.values, ser.values)

    @pytest.mark.filterwarnings("ignore:chi/omega0")
    @pytest.mark.parametrize("name", ["autocorr_kerr_free",
                                      "autocorr_kerr_quarter",
                                      "autocorr_kerr_unit"])
    def test_filter_and_peaks_match_scipy_on_scenarios(self, name):
        # scipy.signal is an independent reference here; kerrosc never
        # loads it
        from scipy.signal import find_peaks, medfilt

        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        cfg = load_config(str(scenarios / f"{name}.yaml"))
        p = ModelParams(omega0=cfg.omega0, chi=cfg.chi, drive=cfg.drive(),
                        alpha=cfg.alpha)
        sol = integrate_wei_norman(p, cfg.t_end, tol=cfg.tolerance,
                                   samples=cfg.samples)
        raw = autocorrelation_series(p, sol).abs_squared
        smooth = _median5(raw)
        np.testing.assert_array_equal(smooth, medfilt(raw, kernel_size=5))
        for height in (cfg.revival_threshold, 0.0, 0.1, 0.9):
            for sig in (raw, smooth):
                np.testing.assert_array_equal(
                    _find_peaks(sig, height), find_peaks(sig, height=height)[0])

    def test_filter_and_peaks_match_scipy_on_plateaus(self):
        from scipy.signal import find_peaks, medfilt

        rng = np.random.default_rng(3)
        for size in list(range(1, 12)) + [50, 200, 1000] * 10:
            raw = rng.integers(0, 4, size=size).astype(float)
            sigs = [raw, np.repeat(raw, rng.integers(1, 4, size=size))]
            if size >= 5:
                smooth = _median5(raw)
                np.testing.assert_array_equal(smooth,
                                              medfilt(raw, kernel_size=5))
                sigs.append(smooth)
            for sig in sigs:
                for height in (0.0, 1.0, 2.5):
                    np.testing.assert_array_equal(
                        _find_peaks(sig, height),
                        find_peaks(sig, height=height)[0])

    def test_threshold_validation_and_short_series(self):
        ser = AutocorrSeries(times=np.array([0.0, 1.0]),
                             values=np.array([1.0 + 0j, 0.5 + 0j]))
        with pytest.raises(ValueError):
            detect_revivals(ser, -0.5)
        with pytest.raises(ValueError):
            detect_revivals(ser, 0.5)


class TestHusimiGrid:
    def test_coherent_state_gaussian(self):
        alpha = 1.5
        st = coherent_state(alpha, 40)
        g = husimi_grid(st, (-6.5, 6.5), (-6.5, 6.5), 201)
        xx, yy = np.meshgrid(g.x, g.y)
        expected = np.exp(-((xx - alpha) ** 2 + yy ** 2)) / math.pi
        assert np.abs(g.values - expected).max() < 1e-12
        peaks = find_grid_peaks(g, 0.2)
        assert len(peaks) == 1
        assert abs(peaks[0][2] - 1.0 / math.pi) < 1e-3

    def test_vacuum(self):
        st = coherent_state(0.0, 20)
        g = husimi_grid(st, (-5, 5), (-5, 5), 161)
        xx, yy = np.meshgrid(g.x, g.y)
        expected = np.exp(-(xx ** 2 + yy ** 2)) / math.pi
        assert np.abs(g.values - expected).max() < 1e-12

    def test_half_kerr_phase_makes_two_component_cat(self):
        st = kerr_state(KerrStateParams(2.0, math.pi / 2), 40)
        g = husimi_grid(st, (-7, 7), (-7, 7), 201)
        peaks = find_grid_peaks(g, 0.2)
        assert len(peaks) == 2
        assert abs(peaks[0][2] - peaks[1][2]) < 1e-6
        spots = sorted((complex(x, y) for x, y, _ in peaks[:2]),
                       key=lambda z: z.real)
        assert abs(spots[0] - (-2.0)) < 0.1 and abs(spots[1] - 2.0) < 0.1

    def test_positive_everywhere(self):
        st = kerr_state(KerrStateParams(1.5, 0.8), 40)
        g = husimi_grid(st, (-6, 6), (-6, 6), 101)
        assert g.values.min() >= 0.0

    def test_resolution_validation(self):
        st = coherent_state(0.0, 10)
        with pytest.raises(ValueError):
            husimi_grid(st, (-1, 1), (-1, 1), 1)

    def test_closed_form_matches_generic_overlap(self):
        # factorized-evolution closed form against the generic |<gamma|psi>|^2
        p = fig2_params(0.25, alpha=2.0)
        sol = integrate_wei_norman(p, 8.0, tol=1e-10)
        n_trunc = 70
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = float(rng.uniform(0.1, 8.0))
            gam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            st = evolved_state(p, sol, t, n_trunc)
            g = husimi_grid(st, (gam.real, gam.real + 1e-3),
                            (gam.imag, gam.imag + 1e-3), 2)
            eta = sol.eta_at(t)
            xi = p.chi * t
            series = sum(
                (np.conj(gam) * np.exp(-1j * p.omega0 * t) * eta) ** n
                / math.factorial(n) * np.exp(-1j * xi * n ** 2)
                for n in range(n_trunc))
            closed = (math.exp(-(abs(gam) ** 2 + abs(eta) ** 2))
                      * abs(series) ** 2 / math.pi)
            assert abs(g.values[0, 0] - closed) < 1e-10


class TestHusimiExpectation:
    def test_total_mass(self):
        st = coherent_state(1.5, 40)
        g = husimi_grid(st, (-6.5, 6.5), (-6.5, 6.5), 201)
        ones = np.ones_like(g.values)
        assert abs(husimi_expectation(g, ones) - 1.0) < 1e-3

    def test_antinormal_second_moment(self):
        alpha = 1.5
        st = coherent_state(alpha, 40)
        g = husimi_grid(st, (-6.5, 6.5), (-6.5, 6.5), 201)
        xx, yy = np.meshgrid(g.x, g.y)
        gam = xx + 1j * yy
        val = husimi_expectation(g, gam * np.conj(gam))
        assert abs(val - (alpha ** 2 + 1.0)) < 1e-2

    def test_first_moment_on_vacuum_vanishes(self):
        st = coherent_state(0.0, 20)
        g = husimi_grid(st, (-5, 5), (-5, 5), 161)
        xx, yy = np.meshgrid(g.x, g.y)
        assert abs(husimi_expectation(g, xx + 1j * yy)) < 1e-10

    def test_grid_mismatch_rejected(self):
        st = coherent_state(0.0, 20)
        g = husimi_grid(st, (-5, 5), (-5, 5), 61)
        with pytest.raises(ValueError, match="match"):
            husimi_expectation(g, np.ones((3, 3)))


class TestHusimiSnapshot:
    def test_snapshot_carries_time_and_covers_state(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 2.0, tol=1e-9)
        g = husimi_snapshot(p, sol, 1.0, resolution=101)
        assert g.time == 1.0
        assert abs(g.total_mass() - 1.0) < 1e-3
