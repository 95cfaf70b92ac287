import math
from pathlib import Path

import numpy as np
import pytest

from kerrosc import observables
from kerrosc.config import load_config
from kerrosc.driven import DriveSpec
from kerrosc.evolution import (
    ModelParams,
    _evolved_amplitudes,
    evolved_state,
    integrate_wei_norman,
)
from kerrosc.fock import (
    _BLOCK_CELLS,
    FockState,
    coherent_amplitudes,
    coherent_state,
    default_truncation,
    inner,
)
from kerrosc.kerr_states import KerrStateParams, kerr_state
from kerrosc.observables import (
    AutocorrSeries,
    PhaseSpaceGrid,
    _find_peaks,
    _median5,
    autocorrelation,
    autocorrelation_series,
    detect_revivals,
    find_grid_peaks,
    husimi_grid,
    husimi_snapshot,
)


def fig2_params(chi, alpha=3.0):
    return ModelParams(omega0=1.0, chi=chi,
                       drive=DriveSpec.cosine(1.0, 1.0), alpha=alpha)


def scenario_solution(name):
    """The config and Wei-Norman solution of scenarios/<name>.yaml."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    cfg = load_config(str(scenarios / f"{name}.yaml"))
    p = ModelParams(omega0=cfg.omega0, chi=cfg.chi, drive=cfg.drive(),
                    alpha=cfg.alpha)
    sol = integrate_wei_norman(p, cfg.t_end, samples=cfg.samples)
    return cfg, sol


class TestAutocorrelation:
    def test_unity_at_t0(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 1.0)
        assert abs(autocorrelation(sol, 0.0) - 1.0) < 1e-12

    def test_kerr_wrap_revival_without_drive(self):
        # at t = 2 pi / chi the number-squared phase wraps exactly and the
        # overlap reduces to that of two rotated coherent states
        for omega0 in (1.0, 1.3):
            chi, alpha = 0.25, 3.0
            p = ModelParams(omega0=omega0, chi=chi, drive=DriveSpec.zero(),
                            alpha=alpha)
            t = 2 * math.pi / chi
            sol = integrate_wei_norman(p, t)
            f = autocorrelation(sol, t)
            expected = math.exp(-alpha ** 2 * (1 - math.cos(omega0 * t)))
            assert abs(abs(f) - expected) < 1e-10

    def test_series_equals_state_inner_product(self):
        p = fig2_params(0.25, alpha=2.0)
        sol = integrate_wei_norman(p, 6.0)
        n_trunc = 70
        start = coherent_state(2.0, n_trunc)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.05, 6.0, size=10):
            f_series = autocorrelation(sol, float(t))
            f_state = inner(start, evolved_state(sol, float(t), n_trunc))
            assert abs(f_series - f_state) < 1e-10
            assert abs(abs(f_series) ** 2 - abs(f_state) ** 2) < 1e-10
        # a whole series, on a coarse grid and off it, against the loop
        sol = integrate_wei_norman(p, 6.0, samples=61)
        for times in (None, np.linspace(0.013, 5.987, 37)):
            ser = autocorrelation_series(sol, times)
            loop = [inner(start, evolved_state(sol, float(t), n_trunc))
                    for t in ser.times]
            np.testing.assert_allclose(ser.values, loop, rtol=0, atol=1e-12)

    def test_long_series_matches_the_loop_across_blocks(self):
        # 20001 points span many blocks while the resonant drive grows
        # |eta|, so each block sums to its own n_top
        p = fig2_params(0.25, alpha=2.0)
        sol = integrate_wei_norman(p, 40.0, samples=20_001)
        n_trunc = default_truncation(complex(np.max(np.abs(sol.eta))))
        start = coherent_state(2.0, n_trunc)
        picks = np.unique(np.r_[0:20_001:251, 8191, 8192, 16383, 16384,
                                20_000])
        off_grid = sol.times[picks[:-1]] + 0.37 * (sol.times[1] - sol.times[0])
        for times, at in ((None, sol.times[picks]),
                          (np.repeat(off_grid, 200), off_grid)):
            values = autocorrelation_series(sol, times).values
            if times is None:
                values = values[picks]
            else:
                values = values[::200]
            loop = [inner(start, evolved_state(sol, float(t), n_trunc))
                    for t in at]
            np.testing.assert_allclose(values, loop, rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:chi/omega0")
    @pytest.mark.parametrize("name", ["autocorr_kerr_free",
                                      "autocorr_kerr_quarter",
                                      "autocorr_kerr_unit"])
    def test_policy_sized_series_matches_400_levels(self, name):
        # each block sums default_truncation(sqrt(max |alpha eta|)) levels;
        # the terms it leaves out are below rounding of a unit-size sum
        _, sol = scenario_solution(name)
        p = sol.params
        start = coherent_amplitudes(p.alpha, 400).conj()
        full = _evolved_amplitudes(sol, sol.times, 400) @ start
        np.testing.assert_allclose(autocorrelation_series(sol).values,
                                   full, rtol=0, atol=1e-15)

    def test_amplitude_blocks_stay_within_the_cell_budget(self, monkeypatch):
        # the resonant Kerr-free drive pumps |eta| from 1 to 9.9, so the
        # last blocks sum 96 levels; each amplitude matrix holds at most
        # _BLOCK_CELLS cells, and the blocks cover the series once
        _, sol = scenario_solution("autocorr_kerr_free")
        shapes = []

        def spy(*args):
            amplitudes = _evolved_amplitudes(*args)
            shapes.append(amplitudes.shape)
            return amplitudes
        monkeypatch.setattr(observables, "_evolved_amplitudes", spy)
        autocorrelation_series(sol)
        assert sum(rows for rows, _ in shapes) == sol.times.size
        assert max(rows * levels for rows, levels in shapes) <= _BLOCK_CELLS

    def test_series_container_invariants(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 3.0)
        ser = autocorrelation_series(sol, np.linspace(0.0, 3.0, 301))
        assert abs(ser.abs_squared[0] - 1.0) < 1e-10
        assert ser.abs_squared.max() <= 1.0 + 1e-9


class TestDetectRevivals:
    @pytest.mark.filterwarnings("ignore:chi/omega0")
    def test_kerr_revivals_near_wrap_times(self):
        p = fig2_params(1.0)
        sol = integrate_wei_norman(p, 14.0)
        ser = autocorrelation_series(sol, np.arange(0.0, 14.0, 0.01))
        revs = detect_revivals(ser, 0.5)
        for k in (1, 2):
            target = 2 * math.pi * k
            assert np.abs(revs - target).min() <= 0.011

    def test_high_threshold_returns_empty(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 3.0)
        ser = autocorrelation_series(sol, np.linspace(0.0, 3.0, 301))
        assert detect_revivals(ser, 1.1).size == 0

    @pytest.mark.filterwarnings("ignore:chi/omega0")
    def test_detects_the_first_revival(self):
        p = fig2_params(1.0)
        sol = integrate_wei_norman(p, 7.0)
        ser = autocorrelation_series(sol, np.arange(0.0, 7.0, 0.01))
        assert detect_revivals(ser, 0.5).size

    @pytest.mark.filterwarnings("ignore:chi/omega0")
    @pytest.mark.parametrize("name", ["autocorr_kerr_free",
                                      "autocorr_kerr_quarter",
                                      "autocorr_kerr_unit"])
    def test_filter_and_peaks_match_scipy_on_scenarios(self, name):
        # scipy.signal is an independent reference here; kerrosc never
        # loads it
        from scipy.signal import find_peaks, medfilt

        cfg, sol = scenario_solution(name)
        raw = autocorrelation_series(sol).abs_squared
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

    def test_median_filter_is_bitwise_np_median(self):
        # np.partition's middle sample equals np.median's on every window,
        # ties included, and a window holding NaN gives NaN as np.median's
        # does, wherever in the window the NaN sits
        from numpy.lib.stride_tricks import sliding_window_view

        def reference(x):
            return np.median(sliding_window_view(np.pad(x, 2), 5), axis=1)

        rng = np.random.default_rng(11)
        for size in (5, 6, 37, 200):
            for raw in (rng.random(size), rng.integers(0, 3, size) / 3.0):
                assert np.array_equal(_median5(raw).view(np.int64),
                                      reference(raw).view(np.int64))
        raw = rng.random(12)
        raw[[3, 11]] = np.nan, -np.nan
        expected = [False] + [True] * 5 + [False] * 3 + [True] * 3
        assert np.isnan(reference(raw)).tolist() == expected
        assert np.isnan(_median5(raw)).tolist() == expected

    def test_threshold_validation_and_short_series(self):
        ser = AutocorrSeries(times=np.array([0.0, 1.0]),
                             values=np.array([1.0 + 0j, 0.5 + 0j]))
        with pytest.raises(ValueError):
            detect_revivals(ser, -0.5)
        with pytest.raises(ValueError):
            detect_revivals(ser, 0.5)


def assert_frozen_view(field, own):
    """A result container's field is a read-only view of the caller's array,
    which stays writeable."""
    assert np.shares_memory(field, own)
    with pytest.raises(ValueError, match="read-only"):
        field[0] = 0.0
    own[0] = 2.0


class TestFrozenFields:
    def test_autocorr_series(self):
        times, values = np.array([0.0, 1.0]), np.array([1.0 + 0j, 0.5 + 0j])
        ser = AutocorrSeries(times=times, values=values)
        assert_frozen_view(ser.times, times)
        assert_frozen_view(ser.values, values)

    def test_phase_space_grid(self):
        x = np.linspace(-1.0, 1.0, 3)
        q = np.ones((3, 3))
        grid = PhaseSpaceGrid(x=x, y=x, values=q)
        assert_frozen_view(grid.x, x)
        assert_frozen_view(grid.y, x)
        assert_frozen_view(grid.values, q)


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

    @staticmethod
    def log_space_reference(grid, state):
        gamma = grid.x[None, :] + 1j * grid.y[:, None]
        return np.abs(coherent_amplitudes(gamma, state.n_trunc)
                      @ state.amplitudes.conj()) ** 2 / math.pi

    def test_horner_matches_log_space_overlap_on_fig2_state(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 8.0)
        st = evolved_state(sol, 2.0, 66)
        g = husimi_grid(st, (-8, 8), (-8, 8), 101)
        assert np.abs(g.values - self.log_space_reference(g, st)).max() < 1e-14

    @pytest.mark.parametrize("alpha", [30.0, 25 + 10j])
    def test_horner_rescaling_stays_finite_at_large_amplitude(self, alpha):
        # grid corners reach |gamma|^2 ~ 2400, where e^{|gamma|^2/2} overflows
        st = coherent_state(alpha)
        hw = abs(alpha) + 5.0
        g = husimi_grid(st, (-hw, hw), (-hw, hw), 61)
        assert np.all(np.isfinite(g.values)) and g.values.min() >= 0.0
        assert g.values.max() > 0.1
        assert np.abs(g.values - self.log_space_reference(g, st)).max() < 1e-12

    def test_horner_rescaling_keeps_low_levels_of_a_two_level_state(self):
        # weight on a middle and a high level: cells rescaled by the high
        # level must still add the low one, scaled alike, where Q ~ 5e-3
        amps = np.zeros(1201, dtype=complex)
        amps[180] = amps[1200] = 1.0 / math.sqrt(2.0)
        st = FockState(amps, normalized=True)
        g = husimi_grid(st, (-35, 35), (-35, 35), 61)
        assert np.all(np.isfinite(g.values)) and g.values.max() > 1e-3
        assert np.abs(g.values - self.log_space_reference(g, st)).max() < 1e-12

    def test_peak_between_two_cells_counts_once(self):
        # a Gaussian centred midway between the columns x = 0 and x = 0.4,
        # with the tie its symmetry implies made exact
        x = np.linspace(-2.0, 2.0, 11)
        xx, yy = np.meshgrid(x, x)
        q = np.exp(-(xx - 0.2) ** 2 - yy ** 2)
        q[5, 6] = q[5, 5]
        peaks = find_grid_peaks(PhaseSpaceGrid(x=x, y=x, values=q.copy()))
        assert [(px, py) for px, py, _ in peaks] == [(0.0, 0.0)]
        q[5, 6] = np.nextafter(q[5, 5], 1.0)
        peaks = find_grid_peaks(PhaseSpaceGrid(x=x, y=x, values=q.copy()))
        assert [(px, py) for px, py, _ in peaks] == [(x[6], 0.0)]

    def test_closed_form_matches_generic_overlap(self):
        # factorized-evolution closed form against the generic |<gamma|psi>|^2
        p = fig2_params(0.25, alpha=2.0)
        sol = integrate_wei_norman(p, 8.0)
        n_trunc = 70
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = float(rng.uniform(0.1, 8.0))
            gam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            st = evolved_state(sol, t, n_trunc)
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
        assert abs(np.sum(g.values * ones) * g.cell_area - 1.0) < 1e-3

    def test_antinormal_second_moment(self):
        alpha = 1.5
        st = coherent_state(alpha, 40)
        g = husimi_grid(st, (-6.5, 6.5), (-6.5, 6.5), 201)
        xx, yy = np.meshgrid(g.x, g.y)
        gam = xx + 1j * yy
        val = np.sum(g.values * gam * np.conj(gam)) * g.cell_area
        assert abs(val - (alpha ** 2 + 1.0)) < 1e-2

    def test_first_moment_on_vacuum_vanishes(self):
        st = coherent_state(0.0, 20)
        g = husimi_grid(st, (-5, 5), (-5, 5), 161)
        xx, yy = np.meshgrid(g.x, g.y)
        assert abs(np.sum(g.values * (xx + 1j * yy)) * g.cell_area) < 1e-10


class TestHusimiSnapshot:
    def test_snapshot_covers_state_on_the_default_window(self):
        p = fig2_params(0.25)
        sol = integrate_wei_norman(p, 2.0)
        g = husimi_snapshot(sol, 1.0, resolution=101)
        # the default window is |alpha| + 5 on each side
        assert g.x[0] == -(abs(p.alpha) + 5.0)
        assert abs(g.total_mass() - 1.0) < 1e-3
