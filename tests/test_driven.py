import math

import numpy as np
import pytest

from kerrosc.driven import (
    DriveSpec,
    FrequencySpec,
    displaced_number_state,
    displacement_amplitude,
    eigenfunction,
    energy_level,
    hamiltonian_matrix,
    hermite_functions,
)
from kerrosc.fock import (
    BOUNDARY_POPULATION,
    TruncationError,
    coherent_state,
    displacement_operator,
    inner,
    number_state,
)


class TestSpecs:
    def test_cosine_drive(self):
        d = DriveSpec.cosine(2.0, 1.5)
        assert d(0.0) == 2.0
        assert d(math.pi / 3.0) == pytest.approx(2.0 * math.cos(0.5 * math.pi))

    @pytest.mark.parametrize("make, name", [
        (lambda: DriveSpec.cosine(math.nan, 1.0), "drive amplitude"),
        (lambda: DriveSpec.cosine(1.0, math.inf), "drive frequency"),
        (lambda: DriveSpec.constant(math.nan), "drive value"),
        (lambda: FrequencySpec(math.nan), "omega0"),
        # built directly, a spec runs the same checks
        pytest.param(lambda: DriveSpec(kind="cosine", amplitude=math.nan,
                                       frequency=1.0),
                     "drive amplitude", id="direct-drive-amplitude"),
        pytest.param(lambda: DriveSpec(kind="cosine", amplitude=1.0,
                                       frequency=-math.inf),
                     "drive frequency", id="direct-drive-frequency"),
        pytest.param(lambda: DriveSpec(kind="constant", value=math.nan),
                     "drive value", id="direct-drive-value"),
    ])
    def test_non_finite_parameter_refused(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            make()

    def test_tabulated_drive_window_enforced(self):
        d = DriveSpec.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="window"):
            d(2.5)

    def test_frequency_modulation(self):
        f = FrequencySpec(2.0, 0.2)
        assert float(f(0.0)) == pytest.approx(2.0 * 1.4)
        assert np.all(np.asarray(f(np.linspace(0, 10, 101))) > 0)

    def test_frequency_k_bound(self):
        with pytest.raises(ValueError):
            FrequencySpec(1.0, 0.5)
        with pytest.raises(ValueError):
            FrequencySpec(-1.0, 0.0)


class TestDisplacementAmplitude:
    def test_zero_drive(self):
        lam = displacement_amplitude(DriveSpec.zero(), FrequencySpec(1.0), 3.0)
        assert lam == 0.0

    def test_unit_drive_unit_frequency(self):
        lam = displacement_amplitude(DriveSpec.constant(1.0),
                                     FrequencySpec(1.0), 0.0)
        assert abs(lam - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_cosine_drive_at_t0(self):
        lam = displacement_amplitude(DriveSpec.cosine(1.0, 1.0),
                                     FrequencySpec(1.0), 0.0)
        assert abs(lam - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_supports_modulated_frequency(self):
        lam = displacement_amplitude(DriveSpec.constant(1.0),
                                     FrequencySpec(1.0, 0.3), 0.7)
        om = float(FrequencySpec(1.0, 0.3)(0.7))
        assert lam == pytest.approx(1.0 / (om * math.sqrt(2 * om)))


class TestEnergyLevel:
    def test_free_limit(self):
        f = FrequencySpec(1.4)
        assert energy_level(2, DriveSpec.zero(), f, 0.0) == pytest.approx(3.5)

    def test_ground_level_crosses_zero(self):
        # lambda^2 = 1/2 cancels the zero-point energy
        e = energy_level(0, DriveSpec.constant(1.0), FrequencySpec(1.0), 0.0)
        assert abs(e) < 1e-14

    def test_level_two_no_drive(self):
        assert energy_level(2, DriveSpec.zero(), FrequencySpec(2.0), 0.0) == 5.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            energy_level(-1, DriveSpec.zero(), FrequencySpec(1.0), 0.0)


class TestEigenfunctions:
    def test_free_ground_state_gaussian(self):
        q = np.linspace(-3, 3, 7)
        psi = eigenfunction(0, q, DriveSpec.zero(), FrequencySpec(1.0), 0.0)
        np.testing.assert_allclose(
            psi, math.pi ** -0.25 * np.exp(-0.5 * q ** 2), atol=1e-14)

    def test_quadrature_norms(self):
        q = np.linspace(-14, 14, 4001)
        drive, freq = DriveSpec.constant(0.8), FrequencySpec(1.3)
        for n in range(6):
            psi = eigenfunction(n, q, drive, freq, 0.0)
            assert abs(np.trapezoid(psi ** 2, q) - 1.0) < 1e-8

    def test_ground_state_peaks_at_displaced_minimum(self):
        # the drive +e(t)q pushes the potential minimum to -lambda sqrt(2/Omega)
        drive, freq = DriveSpec.constant(1.0), FrequencySpec(1.0)
        lam = displacement_amplitude(drive, freq, 0.0)
        q = np.linspace(-4, 4, 8001)
        psi = eigenfunction(0, q, drive, freq, 0.0)
        q_peak = q[np.argmax(psi ** 2)]
        assert abs(q_peak - (-lam * math.sqrt(2.0))) < 2e-3

    def test_hermite_recurrence_matches_scipy(self):
        from scipy.special import eval_hermite
        z = np.linspace(-2.0, 2.0, 9)
        out = hermite_functions(6, z)
        for n in (0, 3, 6):
            ref = (eval_hermite(n, z) * np.exp(-0.5 * z * z)
                   / math.sqrt(2.0 ** n * math.factorial(n))
                   * math.pi ** -0.25)
            np.testing.assert_allclose(out[n], ref, atol=1e-12)

    def test_hermite_order_cap(self):
        with pytest.raises(ValueError):
            hermite_functions(201, np.array([0.0]))


class TestDisplacedNumberState:
    def test_zero_displacement_identity(self):
        s = displaced_number_state(3, 0.0, 20)
        np.testing.assert_allclose(s.amplitudes,
                                   number_state(3, 20).amplitudes, atol=1e-14)

    def test_ground_state_becomes_negative_coherent(self):
        lam = 0.5
        s = displaced_number_state(0, lam, 40)
        target = coherent_state(-lam, 40)
        assert abs(abs(inner(target, s)) - 1.0) < 1e-10

    def test_orthonormal_family(self):
        lam, n_trunc = 0.7, 50
        states = [displaced_number_state(n, lam, n_trunc) for n in range(6)]
        for i in range(6):
            for j in range(6):
                expected = 1.0 if i == j else 0.0
                assert abs(inner(states[i], states[j]) - expected) < 1e-9

    def test_truncation_loss_detected(self):
        with pytest.raises(TruncationError):
            displaced_number_state(0, 4.0, 8)

    def test_boundary_population_bound(self):
        # D^dag(1)|0> puts 8.83e-10 on the top of 13 levels, over
        # BOUNDARY_POPULATION, and 6.7e-11 on the top of 14
        with pytest.raises(TruncationError, match="top-level population"):
            displaced_number_state(0, 1.0, 13)
        top = displaced_number_state(0, 1.0, 14).occupations()[-1]
        assert 6e-11 < top <= BOUNDARY_POPULATION


class TestEigenstructure:
    def test_eigen_residual(self):
        n_trunc = 60
        drive, freq = DriveSpec.constant(0.7), FrequencySpec(1.3, 0.1)
        t = 0.4
        h = hamiltonian_matrix(drive, freq, t, n_trunc).matrix
        lam = displacement_amplitude(drive, freq, t)
        for n in range(6):
            state = displaced_number_state(n, lam, n_trunc)
            e_n = energy_level(n, drive, freq, t)
            resid = np.linalg.norm(h @ state.amplitudes - e_n * state.amplitudes)
            assert resid <= 1e-6

    def test_similarity_transformation_shift(self):
        # <psi| D^dag H0 D |psi> - <psi| H_f |psi> = Omega lambda^2
        n_trunc = 60
        drive, freq = DriveSpec.constant(0.7), FrequencySpec(1.3, 0.1)
        t = 0.4
        om = float(freq(t))
        lam = displacement_amplitude(drive, freq, t)
        n_diag = np.diag(np.arange(n_trunc, dtype=complex))
        h0 = om * (n_diag + 0.5 * np.eye(n_trunc))
        hf = hamiltonian_matrix(drive, freq, t, n_trunc).matrix
        d = displacement_operator(lam, n_trunc).matrix
        gap = d.conj().T @ h0 @ d - hf
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.normal(size=40) + 1j * rng.normal(size=40)
            psi = np.zeros(n_trunc, dtype=complex)
            psi[:40] = v / np.linalg.norm(v)
            val = np.vdot(psi, gap @ psi)
            assert abs(val - om * lam ** 2) < 1e-8

    def test_position_and_fock_pictures_agree(self):
        n_trunc = 60
        drive, freq = DriveSpec.constant(0.7), FrequencySpec(1.3)
        t, n = 0.0, 3
        om = float(freq(t))
        lam = displacement_amplitude(drive, freq, t)
        q = np.linspace(-12, 12, 4001)
        direct = eigenfunction(n, q, drive, freq, t)
        state = displaced_number_state(n, lam, n_trunc)
        basis = om ** 0.25 * hermite_functions(n_trunc - 1, math.sqrt(om) * q)
        synthesized = (state.amplitudes[:, None] * basis).sum(axis=0)
        overlap = abs(np.trapezoid(np.conj(synthesized) * direct, q))
        assert overlap >= 1.0 - 1e-6
