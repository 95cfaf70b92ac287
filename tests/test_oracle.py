import logging
import math
import re
import time

import numpy as np
import pytest

from kerrosc.driven import DriveSpec
from kerrosc.evolution import ModelParams, evolved_state, integrate_wei_norman
from kerrosc.fock import FockState, coherent_state, number_state
from kerrosc.integrators import StepSizeError
from kerrosc.oracle import (
    OracleError,
    fidelity,
    integrate_exact,
    integrate_schrodinger,
)


class TestIntegrateExact:
    def test_zero_drive_number_state_acquires_phase_only(self):
        p = ModelParams(omega0=1.0, chi=0.3, drive=DriveSpec.zero())
        n = 4
        psi0 = number_state(n, 20)
        t = 2.7
        run = integrate_exact(p, psi0, t, tol=1e-10,
                              sample_times=np.array([t]))
        expected = np.zeros(20, dtype=complex)
        expected[n] = np.exp(-1j * (1.0 * (n + 0.5) + 0.3 * n ** 2) * t)
        assert np.abs(run.states[-1] - expected).max() < 1e-10

    def test_kerr_free_driven_case_matches_factorized_branch(self):
        p = ModelParams(omega0=1.0, chi=0.0,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        t_end = 2 * math.pi
        sol = integrate_wei_norman(p, t_end, tol=1e-10)
        n_trunc = 60
        run = integrate_exact(p, coherent_state(1.0, n_trunc), t_end,
                              tol=1e-10, sample_times=np.array([t_end]))
        wn = evolved_state(p, sol, t_end, n_trunc)
        assert fidelity(run.state_at(-1), wn) >= 1.0 - 1e-7

    def test_energy_conserved_without_drive(self):
        p = ModelParams(omega0=1.0, chi=0.2, drive=DriveSpec.zero())
        psi0 = coherent_state(1.2, 40)
        ts = np.linspace(0.0, 5.0, 11)
        run = integrate_exact(p, psi0, 5.0, tol=1e-10, sample_times=ts)
        n = np.arange(40)
        h0 = 1.0 * (n + 0.5) + 0.2 * n.astype(float) ** 2
        energies = [float(np.dot(h0, np.abs(s) ** 2)) for s in run.states]
        assert max(energies) - min(energies) < 1e-9

    def test_norm_drift_within_bound(self):
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        run = integrate_exact(p, coherent_state(1.0, 50), 10.0, tol=1e-10)
        assert run.norm_drift.max() <= 1e-8

    def test_rejects_initial_state_near_boundary(self):
        p = ModelParams(omega0=1.0, chi=0.0, drive=DriveSpec.zero())
        with pytest.raises(OracleError, match="boundary"):
            integrate_exact(p, number_state(18, 20), 1.0)

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 8 * math.pi, 2001),
        np.array([0.0, 1.0, 2.0 - 1e-13, 2.0]),
        np.array([0.0, 0.5, 0.5, 1.25, 1.25, 2.0]),
    ], ids=["linspace-8pi", "sliver-before-end", "duplicates"])
    def test_lands_on_awkward_sample_grids(self, times):
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        psi0 = coherent_state(1.0, 40)
        t_end = float(times[-1])
        run = integrate_exact(p, psi0, t_end, tol=1e-10, sample_times=times)
        assert np.array_equal(run.times, times)
        assert run.accepted_steps >= np.count_nonzero(np.diff(times))
        # each sample is the state at its own time: restarting the run from
        # zero with that time as the only sample lands on the same state
        for i in (1, -2, -1):
            alone = integrate_exact(p, psi0, float(times[i]), tol=1e-10,
                                    sample_times=times[[i]])
            assert 1.0 - fidelity(run.state_at(i), alone.state_at(0)) < 1e-12
        for i in np.flatnonzero(np.diff(times) == 0.0):
            assert np.array_equal(run.states[i], run.states[i + 1])

    def test_budget_under_rounding_floor_refused(self):
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        with pytest.raises(StepSizeError, match="underflow"):
            integrate_exact(p, coherent_state(1.0, 30), 0.5, tol=1e-16,
                            sample_times=np.array([0.5]))

    def test_step_telemetry_reported(self, caplog):
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            run = integrate_exact(p, coherent_state(1.0, 40), 3.0, tol=1e-9,
                                  sample_times=np.array([3.0]))
        assert run.accepted_steps > 0 and run.rejected_steps >= 0
        assert run.budget == 1e-9
        assert (f"{run.accepted_steps} accepted, {run.rejected_steps} "
                "rejected steps") in caplog.text
        assert "peak norm drift" in caplog.text
        assert "peak boundary population" in caplog.text

    def test_rejects_unsorted_sample_times(self):
        p = ModelParams(omega0=1.0, chi=0.0, drive=DriveSpec.zero())
        with pytest.raises(ValueError, match="sorted"):
            integrate_exact(p, coherent_state(1.0, 30), 1.0,
                            sample_times=np.array([0.5, 0.2]))

    def test_rejects_unnormalized_state(self):
        p = ModelParams(omega0=1.0, chi=0.0, drive=DriveSpec.zero())
        bad = FockState(np.ones(20) * 0.1)
        with pytest.raises(ValueError, match="normalized"):
            integrate_exact(p, bad, 1.0)


class TestFidelity:
    def test_self_fidelity(self):
        s = coherent_state(1.1 + 0.3j, 30)
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal_number_states(self):
        assert fidelity(number_state(2, 10), number_state(5, 10)) == 0.0

    def test_coherent_overlap_formula(self):
        # |<alpha|beta>|^2 = exp(-|alpha - beta|^2), evaluated independently
        a, b = 1.0, 1.5
        expected = math.exp(-abs(a - b) ** 2)
        got = fidelity(coherent_state(a, 50), coherent_state(b, 50))
        assert abs(got - expected) < 1e-12
        assert abs(got - math.exp(-0.25)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(number_state(0, 5), number_state(0, 6))


class TestConvergenceOrder:
    def test_tolerance_halving_improves_deficit_by_4x(self):
        p = ModelParams(omega0=1.0, chi=0.2,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        t_end = 6.0
        psi0 = coherent_state(1.0, 60)
        ref = FockState(integrate_exact(
            p, psi0, t_end, tol=1e-8,
            sample_times=np.array([t_end])).states[-1])
        deficits = []
        for tol in (4e-4, 2e-4):
            run = integrate_exact(p, psi0, t_end, tol=tol,
                                  sample_times=np.array([t_end]))
            deficits.append(1.0 - fidelity(ref, FockState(run.states[-1])))
        assert deficits[0] / deficits[1] >= 4.0


class TestIntegrateSchrodinger:
    def test_constant_hamiltonian_matches_expm(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(8)
        n = 12
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = m + m.conj().T

        psi0 = coherent_state(0.7, n)
        t = 0.9
        out = integrate_schrodinger(lambda s: h, psi0, t, tol=1e-10)[-1]
        expected = expm(-1j * h * t) @ psi0.amplitudes
        assert np.abs(out - expected).max() < 1e-8


class TestSchrodingerPropagator:
    def test_agrees_with_the_exact_oracle_on_the_kerr_hamiltonian(self):
        # the dense Kerr H(t) = H0 + e(t) V of the fig. 2 drive, on the two
        # independent propagators
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        n = 40
        levels = np.arange(n)
        h0 = np.diag(levels + 0.5 + 0.25 * levels.astype(float) ** 2)
        ladder = np.sqrt(np.arange(1, n))
        v = (np.diag(ladder, 1) + np.diag(ladder, -1)) / math.sqrt(2.0)
        psi0 = coherent_state(1.0, n)
        ts = np.linspace(0.0, 2.0, 21)
        got = integrate_schrodinger(lambda t: h0 + p.drive(t) * v, psi0, 2.0,
                                    tol=1e-10, sample_times=ts)
        ref = integrate_exact(p, psi0, 2.0, tol=1e-10, sample_times=ts)
        assert got.shape == ref.states.shape
        assert np.abs(got - ref.states).max() < 1e-9

    def test_budget_under_rounding_floor_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(StepSizeError, match="underflow"):
            integrate_schrodinger(
                lambda t: np.array([[1.0, 0.3 * t], [0.3 * t, -1.0]]),
                number_state(0, 2), 2.0, tol=1e-16)
        assert time.perf_counter() - start < 0.5

    def test_non_hermitian_hamiltonian_refused(self):
        h = np.array([[1.0, 0.5], [0.0, -1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            integrate_schrodinger(lambda t: h, number_state(0, 2), 1.0)

    @staticmethod
    def accepted_steps(caplog, tol):
        """Accepted steps of a run on a 2x2 H(t) whose terms do not commute,
        read from its telemetry line."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            integrate_schrodinger(
                lambda t: np.array([[1.0, 0.5 * math.cos(t)],
                                    [0.5 * math.cos(t), -1.0]]),
                number_state(0, 2), 5.0, tol=tol)
        records = [r for r in caplog.records
                   if r.getMessage().startswith("integrate_schrodinger")]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        found = re.search(r"(\d+) accepted, \d+ rejected steps, budget "
                          f"{tol:g} per unit step", records[0].getMessage())
        assert found
        return int(found.group(1))

    def test_step_telemetry_reported(self, caplog):
        assert self.accepted_steps(caplog, 1e-9) > 0

    def test_step_is_fourth_order(self, caplog):
        # a budget of tol per unit step and a local error ~ h**5 give
        # h ~ tol**(1/4): a 256-fold smaller tol takes about 4x the steps
        # (measured 3.8), a 2nd-order step would take 16x
        ratio = self.accepted_steps(caplog, 1e-8 / 256) \
            / self.accepted_steps(caplog, 1e-8)
        assert 3.0 <= ratio <= 5.0
