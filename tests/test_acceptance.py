"""Acceptance gate: end-to-end checks at their stated tolerances.

Each check prints one `ACCEPTANCE <id>: PASS|FAIL` line (run with -s to see
them all).  Three checks (2c, 3c, 6b) assert literature-level expectations
that the exact reference integrator refutes; they are implemented as stated
and fail honestly.  The measured values are in the assertion messages.
"""

import math

import numpy as np
import pytest

from kerrosc.driven import DriveSpec, FrequencySpec, hermite_functions
from kerrosc.evolution import (ModelParams, _evolved_amplitudes, evolved_state,
                               integrate_wei_norman)
from kerrosc.fock import (
    FockState,
    coherent_state,
    default_truncation,
    momentum_operator,
    position_operator,
)
from kerrosc.kerr_states import (KerrStateParams, kerr_state, mandel_q,
                                 mandel_q_state, quadrature_variance_ratios)
from kerrosc.observables import (
    autocorrelation,
    autocorrelation_series,
    detect_revivals,
    find_grid_peaks,
    husimi_grid,
    husimi_snapshot,
)
from kerrosc.oracle import fidelity, integrate_exact, integrate_schrodinger
from kerrosc.timemap import MassSpec, evolve_via_timemap, heisenberg_coefficients, physical_time

from test_kerr_states import fock_variance_ratios


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status}{' — ' + detail if detail else ''}")
    return ok


def fig2_params(chi, alpha=3.0):
    return ModelParams(omega0=1.0, chi=chi,
                       drive=DriveSpec.cosine(1.0, 1.0), alpha=alpha)


@pytest.fixture(scope="module")
def fig2_solution():
    return integrate_wei_norman(fig2_params(0.25), 8 * math.pi)


@pytest.fixture(scope="module")
def kerr_free_solution():
    return integrate_wei_norman(fig2_params(0.0), 8 * math.pi)


@pytest.fixture(scope="module")
def fig2_exact(fig2_solution):
    """(times, run): the one oracle run of the fig. 2 model, on 801 samples
    over t <= 8pi, every tenth point of fig2_solution's grid, on 66 levels
    at tol 1e-10.  Sample k is at t = k pi / 100."""
    n_trunc = default_truncation(
        float(np.abs(fig2_solution.eta).max())) + 10
    psi0 = coherent_state(3.0, n_trunc)
    times = np.linspace(0.0, 8 * math.pi, 801)
    return times, integrate_exact(fig2_params(0.25), psi0, times[-1],
                                  tol=1e-10, sample_times=times)


@pytest.fixture(scope="module")
def fig2_fidelity(fig2_solution, fig2_exact):
    """(times, fidelities) of the factorized state against fig2_exact."""
    times, run = fig2_exact
    n_trunc = run.states.shape[1]
    return times, np.array([
        fidelity(run.state_at(i), evolved_state(fig2_solution, t, n_trunc))
        for i, t in enumerate(times.tolist())])


def least_fidelity(chi, alpha, nu):
    """Least fidelity over t <= 8pi of the factorized state against the
    exact route (tol 1e-10) on the branch's 201 samples, for the drive
    cos(nu t) at Omega0 = 1, on default_truncation(max |eta|) + 10 levels."""
    p = ModelParams(omega0=1.0, chi=chi, drive=DriveSpec.cosine(1.0, nu),
                    alpha=alpha)
    sol = integrate_wei_norman(p, 8 * math.pi, samples=201)
    n_trunc = default_truncation(float(np.abs(sol.eta).max())) + 10
    run = integrate_exact(p, coherent_state(alpha, n_trunc), 8 * math.pi,
                          tol=1e-10, sample_times=sol.times)
    branch = _evolved_amplitudes(sol, sol.times, n_trunc)
    overlaps = (run.states.conj() * branch).sum(axis=1)
    return float((np.abs(overlaps) ** 2
                  / np.linalg.norm(branch, axis=1) ** 2).min())


def gauss_sum_components(state, beta, L):
    """Least-squares coefficients of `state` on the L coherent states
    |beta e^{-2 pi i k / L}>, and the state's weight in their span."""
    comps = np.stack([coherent_state(beta * np.exp(-2j * math.pi * k / L),
                                     state.n_trunc).amplitudes
                      for k in range(L)], axis=1)
    coeffs = np.linalg.lstsq(comps, state.amplitudes, rcond=None)[0]
    return coeffs, float(np.linalg.norm(comps @ coeffs) ** 2)


class TestCriterion1MandelQ:
    def test_mandel_q_vanishes_for_50_random_kerr_states(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            beta = rng.uniform(0.05, 2.0) * np.exp(2j * math.pi * rng.uniform())
            xi = rng.uniform(0.0, 2 * math.pi)
            q = mandel_q(KerrStateParams(beta, xi), 60).q
            worst = max(worst, abs(q))
        assert report("1", worst < 1e-9, f"max |Q| = {worst:.2e}")

    def test_1b_exact_route_mandel_q_reported(self, fig2_exact):
        # Every factorized state is a Kerr-phased coherent state, Q = 0; the
        # exact fig. 2 state is not.  Reported, and pinned: the oracle at tol
        # 1e-10 moves Q by 4.9e-14 against tol 1e-12, so 1e-12 holds it.
        times, run = fig2_exact
        qs = np.array([mandel_q_state(run.state_at(i)).q
                       for i in range(times.size)])
        k = int(np.argmax(np.abs(qs)))
        report("1b", True, f"exact-route max |Mandel Q| over t <= 8pi "
                           f"(chi=0.25, alpha=3): Q = {qs[k]:.6f} at "
                           f"t = {times[k]:.4f}")
        assert k == 24
        assert qs[k] == pytest.approx(-0.332518783266, abs=1e-12)


class TestCriterion2Variances:
    def test_2a_closed_form_agrees_with_fock_moments(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            beta = rng.uniform(0.1, 2.0) * np.exp(2j * math.pi * rng.uniform())
            xi = rng.uniform(0.0, 2 * math.pi)
            closed = quadrature_variance_ratios(KerrStateParams(beta, xi))
            direct = fock_variance_ratios(beta, xi)
            worst = max(worst, abs(closed[0] - direct[0]),
                        abs(closed[1] - direct[1]))
        assert report("2a", worst < 1e-8, f"max |closed - moments| = {worst:.2e}")

    def test_2b_position_squeezing_occurs(self):
        xis = np.linspace(1e-4, math.pi - 1e-4, 4001)
        min_q = min(quadrature_variance_ratios(KerrStateParams(0.5, x))[0]
                    for x in xis)
        assert report("2b", min_q < 1.0, f"min position ratio = {min_q:.6f}")

    def test_2c_momentum_never_squeezed_as_stated(self):
        # The exact Fock moments (which 2a pins to the closed form) show the
        # momentum ratio dipping to ~0.795 near xi = pi/2: the small-beta
        # two-component superposition formed there is momentum-squeezed.
        xis = np.linspace(1e-4, math.pi - 1e-4, 4001)
        min_p = min(quadrature_variance_ratios(KerrStateParams(0.5, x))[1]
                    for x in xis)
        ok = report("2c", min_p >= 1.0 - 1e-9,
                    f"min momentum ratio = {min_p:.6f}")
        assert ok, (f"momentum ratio drops to {min_p:.6f} < 1 near xi = pi/2 "
                    "(verified against direct Fock-space moments)")

    def test_2d_exact_route_gives_kerr_states_and_their_variances(self):
        # At zero drive H = Omega0 (n + 1/2) + chi n^2, so the oracle's state
        # is kerr_state(beta e^{-i Omega0 t}, chi t) up to a global phase.
        # Measured over xi = chi t in [0, pi]: 1 - F <= 4.4e-16 (bound 1e-14,
        # 22x headroom) and, with the free rotation undone, ratios within
        # 1.8e-13 of the closed form (bound 1e-11, 54x headroom).
        beta, chi, n_trunc = 0.5, 0.25, 40
        p = ModelParams(omega0=1.0, chi=chi, drive=DriveSpec.zero())
        xis = np.linspace(0.0, math.pi, 401)
        times = xis / chi
        run = integrate_exact(p, coherent_state(beta, n_trunc), times[-1],
                              sample_times=times)
        deficit = max(1.0 - fidelity(run.state_at(i), kerr_state(
            KerrStateParams(beta * np.exp(-1j * t), chi * t), n_trunc))
            for i, t in enumerate(times.tolist()))
        psi = run.states * np.exp(1j * np.outer(times, np.arange(n_trunc)))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)

        def ratio(op):  # vacuum variance 1/2
            mean = np.einsum("ti,ij,tj->t", psi.conj(), op, psi).real
            square = np.einsum("ti,ij,tj->t", psi.conj(), op @ op, psi).real
            return np.sqrt((square - mean ** 2) / 0.5)

        exact = (ratio(position_operator(n_trunc).matrix),
                 ratio(momentum_operator(n_trunc).matrix))
        closed = quadrature_variance_ratios(KerrStateParams(beta, xis))
        worst = max(np.abs(e - c).max() for e, c in zip(exact, closed))
        k = int(np.argmin(exact[1]))
        ok = report("2d", deficit < 1e-14 and worst < 1e-11,
                    f"max 1 - F = {deficit:.1e}, max |ratio - closed| = "
                    f"{worst:.1e}; exact-route min momentum ratio = "
                    f"{exact[1][k]:.6f} at xi = {xis[k]:.6f} (2c's value)")
        assert ok


class TestCriterion3Revivals:
    def test_3a_exact_wrap_revival_without_drive(self):
        worst = 0.0
        for omega0 in (1.0, 1.3):
            p = ModelParams(omega0=omega0, chi=0.25, drive=DriveSpec.zero(),
                            alpha=3.0)
            t = 2 * math.pi / 0.25
            sol = integrate_wei_norman(p, t)
            f = abs(autocorrelation(sol, t))
            expected = math.exp(-9.0 * (1 - math.cos(omega0 * t)))
            worst = max(worst, abs(f - expected))
        assert report("3a", worst < 1e-10, f"max wrap error = {worst:.2e}")

    def test_3b_revival_period_scales_inversely_with_kerr(self):
        dt = 0.01
        ok = True
        details = []
        for chi in (0.25, 0.5, 1.0):
            p = fig2_params(chi)
            t_rev = 2 * math.pi / chi
            sol = integrate_wei_norman(p, 1.1 * t_rev)
            times = np.arange(0.0, 1.1 * t_rev, dt)
            series = autocorrelation_series(sol, times)
            revivals = detect_revivals(series, 0.5)
            gap = np.abs(revivals - t_rev).min() if revivals.size else np.inf
            details.append(f"chi={chi}: |t - 2pi/chi| = {gap:.3f}")
            ok &= gap <= dt + 1e-9
        assert report("3b", ok, "; ".join(details))

    def test_3c_no_revival_above_half_without_kerr(self, kerr_free_solution):
        # The resonantly driven oscillator passes near its initial
        # phase-space point once more around t ~ 5.74 with |F|^2 ~ 0.68
        # (confirmed by direct integration) before drifting away for good.
        times = np.arange(0.0, 8 * math.pi, 0.01)
        series = autocorrelation_series(kerr_free_solution, times)
        window = times > 2.0
        revivals = detect_revivals(series, 0.5)
        revivals = revivals[revivals > 2.0]
        peak = series.abs_squared[window].max()
        ok = report("3c", revivals.size == 0,
                    f"max |F|^2 in (2, 8pi] = {peak:.4f}")
        assert ok, (f"|F|^2 reaches {peak:.4f} > 0.5 at t = "
                    f"{times[window][series.abs_squared[window].argmax()]:.2f} "
                    "(confirmed by the exact integrator)")


class TestCriterion4Husimi:
    def test_snapshot_peak_structure(self, fig2_solution):
        expected_counts = {0.0: 1, math.pi: 4, 2 * math.pi: 2, 8 * math.pi: 1}
        ok = True
        details = []
        for tau, count in expected_counts.items():
            grid = husimi_snapshot(fig2_solution, tau, resolution=201)
            peaks = find_grid_peaks(grid, 0.2)
            mass = grid.total_mass()
            ok &= len(peaks) == count and abs(mass - 1.0) < 1e-3
            details.append(f"tau={tau:.2f}: {len(peaks)} peaks, mass={mass:.4f}")
            if tau == 8 * math.pi:
                expected_pos = np.exp(-1j * tau) * fig2_solution.eta_at(tau)
                top = complex(peaks[0][0], peaks[0][1])
                ok &= abs(top - expected_pos) < 0.2
                details.append(f"revived peak offset = {abs(top - expected_pos):.3f}")
        assert report("4", ok, "; ".join(details))

    @pytest.mark.parametrize("index, L, weights, span, fid, offsets", [
        (100, 4, [0.245152185073, 0.246320839159, 0.241515480997,
                  0.245798174667], 0.978808210742, 0.704341890495,
         [0.0, -0.254175692500, 0.000187480910, 0.254480197279]),
        (200, 2, [0.490367720444, 0.483250932040], 0.973618652480,
         0.973605171554, [0.0, 0.000444898269]),
    ])
    def test_4b_fractional_revival_components(
            self, fig2_solution, fig2_exact, fig2_fidelity,
            index, L, weights, span, fid, offsets):
        # At xi = chi t = pi/4 (tau = pi) and pi/2 (tau = 2pi) the branch is
        # a Gauss sum of L coherent states |beta e^{-2 pi i k/L}>, with
        # beta = e^{-i Omega0 t} eta_t (Yurke & Stoler, PRL 57, 13 (1986)).
        # The exact state's least-squares coefficients on the same L states
        # give its weights, its fraction in their span, and its phase
        # offsets from the branch's coefficients, relative to component 0.
        # Pinned: the oracle at tol 1e-10 moves each value by at most
        # 3.5e-13 against tol 1e-12, so 1e-11 holds them.
        times, run = fig2_exact
        t = times[index]
        beta = np.exp(-1j * fig2_solution.params.omega0 * t) \
            * fig2_solution.eta_at(t)
        exact, in_span = gauss_sum_components(run.state_at(index), beta, L)
        branch, _ = gauss_sum_components(
            evolved_state(fig2_solution, t, run.states.shape[1]), beta, L)
        shift = exact / branch
        offset = np.angle(shift / shift[0]) / math.pi
        weight = np.abs(exact) ** 2
        report("4b", True, f"tau = {t:.4f}: exact weights "
                           f"{weight.min():.4f}-{weight.max():.4f}, "
                           f"in the span {in_span:.4f}, fidelity "
                           f"{fig2_fidelity[1][index]:.3f}, phase offsets "
                           f"from the branch {np.round(offset, 4).tolist()} pi")
        np.testing.assert_allclose(weight, weights, rtol=0, atol=1e-11)
        assert in_span == pytest.approx(span, abs=1e-11)
        assert fig2_fidelity[1][index] == pytest.approx(fid, abs=1e-11)
        np.testing.assert_allclose(offset, offsets, rtol=0, atol=1e-11)

    def test_4c_husimi_snapshots_against_the_exact_state(self, fig2_solution,
                                                          fig2_exact):
        # The times of scenarios/husimi_snapshots.yaml, tau = 0, pi/4, pi,
        # 2pi, 4pi and 8pi, on husimi_snapshot's default window (half-width
        # |alpha| + 5 = 8, 201 points per axis).  Pinned: the oracle at tol
        # 1e-10 moves max |dQ| / max Q by at most 4.6e-12 against tol 1e-12,
        # so 1e-10 holds it.
        times, run = fig2_exact
        window = (-8.0, 8.0)
        counts, distances = [], []
        for i in (0, 25, 100, 200, 400, 800):
            exact = husimi_grid(run.state_at(i), window, window, 201)
            branch = husimi_grid(evolved_state(
                fig2_solution, times[i], run.states.shape[1]),
                window, window, 201)
            counts.append((len(find_grid_peaks(exact, 0.2)),
                           len(find_grid_peaks(branch, 0.2))))
            distances.append(np.abs(exact.values - branch.values).max()
                             / exact.values.max())
        report("4c", True, "peaks exact/branch at tau = 0, pi/4, pi, 2pi, "
                           f"4pi, 8pi: {counts}; max |dQ| / max Q: "
                           f"{np.round(distances, 3).tolist()}")
        assert counts == [(1, 1), (3, 2), (4, 4), (2, 2), (1, 1), (1, 1)]
        np.testing.assert_allclose(
            distances, [0.0, 0.114014288891, 0.182634694832, 0.180635934162,
                        0.073214703681, 0.025777805807], rtol=0, atol=1e-10)


CHECK5_LEVELS = 100


def check5_routes(rate):
    """{t: (direct, mapped)} at t = 2.5 and 5: check 5's two routes from
    |alpha = 1> under mass exp(rate t) and unit frequency, on CHECK5_LEVELS
    levels."""
    n_trunc = CHECK5_LEVELS
    mass = MassSpec.exponential(1.0, rate)
    psi0 = coherent_state(1.0, n_trunc)
    q = position_operator(n_trunc).matrix
    pm = momentum_operator(n_trunc).matrix
    q2, p2 = q @ q, pm @ pm

    def h_direct(t):
        m = math.exp(rate * t)
        return p2 / (2 * m) + 0.5 * m * q2

    def h_star(tau):
        w = math.exp(rate * physical_time(mass, tau))
        return 0.5 * p2 + 0.5 * w * w * q2

    def evolver_star(psi, tau):
        out = integrate_schrodinger(h_star, psi, tau, tol=1e-9)[-1]
        return FockState(out / np.linalg.norm(out), normalized=True)

    routes = {}
    for t_end in (2.5, 5.0):
        direct = integrate_schrodinger(h_direct, psi0, t_end, tol=1e-9)[-1]
        routes[t_end] = (
            FockState(direct / np.linalg.norm(direct), normalized=True),
            evolve_via_timemap(psi0, mass, evolver_star, t_end))
    return routes


def gaussian_state(rate, t, n_trunc):
    """The exact state of check5_routes at t, on n_trunc levels.  The
    evolution is quadratic, so |1> stays a Gaussian whose mean and
    covariance `heisenberg_coefficients` M carries, (qbar, pbar) =
    M (sqrt 2, 0) and Sigma = M M^T / 2.  Its wave function
    exp(-c (q - qbar)^2 + i pbar (q - qbar)), c = (1 - 2i Sigma_qp) /
    (4 Sigma_qq), is taken onto the Hermite functions on 6,001 points of
    [-30, 30]."""
    h = heisenberg_coefficients(1.0, 1.0, rate, t)
    m = np.array([[h.c_qq, h.c_qp], [h.c_pq, h.c_pp]])
    q_bar, p_bar = m @ [math.sqrt(2.0), 0.0]
    cov = 0.5 * m @ m.T
    c = (1.0 - 2j * cov[0, 1]) / (4.0 * cov[0, 0])
    q = np.linspace(-30.0, 30.0, 6001)
    amps = hermite_functions(n_trunc - 1, q) @ np.exp(
        -c * (q - q_bar) ** 2 + 1j * p_bar * (q - q_bar))
    return FockState(amps / np.linalg.norm(amps), normalized=True)


@pytest.fixture(scope="module")
def check5_runs():
    """{rate: check5_routes(rate)} for rate +-0.3.  On 40 levels
    the direct route reads 1 - F = 1.8e-4 against gaussian_state at t = 5,
    on 100 at most 1.1e-12."""
    return {rate: check5_routes(rate) for rate in (0.3, -0.3)}


class TestCriterion5TimeReparametrization:
    def test_exponential_mass_theorem(self, check5_runs):
        worst = max(1.0 - fidelity(mapped, direct)
                    for direct, mapped in check5_runs[0.3].values())
        ok_fid = worst <= 1e-8

        rng = np.random.default_rng(20240817)
        worst_det = max(
            abs(heisenberg_coefficients(1.0, 1.0, 0.3,
                                        float(t)).symplectic_determinant() - 1)
            for t in rng.uniform(0.0, 10.0, size=100))
        ok_det = worst_det <= 1e-10
        assert report("5", ok_fid and ok_det,
                      f"worst fidelity deficit = {worst:.2e}, "
                      f"worst |det - 1| = {worst_det:.2e}")

    def test_5b_both_routes_against_the_closed_form(self, check5_runs):
        # Check 5 compares two numerical routes on one basis; this compares
        # each with the Gaussian that heisenberg_coefficients fixes in closed
        # form.  The gaussian_state of coherent_state(1.0) is that state to
        # 1 - F = 0.
        assert fidelity(gaussian_state(0.3, 0.0, CHECK5_LEVELS),
                        coherent_state(1.0, CHECK5_LEVELS)) == pytest.approx(
                            1.0, abs=1e-15)
        worst = max(1.0 - fidelity(state,
                                   gaussian_state(rate, t, CHECK5_LEVELS))
                    for rate, routes in check5_runs.items()
                    for t, pair in routes.items() for state in pair)
        assert report("5b", worst <= 1e-11,
                      f"worst 1 - F of the direct and mapped routes against "
                      f"the closed-form Gaussian, rate +-0.3 at t = 2.5 and "
                      f"5 on 100 levels: {worst:.2e}")


class TestCriterion6WeiNormanFidelity:
    def test_6a_exact_at_zero_kerr(self, kerr_free_solution):
        p = fig2_params(0.0)
        n_trunc = default_truncation(
            float(np.abs(kerr_free_solution.eta).max())) + 10
        psi0 = coherent_state(3.0, n_trunc)
        ts = np.array([math.pi, 4 * math.pi, 8 * math.pi])
        run = integrate_exact(p, psi0, 8 * math.pi, tol=1e-10,
                              sample_times=ts)
        worst = max(
            1.0 - fidelity(run.state_at(i),
                           evolved_state(kerr_free_solution, float(t),
                                         n_trunc))
            for i, t in enumerate(ts))
        assert report("6a", worst <= 1e-7,
                      f"worst deficit over t <= 8pi: {worst:.2e}")

    def test_6b_small_kerr_accuracy_as_stated(self):
        # Both integration routes agree that the resonant drive pumps the
        # mean occupation from 1 to ~16 by t = 10, far outside the
        # frozen-amplitude averaging regime; the overlap collapses instead
        # of staying above 0.99.
        p = ModelParams(omega0=1.0, chi=0.01,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        sol = integrate_wei_norman(p, 10.0)
        n_trunc = default_truncation(float(np.abs(sol.eta).max())) + 10
        psi0 = coherent_state(1.0, n_trunc)
        ts = np.linspace(0.5, 10.0, 20)
        run = integrate_exact(p, psi0, 10.0, tol=1e-10, sample_times=ts)
        min_fid = min(
            fidelity(run.state_at(i), evolved_state(sol, float(t), n_trunc))
            for i, t in enumerate(ts))
        ok = report("6b", min_fid >= 0.99, f"min fidelity = {min_fid:.6f}")
        assert ok, (f"fidelity drops to {min_fid:.2e} by t = 10 under the "
                    "resonant drive (mean occupation grows to ~16; both "
                    "independent integration routes agree)")

    def test_6c_figure_regime_fidelity_reported(self, fig2_fidelity):
        times, fids = fig2_fidelity
        fid = fids[-1]
        # reported, not asserted: quantifies the averaging approximation
        report("6c", True, f"fidelity at tau = 8pi (chi=0.25, alpha=3): {fid:.4f}")
        k = int(np.argmin(fids))
        report("6c", True, f"min fidelity over t <= 8pi: {fids[k]:.4f} "
                           f"at t = {times[k]:.4f}")
        assert 0.0 <= fid <= 1.0 + 1e-12

    def test_6c_minimum_fidelity_over_the_window(self, fig2_fidelity):
        # Pinned on the 801-point grid.  The oracle at tol 1e-10 moves these
        # fidelities by at most 4.3e-12 against tol 1e-12, and a tol-1e-8 run
        # lands within 4.1e-14 of the tol-1e-10 one: at 1e-8 the sample grid
        # sets all 801 steps (peak estimate 0.006 of budget), so the 1e-8
        # pin cannot tell a looser oracle apart.  The grid neighbours
        # of the minimum lie more than 1e-3 above it, so its time is a grid
        # point.  The grid reads the true minimum high: 0.565776 at
        # t = 19.1108 on a 4,001-point grid over [18.9, 19.3] at tol 1e-12,
        # and the curvature there (about 20) bounds the excess by 2.5e-3.
        times, fids = fig2_fidelity
        k = int(np.argmin(fids))
        assert k == 608 and times[k] == pytest.approx(608 * math.pi / 100,
                                                      abs=1e-12)
        assert fids[k] == pytest.approx(0.566745232, abs=1e-8)

    def test_6d_where_the_factorized_branch_holds(self):
        # Least fidelity over t <= 8pi for chi = 0.05, 0.25, 1 (rows) by
        # |alpha| = 1, 2, 3 (columns), with the drive at Omega0 and on the
        # Kerr-shifted transition Omega0 + chi (2 |alpha|^2 + 1).  The
        # branch holds only where the drive is far off the transition it
        # drives, whatever chi / Omega0 is; the fig. 2 cell (0.25, 3) is 6c's
        # minimum.  Pinned: the oracle at tol 1e-12 moves no cell by more
        # than 3.2e-12.
        chis, alphas = (0.05, 0.25, 1.0), (1.0, 2.0, 3.0)
        maps = []
        for name, nu in (("Omega0", lambda chi, a: 1.0),
                         ("Omega0 + chi (2|alpha|^2 + 1)",
                          lambda chi, a: 1.0 + chi * (2 * a * a + 1))):
            cells = np.array([[least_fidelity(chi, a, nu(chi, a))
                               for a in alphas] for chi in chis])
            rows = "; ".join(
                f"chi = {chi:g}: " + " ".join(map("{:.4f}".format, row))
                for chi, row in zip(chis, cells))
            report("6d", True, f"min fidelity over t <= 8pi, drive at {name}, "
                               f"|alpha| = 1, 2, 3: {rows}")
            maps.append(cells)
        at_omega0, tuned = maps
        np.testing.assert_allclose(at_omega0, [
            [1.72143727e-07, 0.000177250678, 0.000170401969],
            [0.0614391350, 0.429701386, 0.566745232],
            [0.204805152, 0.850807878, 0.973712449]], rtol=0, atol=1e-9)
        np.testing.assert_allclose(tuned, [
            [1.56658241e-05, 9.87537799e-06, 0.000692395049],
            [0.000941569413, 0.000212614568, 0.000901933045],
            [0.000211205285, 0.000213286932, 0.000868364789]],
            rtol=0, atol=1e-9)
        # chi / Omega0 does not rank validity: the branch fails at chi = 0.05
        # and holds at chi = 1
        assert at_omega0[0].max() < 0.01 and at_omega0[2, 2] > 0.97
        assert tuned.max() <= 1e-3


class TestCriterion7Eigenstructure:
    def test_residuals_and_norms(self):
        from kerrosc.driven import (
            displacement_amplitude,
            displaced_number_state,
            eigenfunction,
            energy_level,
            hamiltonian_matrix,
        )
        drive, freq = DriveSpec.constant(0.7), FrequencySpec(1.3, 0.1)
        t, n_trunc = 0.4, 60
        h = hamiltonian_matrix(drive, freq, t, n_trunc).matrix
        lam = displacement_amplitude(drive, freq, t)
        worst_resid = 0.0
        for n in range(6):
            state = displaced_number_state(n, lam, n_trunc)
            e_n = energy_level(n, drive, freq, t)
            worst_resid = max(worst_resid, float(np.linalg.norm(
                h @ state.amplitudes - e_n * state.amplitudes)))
        q = np.linspace(-14, 14, 4001)
        worst_norm = max(
            abs(np.trapezoid(
                eigenfunction(n, q, drive, freq, t) ** 2, q) - 1.0)
            for n in range(6))
        ok = worst_resid <= 1e-6 and worst_norm <= 1e-8
        assert report("7", ok, f"worst residual = {worst_resid:.2e}, "
                               f"worst norm error = {worst_norm:.2e}")


class TestCriterion8ConvergenceOrder:
    def test_halving_tolerance_quarters_the_deficit(self):
        p = fig2_params(0.2, alpha=1.0)
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
        ratio = deficits[0] / deficits[1]
        assert report("8", ratio >= 4.0,
                      f"deficit improvement factor = {ratio:.2f}")
