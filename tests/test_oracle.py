import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from kerrosc import oracle
from kerrosc.driven import DriveSpec
from kerrosc.evolution import ModelParams, evolved_state, integrate_wei_norman
from kerrosc.fock import (
    _BLOCK_CELLS,
    BOUNDARY_POPULATION,
    FockState,
    coherent_state,
    momentum_operator,
    number_state,
    position_operator,
)
from kerrosc.integrators import StepSizeError
from kerrosc.oracle import (
    OracleError,
    OracleRun,
    StepRecord,
    _EXTRAPOLATION,
    _SUBSTEPS,
    _chiral_model,
    _strang_chains,
    _Workspace,
    fidelity,
    integrate_exact,
    integrate_schrodinger,
)
from kerrosc.timemap import MassSpec, evolve_via_timemap, physical_time

from test_observables import assert_frozen_view


def guard_message(error, start, end):
    """The defect and the bound of a norm-guard OracleError, after checking
    that it names the step from t=start to t=end."""
    found = re.fullmatch(rf"norm defect (\S+) in the step from t={start} to "
                         rf"t={end} exceeds its bound (\S+)", str(error))
    assert found, str(error)
    defect, bound = float(found[1]), float(found[2])
    assert defect > bound
    return defect, bound


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
        sol = integrate_wei_norman(p, t_end)
        n_trunc = 60
        run = integrate_exact(p, coherent_state(1.0, n_trunc), t_end,
                              tol=1e-10, sample_times=np.array([t_end]))
        wn = evolved_state(sol, t_end, n_trunc)
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

    def test_nan_drive_refused_naming_the_step(self):
        # every `DriveSpec` refuses a NaN parameter, so pass a plain
        # callable: the state turns NaN in the first step
        p = ModelParams(omega0=1.0, chi=0.25, alpha=1.0,
                        drive=lambda t: np.full(np.shape(t), math.nan))
        with pytest.raises(OracleError, match=r"^non-finite state in the "
                                              r"step from t=0 to t=0\.001$"):
            integrate_exact(p, coherent_state(1.0, 30), 1.0)

    def test_norm_drift_within_bound(self):
        # the kept states hold unit norm to rounding, and the defect the
        # rescale removed is at rounding too
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        run = integrate_exact(p, coherent_state(1.0, 50), 10.0, tol=1e-10)
        assert np.abs(np.linalg.norm(run.states, axis=1) - 1.0).max() <= 1e-14
        assert run.steps.defect <= 1e-13

    def test_memory_beyond_the_states_does_not_grow_with_samples(self):
        # the traced peak past the states grows by less than one block of
        # states when the samples grow tenfold; every block's states keep
        # unit norm to rounding
        p = ModelParams(omega0=1.0, chi=0.2,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        psi0 = coherent_state(1.0, 60)
        extra = []
        for samples in (200, 2000):
            tracemalloc.start()
            try:
                run = integrate_exact(p, psi0, 1.0, sample_times=np.linspace(
                    0.0, 1.0, samples))
                extra.append(tracemalloc.get_traced_memory()[1]
                             - run.states.nbytes)
            finally:
                tracemalloc.stop()
            assert np.abs(np.linalg.norm(run.states, axis=1)
                          - 1.0).max() <= 1e-14
        assert extra[1] - extra[0] < _BLOCK_CELLS * 16, extra

    def test_boundary_reached_mid_run_names_the_first_sample_past_it(self):
        # a resonant Kerr-free drive pumps alpha = 1 out of 30 levels: the
        # basis passes the initial check, and the guard stops the run at the
        # first sample whose top level holds more than the bound
        p = ModelParams(omega0=1.0, chi=0.0,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        psi0 = coherent_state(1.0, 30)
        times = np.linspace(0.0, 12.0, 121)
        with pytest.raises(OracleError, match=r"^support reached the "
                                              r"truncation boundary at t=") \
                as info:
            integrate_exact(p, psi0, 12.0, tol=1e-8, sample_times=times)
        found = re.search(r"at t=(\S+) \(top-level population (\S+)\)$",
                          str(info.value))
        t, top = float(found[1]), float(found[2])
        assert top > BOUNDARY_POPULATION
        k = int(np.flatnonzero(np.abs(times - t) < 1e-3)[0])
        assert 0 < k < times.size - 1
        # the same run stopped one sample short of it passes the guard
        run = integrate_exact(p, psi0, float(times[k - 1]), tol=1e-8,
                              sample_times=times[:k])
        assert np.abs(run.states[:, -1]).max() ** 2 <= BOUNDARY_POPULATION

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
        assert run.steps.accepted >= np.count_nonzero(np.diff(times))
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
        steps = run.steps
        assert steps.accepted > 0 and steps.rejected >= 0
        assert steps.budget == 1e-9
        assert 0.0 < steps.peak <= 1.0 and 0.0 <= steps.defect
        assert steps.seconds > 0.0
        # the log record carries the run's record, and its line prints it
        # after the route's own part
        record, = caplog.records
        assert record.steps is steps
        assert record.getMessage().endswith(f", {steps}")
        # the route's own part is the phase tables and the boundary
        # population; the norm shows once, as the record's defect
        assert re.match(r"integrate_exact: \d+ phase tables, peak boundary "
                        r"population \S+, \d+ accepted", record.getMessage())
        assert record.getMessage().count("norm") == 1
        # the text's time per attempted step is the wall seconds over the
        # accepted and rejected steps
        assert str(StepRecord(3, 1, 1e-9, 0.5, 1e-15, 0.002)).endswith(
            ", 0.002 s wall, 500.0 us per attempted step")

    def test_zero_step_run_reports_no_steps(self, caplog):
        # t = 0 as the only sample: the run takes no step, and its record
        # and DEBUG line say so without dividing by zero
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        psi0 = coherent_state(1.0, 30)
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            run = integrate_exact(p, psi0, 1.0, sample_times=np.array([0.0]))
        assert (run.steps.accepted, run.steps.rejected) == (0, 0)
        assert np.array_equal(run.states[0], psi0.amplitudes)
        record, = caplog.records
        assert record.steps == run.steps
        assert record.getMessage().endswith(
            " 0 accepted, 0 rejected steps, budget 1e-10 per unit step, peak "
            "estimate 0 of budget, peak norm defect 0 before rescale, "
            f"{run.steps.seconds:.3f} s wall, 0.0 us per attempted step")

    @pytest.mark.parametrize("samples, steps, tables", [
        (1001, 1000, 17), (2, 203, 154)], ids=["grid", "controller"])
    def test_phase_tables_pinned(self, caplog, samples, steps, tables):
        # the energy-phase table depends on the step length alone and the
        # workspace keeps two: the 1,000 steps of an equidistant grid take
        # 12 distinct lengths and fill a table 17 times.  With the
        # controller setting the steps (the fig. 2 quarter below) most
        # lengths are new, but a step that splits the rest of an interval
        # evenly can repeat its predecessor's length bit for bit
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=3.0)
        t_end = 2 * math.pi
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            run = integrate_exact(p, coherent_state(3.0, 66), t_end,
                                  tol=1e-10, sample_times=np.linspace(
                                      0.0, t_end, samples))
        assert (run.steps.accepted, run.steps.rejected) == (steps, 0)
        record, = caplog.records
        assert record.steps == run.steps
        assert record.getMessage().startswith(
            f"integrate_exact: {tables} phase tables, ")

    def test_norm_defect_shows_a_kept_column_off_by_1e7(self, caplog,
                                                           monkeypatch):
        # T44 is not unitary, and the controller bounds the defect its
        # rescale removes: at rounding on the true tableau, the run passes
        # with its states at unit norm; with a T44 weight off by 1e-7 (the
        # estimate column left as it is) the defect is 1e-7, about 2e5
        # times its bound, and the first step ends the run
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=3.0)

        def run():
            return integrate_exact(p, coherent_state(3.0, 66), 1.0,
                                   sample_times=np.linspace(0.0, 1.0, 11))

        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            good = run()
        assert np.abs(np.linalg.norm(good.states, axis=1)
                      - 1.0).max() <= 1e-14
        assert caplog.records[0].steps == good.steps
        assert good.steps.defect <= 1e-13
        mutated = _EXTRAPOLATION.copy()
        mutated[0, 0] += 1e-7
        monkeypatch.setattr(oracle, "_EXTRAPOLATION", mutated)
        with pytest.raises(OracleError) as info:
            run()
        print(info.value)  # shown by the report-only CI step (-s)
        defect, bound = guard_message(info.value, "0", "0.001")
        assert 1e-8 <= defect and 1e4 * bound <= defect

    def test_non_orthogonal_rotation_ends_the_run(self, monkeypatch):
        # W of the chiral form made non-orthogonal: the column of P with the
        # largest overlap on the fig. 2 state scaled by 1 + 1e-9.  The
        # chains then disagree in norm growth, the estimate stays far over
        # its budget however short the step, and the run is refused at once
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=3.0)
        psi0 = coherent_state(3.0, 66)
        model = _chiral_model(p, 66)
        j = int(np.argmax(np.abs(psi0.amplitudes[::2] @ model[2][0])))
        mutated = model[2].copy()
        mutated[0, :, j] *= 1.0 + 1e-9
        monkeypatch.setattr(oracle, "_chiral_model",
                            lambda *args: model[:2] + (mutated,) + model[3:])
        with pytest.raises(StepSizeError, match="underflow at t=0$") as info:
            integrate_exact(p, psi0, 1.0,
                            sample_times=np.linspace(0.0, 1.0, 11))
        print(info.value)  # shown by the report-only CI step (-s)

    def test_step_counts_pinned_in_the_fig2_regime(self):
        # a quarter of the fig. 2 run (chi = 0.25, alpha = 3, 66 levels) with
        # the end as its only sample, so the controller sets every step, not
        # the sample grid; rounding in the step kernel must not move one
        # accept/reject decision, so the counts are exact
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=3.0)
        t_end = 2 * math.pi
        run = integrate_exact(p, coherent_state(3.0, 66), t_end, tol=1e-10,
                              sample_times=np.array([t_end]))
        assert (run.steps.accepted, run.steps.rejected) == (203, 0)

    def test_frozen_fields_leave_the_callers_arrays_writeable(self):
        times, states = np.array([0.0, 1.0]), np.ones((2, 3), dtype=complex)
        run = OracleRun(times=times, states=states,
                        steps=StepRecord(1, 0, 1e-10, 0.0, 0.0, 0.0))
        for field, own in ((run.times, times), (run.states, states)):
            assert_frozen_view(field, own)

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

    def test_rejects_nan_initial_state(self):
        # refused before the run: a NaN state sampled at t = 0 alone would
        # take no step for the norm guard to see
        p = ModelParams(omega0=1.0, chi=0.0, drive=DriveSpec.zero())
        bad = FockState(np.append(math.nan, np.zeros(19)))
        with pytest.raises(ValueError, match="normalized"):
            integrate_exact(p, bad, 1.0, sample_times=np.array([0.0]))


# Both propagators on a 30-level coherent state without drive: the exact
# oracle, and the generic route on the same diagonal H.
_PROPAGATORS = {
    "exact": lambda psi0, t_end, **kw: integrate_exact(
        ModelParams(omega0=1.0, chi=0.0, drive=DriveSpec.zero()), psi0,
        t_end, **kw),
    "schrodinger": lambda psi0, t_end, **kw: integrate_schrodinger(
        lambda t: np.diag(np.arange(30) + 0.5), psi0, t_end, **kw),
}


@pytest.mark.parametrize("propagator", sorted(_PROPAGATORS))
@pytest.mark.parametrize("t_end, kwargs, message", [
    (math.nan, {}, "t_end must be finite and non-negative, got nan"),
    (math.inf, {"sample_times": np.array([0.0, 1.0])},
     "t_end must be finite and non-negative, got inf"),
    (1.0, {"sample_times": np.array([0.0, math.nan])},
     "sample times must be finite, sorted, in [0, t_end]"),
    (1.0, {"sample_times": np.array([math.nan])},
     "sample times must be finite, sorted, in [0, t_end]"),
    (1.0, {"tol": math.nan}, "tol must be positive and finite, got nan"),
    (1.0, {"tol": math.inf}, "tol must be positive and finite, got inf"),
], ids=["t_end-nan", "t_end-inf", "sample-nan", "only-sample-nan", "tol-nan",
        "tol-inf"])
def test_non_finite_input_refused_by_name(propagator, t_end, kwargs, message):
    # each was once accepted: a NaN time ended the run at once with the
    # initial state, a NaN tol failed inside, an infinite one ran unguarded
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _PROPAGATORS[propagator](coherent_state(1.0, 30), t_end, **kwargs)


class TestExactPair:
    """The oracle's step, `_strang_chains`, the four chains it returns, and
    their extrapolation in `_step_control`."""

    @staticmethod
    def strang_chain(psi, t, h, m, p, n):
        """m Strang substeps of h / m from psi at t, each factor a dense
        scipy expm of its own generator."""
        from scipy.linalg import expm
        levels = np.arange(n)
        h0 = np.diag(p.omega0 * (levels + 0.5) + p.chi * levels ** 2.0)
        ladder = np.sqrt(np.arange(1, n))
        v = (np.diag(ladder, 1) + np.diag(ladder, -1)) \
            / math.sqrt(2.0 * p.omega0)
        tau = h / m
        phase = expm(-0.5j * tau * h0)
        for j in range(m):
            kick = expm(-1j * tau * p.drive(t + (j + 0.5) * tau) * v)
            psi = phase @ (kick @ (phase @ psi))
        return psi

    @staticmethod
    def neville(chains):
        """T44 and T43 of the Aitken-Neville tableau in h**2 over the
        chains of 1, 2, 3 and 4 substeps."""
        t = list(chains)
        for k in (1, 2, 3):
            t43 = t[3]  # T43 as the last level starts
            for j in range(3, k - 1, -1):  # downwards: t[j - 1] is still old
                t[j] = t[j] + (t[j] - t[j - 1]) / (((j + 1) / (j + 1 - k))
                                                   ** 2 - 1.0)
        return t[3], t43

    @staticmethod
    def extrapolated(chains):
        """T44 and the estimate |T44 - T43|, as `_step_control` forms them."""
        kept, error = _EXTRAPOLATION.T @ chains
        return kept, np.linalg.norm(error)

    @staticmethod
    def model(chi, n):
        """The fig. 2 drive at this Kerr constant on n levels: the params
        and `_strang_chains`'s arguments after (psi, t, h)."""
        p = ModelParams(omega0=1.0, chi=chi,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=3.0)
        return p, (p.drive, _chiral_model(p, n))

    # even and odd bases, the odd ones with the chiral form's padding row,
    # down to the smallest the oracle takes (SUPPORT_MARGIN + 1 levels)
    @pytest.mark.parametrize("chi, n", [(0.25, 66), (0.0, 203), (0.25, 11),
                                        (0.25, 65)],
                             ids=["fig2-66", "kerr-free-203", "smallest-11",
                                  "odd-65"])
    def test_matches_four_dense_strang_chains(self, chi, n):
        p, args = self.model(chi, n)
        rng = np.random.default_rng(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        t, h = 1.3, 0.02
        dense = {m: self.strang_chain(psi, t, h, m, p, n) for m in _SUBSTEPS}
        work = _Workspace(n)
        chains = _strang_chains(psi, t, h, *args, work)
        # each chain as it ends, unnormalized, so an error in their common
        # norm shows
        assert chains.shape == (4, n)
        for row, m in zip(chains, _SUBSTEPS):
            assert np.abs(row - dense[m]).max() < 1e-13
        t44, t43 = self.neville([dense[m] for m in (1, 2, 3, 4)])
        kept, estimate = self.extrapolated(chains)
        assert np.abs(kept - t44).max() < 1e-13
        assert abs(estimate - np.linalg.norm(t44 - t43)) < 1e-13
        # an odd basis's padding row (the last stacked row) ends exactly 0
        assert not work.x.reshape(-1, 4)[n:].any()

    def test_estimate_is_of_sixth_order(self):
        # the error of the order-6 T43 over one step goes as h**7: halving
        # h divides the estimate by about 2**7 (2**7.07 measured), summed
        # over starting times through one drive period
        _, args = self.model(0.25, 66)
        psi = coherent_state(3.0, 66).amplitudes
        starts = np.linspace(0.0, 2 * math.pi, 9)[:-1]
        sums = [sum(self.extrapolated(_strang_chains(psi, t, h, *args))[1]
                    for t in starts) for h in (0.08, 0.04)]
        assert 6.5 <= math.log2(sums[0] / sums[1]) <= 7.5

    def test_returns_fresh_arrays_from_a_reused_workspace(self):
        _, args = self.model(0.25, 30)
        psi = coherent_state(1.0, 30).amplitudes
        work = _Workspace(30)
        first = _strang_chains(psi, 0.5, 0.01, *args, work)
        kept = first.copy()
        second = _strang_chains(first[0], 0.51, 0.01, *args, work)
        for chains in (first, second):
            assert not np.shares_memory(chains, work.x)
            assert not np.shares_memory(chains, psi)
        assert not np.shares_memory(first, second)
        # the second call leaves the first call's chains as they were, and a
        # reused workspace gives what a fresh one gives
        assert np.array_equal(first, kept)
        assert np.array_equal(second, _strang_chains(kept[0], 0.51, 0.01,
                                                     *args))
        # lengths h', h'' and h again: h'' evicts h's phase table from the
        # two slots and h refills one, each step bit-equal to a fresh one
        t, state = 0.52, self.extrapolated(second)[0]
        for h in (0.02, 0.03, 0.01):
            reused = _strang_chains(state, t, h, *args, work)
            assert not np.shares_memory(reused, work.x)
            assert np.array_equal(reused, _strang_chains(state, t, h, *args))
            t, state = t + h, self.extrapolated(reused)[0]
        assert work.fills == 4

    def test_runs_at_other_truncations_leave_no_trace(self):
        # each run fills its own workspace: interleaved runs at two
        # truncations are bit-identical to the same runs repeated
        p = ModelParams(omega0=1.0, chi=0.25,
                        drive=DriveSpec.cosine(1.0, 1.0), alpha=1.0)
        times = np.linspace(0.0, 1.0, 11)

        def run(n):
            return integrate_exact(p, coherent_state(1.0, n), 1.0, tol=1e-9,
                                   sample_times=times)

        first = [run(n) for n in (30, 45)]
        for before, after in zip(first, [run(n) for n in (30, 45)]):
            assert np.array_equal(before.states, after.states)
            assert (before.steps.accepted, before.steps.rejected) \
                == (after.steps.accepted, after.steps.rejected)


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

    def test_parity_blocks_of_unequal_size_match_expm(self, caplog):
        # 7 levels coupled only within a parity: blocks of 4 and 3 levels
        from scipy.linalg import expm
        rng = np.random.default_rng(3)
        m = rng.normal(size=(7, 7))
        levels = np.arange(7)
        h = np.where((levels[:, None] - levels) % 2 == 0, m + m.T, 0.0)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        psi0 = FockState(v / np.linalg.norm(v), normalized=True)
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            out = integrate_schrodinger(lambda t: h, psi0, 1.3, tol=1e-10)[-1]
        assert np.abs(out - expm(-1.3j * h) @ psi0.amplitudes).max() < 1e-10
        assert "(real arithmetic): 1 block of 3 levels and 1 block of 4 " \
            "levels, " in caplog.text

    def test_coupling_switched_on_mid_run_is_kept(self, caplog):
        # block-diagonal for t < 1, fully coupled from t = 1: the cached
        # partition must merge, not apply the second half block by block
        from scipy.linalg import expm
        rng = np.random.default_rng(4)
        n = 6
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = m + m.conj().T
        a = np.where((np.arange(n)[:, None] < 3) == (np.arange(n) < 3),
                     b.real, 0.0)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 = FockState(v / np.linalg.norm(v), normalized=True)
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            got = integrate_schrodinger(lambda t: a if t < 1.0 else b, psi0,
                                        2.0, tol=1e-10,
                                        sample_times=np.array([1.0, 2.0]))
        first = expm(-1j * a) @ psi0.amplitudes
        assert np.abs(got[0] - first).max() < 1e-10
        assert np.abs(got[1] - expm(-1j * b) @ first).max() < 1e-10
        assert "(real and complex arithmetic): 1 block of 6 levels, " \
            in caplog.text

    def test_check5_partition_and_step_counts(self, caplog):
        # check 5's oscillator conserves parity: two blocks of 20 levels, the
        # step counts of its four runs in call order, and how closely the
        # direct and the mapped route agree
        n, rate = 40, 0.3
        mass = MassSpec.exponential(1.0, rate)
        q2 = position_operator(n).matrix @ position_operator(n).matrix
        p2 = momentum_operator(n).matrix @ momentum_operator(n).matrix
        psi0 = coherent_state(1.0, n)

        def h_direct(t):
            m = math.exp(rate * t)
            return p2 / (2 * m) + 0.5 * m * q2

        def h_star(tau):
            w = math.exp(rate * physical_time(mass, tau))
            return 0.5 * p2 + 0.5 * w * w * q2

        def evolver_star(psi, tau):
            out = integrate_schrodinger(h_star, psi, tau, tol=1e-9)[-1]
            return FockState(out / np.linalg.norm(out), normalized=True)

        finals = []
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            for t_end in (2.5, 5.0):
                finals.append((
                    integrate_schrodinger(h_direct, psi0, t_end, tol=1e-9)[-1],
                    evolve_via_timemap(psi0, mass, evolver_star,
                                       t_end).amplitudes))
        records = [r for r in caplog.records
                   if r.getMessage().startswith("integrate_schrodinger")]
        assert all(r.getMessage().startswith(
            "integrate_schrodinger (real arithmetic): 2 blocks of 20 levels, ")
            for r in records)
        assert [(r.steps.accepted, r.steps.rejected) for r in records] == [
            (16, 2), (17, 3), (71, 4), (86, 5)]
        # 1 - F of unit states this close is about 1e-19, under rounding; the
        # distance after aligning the global phase shows the agreement (about
        # 1.5e-10 at both t = 2.5 and t = 5)
        for direct, mapped in finals:
            direct = direct / np.linalg.norm(direct)
            overlap = np.vdot(direct, mapped)
            assert np.linalg.norm(
                mapped - overlap / abs(overlap) * direct) <= 1e-8

    def test_kept_column_off_by_1e7_ends_the_run(self, monkeypatch):
        # the norm guard is the step controller's, so it serves this route
        # too: on check 5's direct H(t) (40 levels) a T44 weight off by 1e-7
        # gives a defect of 1e-7 against a budget tol * h of about 2.5e-12,
        # and the first step ends the run
        n, rate = 40, 0.3
        q2 = position_operator(n).matrix @ position_operator(n).matrix
        p2 = momentum_operator(n).matrix @ momentum_operator(n).matrix

        def h_direct(t):
            m = math.exp(rate * t)
            return p2 / (2 * m) + 0.5 * m * q2

        mutated = _EXTRAPOLATION.copy()
        mutated[0, 0] += 1e-7
        monkeypatch.setattr(oracle, "_EXTRAPOLATION", mutated)
        with pytest.raises(OracleError) as info:
            integrate_schrodinger(h_direct, coherent_state(1.0, n), 2.5,
                                  tol=1e-9)
        print(info.value)  # shown by the report-only CI step (-s)
        defect, bound = guard_message(info.value, "0", "0.0025")
        assert 1e-8 <= defect and 1e4 * bound <= defect


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

    def test_samples_keep_the_norm_of_an_unnormalized_state(self):
        # one norm rule for both propagators: every kept state is rescaled
        # to psi0's norm, here 2, on an H(t) whose terms do not commute
        psi0 = FockState(np.array([1.2, 1.6j]))
        states = integrate_schrodinger(
            lambda t: np.array([[1.0, 0.5 * math.cos(t)],
                                [0.5 * math.cos(t), -1.0]]),
            psi0, 5.0, tol=1e-9, sample_times=np.linspace(0.0, 5.0, 11))
        assert np.abs(np.linalg.norm(states, axis=1)
                      - psi0.norm()).max() <= 1e-14

    def test_rejects_nan_initial_state(self):
        # as in integrate_exact: sampled at t = 0 alone, a NaN state would
        # take no step for the norm guard to see
        bad = FockState(np.array([math.nan, 0.0]))
        with pytest.raises(ValueError, match="^psi0 must be finite$"):
            integrate_schrodinger(lambda t: np.eye(2), bad, 1.0,
                                  sample_times=np.array([0.0]))

    def test_budget_under_rounding_floor_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(StepSizeError, match="underflow"):
            integrate_schrodinger(
                lambda t: np.array([[1.0, 0.3 * t], [0.3 * t, -1.0]]),
                number_state(0, 2), 2.0, tol=1e-16)
        assert time.perf_counter() - start < 0.5

    @staticmethod
    def commuting_run(level, tol):
        # a diagonal H(t): the step's error estimate is rounding alone, often
        # exactly 0, which must not let the run crawl on forever
        calls = []

        def hamiltonian(t):
            calls.append(t)
            if len(calls) > 9000:  # nine evaluations per attempted step
                raise RuntimeError("more than 1000 attempted steps")
            return (1.0 + t / 10.0) * np.diag([0.5, 1.5, 2.5])

        return integrate_schrodinger(hamiltonian, number_state(level, 3),
                                     2.0, tol=tol)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_budget_under_rounding_floor_refused_when_steps_commute(
            self, level):
        with pytest.raises(StepSizeError, match="underflow"):
            self.commuting_run(level, 1e-16)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_budget_at_rounding_floor_ends_when_steps_commute(self, level):
        # at tol 1e-14 the first budget tol * h (2e-17) is under the floor
        # (6.4e-17): refused before the first step.  At 1e-12 it starts
        # above it, so only rejections of rounding-size estimates could
        # bring the run to the floor mid-way, and none may
        with pytest.raises(StepSizeError, match="underflow at t=0$"):
            self.commuting_run(level, 1e-14)
        out = self.commuting_run(level, 1e-12)[-1]
        expected = np.zeros(3, dtype=complex)
        expected[level] = np.exp(-1j * (0.5 + level) * 2.2)
        assert np.abs(out - expected).max() < 1e-14

    @staticmethod
    def logged_run(caplog, hamiltonian, **kwargs):
        """States of a 5-level run from the first level over [0, 2], and its
        telemetry log record."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            states = integrate_schrodinger(
                hamiltonian, number_state(0, 5), 2.0,
                sample_times=np.linspace(0.0, 2.0, 5), **kwargs)
        records = [r for r in caplog.records
                   if r.getMessage().startswith("integrate_schrodinger")]
        assert len(records) == 1
        return states, records[0]

    def test_real_valued_complex_hamiltonian_runs_as_real(self, caplog):
        # a complex128 H(t) with zero imaginary part is narrowed to its real
        # part: the run is the float64 run, to the bit and the step
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 5))
        a, b = m + m.T, np.diag(np.arange(5.0))

        def real(t):
            return a + math.cos(3.0 * t) * b

        got, record = self.logged_run(caplog,
                                      lambda t: real(t).astype(np.complex128))
        want, want_record = self.logged_run(caplog, real)
        assert np.array_equal(got, want)
        assert (record.steps.accepted, record.steps.rejected) \
            == (want_record.steps.accepted, want_record.steps.rejected)
        for r in (record, want_record):
            assert r.getMessage().startswith(
                "integrate_schrodinger (real arithmetic): ")

    def test_complex_hamiltonian_telemetry_says_complex(self, caplog):
        h = np.diag(np.arange(5.0)) + 0.3j * (np.eye(5, k=1) - np.eye(5, k=-1))
        _, record = self.logged_run(caplog, lambda t: h, tol=1e-9)
        assert record.getMessage() == ("integrate_schrodinger (complex "
                                       f"arithmetic): 1 block of 5 levels, "
                                       f"{record.steps}")
        assert record.steps.budget == 1e-9

    def test_non_hermitian_hamiltonian_refused(self):
        h = np.array([[1.0, 0.5], [0.0, -1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            integrate_schrodinger(lambda t: h, number_state(0, 2), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("start", [0.0, 0.5])
    def test_non_finite_hamiltonian_refused_naming_t(self, bad, start):
        # an entry that is not finite from t = 0 on, or only from t = 0.5
        def h(t):
            m = np.array([[1.0, 0.5 * math.cos(t)], [0.5 * math.cos(t), -1.0]])
            if t >= start:
                m[0, 1] = m[1, 0] = bad
            return m

        with pytest.raises(ValueError, match="not a finite Hermitian 2x2 "
                                             "matrix at t=") as exc:
            integrate_schrodinger(h, number_state(0, 2), 1.0)
        t = float(str(exc.value).rpartition("t=")[2])
        assert start <= t < start + 0.1

    @pytest.mark.parametrize("bad", ["non-Hermitian", math.nan, math.inf])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_every_evaluation_of_a_step_is_checked(self, bad, k):
        # a step takes H at its 9 nodes before it checks them as one stack:
        # an H that fails at exactly the k-th evaluation of the first step
        # is refused naming that evaluation's t
        times = []

        def h(t):
            times.append(t)
            m = np.array([[1.0, 0.5 * math.cos(t)], [0.5 * math.cos(t), -1.0]])
            if len(times) == k and bad == "non-Hermitian":
                m[0, 1] += 0.5
            elif len(times) == k:
                m[0, 1] = m[1, 0] = bad
            return m

        with pytest.raises(ValueError, match="not a finite Hermitian 2x2 "
                                             "matrix at t=") as exc:
            integrate_schrodinger(h, number_state(0, 2), 1.0)
        assert len(times) == 9
        assert str(exc.value).endswith(f"t={times[k - 1]:.6g}")

    def test_hamiltonian_of_another_size_refused(self):
        # the blocks index H by the state's levels, so a larger H must not
        # run on its leading block
        with pytest.raises(ValueError, match="Hermitian 2x2"):
            integrate_schrodinger(lambda t: np.eye(3), number_state(0, 2), 1.0)

    @staticmethod
    def step_record(caplog, tol):
        """The `StepRecord` of a run on a 2x2 H(t) whose terms do not
        commute, read from its telemetry log record."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kerrosc.oracle"):
            integrate_schrodinger(
                lambda t: np.array([[1.0, 0.5 * math.cos(t)],
                                    [0.5 * math.cos(t), -1.0]]),
                number_state(0, 2), 5.0, tol=tol)
        records = [r for r in caplog.records
                   if r.getMessage().startswith("integrate_schrodinger")]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert records[0].steps.budget == tol
        assert records[0].getMessage().endswith(f", {records[0].steps}")
        return records[0].steps

    def test_step_telemetry_reported(self, caplog):
        steps = self.step_record(caplog, 1e-9)
        assert steps.accepted > 0 and steps.rejected >= 0
        assert 0.0 < steps.peak <= 1.0 and steps.seconds > 0.0

    def test_step_is_sixth_order(self, caplog):
        # a budget of tol per unit step and an estimate ~ h**7 give
        # h ~ tol**(1/6): a 256-fold smaller tol takes about 2.5x the steps
        # (measured 2.26), a 4th-order estimate would take 4x
        ratio = self.step_record(caplog, 1e-8 / 256).accepted \
            / self.step_record(caplog, 1e-8).accepted
        assert 1.8 <= ratio <= 3.2
