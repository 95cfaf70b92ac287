"""Ground-truth Schrodinger integration on the truncated Fock space.

`integrate_exact` propagates the full Kerr-oscillator Hamiltonian
H(t) = H0 + e(t) V, with H0 the diagonal Kerr energies (the exact
number-squared term included) and V = (a + a^dagger)/sqrt(2 Omega0), by a
split-step scheme: a Strang step is "diagonal phase, rotate, diagonal
phase".  V only links neighbouring levels, so one SVD of its even-odd
block, made once, turns each rotation into half-size products and a cos /
i sin mix (`_chiral_model`).  Each attempted step runs it over 1, 2, 3 and
4 substeps in lockstep and extrapolates in h**2
(Blanes, Casas & Ros, Celest. Mech. Dyn. Astron. 75:149, 1999) to order 8,
with an order-6 error estimate, in one `_extrapolated_step` call on
buffers made once per run.  It shares no code with the approximate
branches, so it stays an independent route to the answer.
`integrate_schrodinger`, the generic dense-matrix variant used to validate
the time-reparametrization theorem, shares that tableau but not the
splitting or the exponential route: its substep is the exponential midpoint
rule, through `eigh` on the decoupled blocks of H(t).  Both run under one
step-size controller, `_step_control`, which hands the sample states over
in blocks of rows, and read tol as the same error budget per unit step.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .evolution import ModelParams
from .fock import (BOUNDARY_POPULATION, SUPPORT_MARGIN, UNIT_NORM_TOL,
                   FockState, _freeze, _row_blocks)
from .integrators import StepSizeError

__all__ = [
    "OracleError",
    "OracleRun",
    "integrate_exact",
    "integrate_schrodinger",
    "fidelity",
]

logger = logging.getLogger(__name__)

_NORM_DRIFT_LIMIT = 1e-8
_HERMITIAN_RTOL = 1e-12  # |H - H^dagger| / |H| above rounding

# Step-size controller of `_step_control`.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

# The extrapolated step runs column j of its (2, m, 4) state as _SUBSTEPS[j]
# Strang substeps of h / _SUBSTEPS[j], most substeps first, so the columns
# still running at stage s are the first 4 - s.
_SUBSTEPS = (4, 3, 2, 1)
_STAGES = [_SUBSTEPS[:4 - s] for s in range(4)]
# The 10 rotations, stage after stage: each substep's midpoint and length as
# fractions of h.
_ROT_MIDS = np.array([(s + 0.5) / m for s, running in enumerate(_STAGES)
                      for m in running])
_ROT_WEIGHTS = np.array([1.0 / m for running in _STAGES for m in running])
# The energy phases, as multiples of -i h E: each column's opening half
# substep, then after each stage's rotations the two merged half substeps
# of a column still running, or the closing half substep of the column that
# ends there.  The 14 phases take 5 distinct fractions, so a `cos` and a
# `sin` of those fill the table.
_PHASE_FRACTIONS, _PHASE_INDEX = np.unique(
    [0.5 / m for m in _SUBSTEPS] + [(1.0 if m > s + 1 else 0.5) / m
                                    for s, running in enumerate(_STAGES)
                                    for m in running], return_inverse=True)


def _extrapolation_weights(substeps) -> np.ndarray:
    """Weights of the values over these substep counts in their polynomial
    extrapolation in h**2 to h = 0: the last Aitken-Neville entry."""
    x = 1.0 / np.asarray(substeps, dtype=float) ** 2
    return np.array([np.prod([xi / (xi - xj) for xi in x if xi != xj])
                     for xj in x])


# The columns' weights in T44, of order 8, and in T44 - T43, the estimate of
# the error of T43, of order 6 (T43 leaves out the single substep); complex,
# so that the product with the state casts nothing.
_T44, _T43 = (_extrapolation_weights(_SUBSTEPS[:k]) for k in (4, 3))
_EXTRAPOLATION = np.column_stack(
    [_T44, _T44 - np.append(_T43, 0.0)]).astype(np.complex128)
# Rounding floor of the estimate: the estimate of a one-ulp difference
# between unit states, in the column it weighs most.  A budget tol * h under
# the floor can only pass an estimate of exactly 0, which says nothing.
_EXTRAPOLATION_FLOOR = float(np.finfo(float).eps
                             * np.abs(_EXTRAPOLATION[:, 1]).max())
# The rotations of each stage; the 9 distinct rotation midpoints (the chains
# of 1 and 3 substeps share 0.5), and the index of each rotation's among them.
_STAGE_ROTATIONS = np.split(np.arange(_ROT_MIDS.size),
                            np.cumsum([len(run) for run in _STAGES])[:-1])
_NODES, _ROT_NODE = np.unique(_ROT_MIDS, return_inverse=True)


class OracleError(RuntimeError):
    """The reference run left its validity envelope (norm drift, truncation)."""


@dataclass(frozen=True)
class OracleRun:
    """Sampled exact evolution with its norm-drift record and step counts.

    `budget` is the error budget per unit step the run was held to."""

    params: ModelParams
    n_trunc: int
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n_trunc), Schrodinger picture
    norm_drift: np.ndarray
    accepted_steps: int
    rejected_steps: int
    budget: float

    def __post_init__(self):
        _freeze(self, ("times", "states", "norm_drift"))

    def state_at(self, index: int) -> FockState:
        """Sampled state as a unit-norm FockState; raw norms live in
        `norm_drift`."""
        amps = self.states[index]
        return FockState(amps / np.linalg.norm(amps), normalized=True,
                         renormalized=True)


def _chiral_model(params: ModelParams, n: int) -> tuple:
    """The step's model on n levels, with V in its chiral form: V links
    level k to k +- 1 only, so in (even, odd) level order it is
    [[0, C], [C^T, 0]], and with C = P diag(sigma) Q^T, exp(-i theta V) is
    W^T = [P^T, Q^T] on the halves, a mix of them by cos(theta sigma) and
    -i sin(theta sigma), and W back.  Returns the stacked row order, each
    level's row, W as (2, m, m) with m = ceil(n/2), sigma and the energies
    by row.  An odd n's odd half gets one padding row: its own basis vector
    in Q, sigma 0 and an opening phase of 0, so it stays exactly 0."""
    m, levels = (n + 1) // 2, np.arange(n)
    order = np.concatenate([levels[::2], levels[1::2], levels[:n % 2]])
    ladder = np.sqrt(levels[1:]) / math.sqrt(2.0 * params.omega0)
    p, sigma, qt = np.linalg.svd(
        (np.diag(ladder, 1) + np.diag(ladder, -1))[::2, 1::2])
    q = np.eye(m)
    q[:n // 2, :n // 2] = qt.T
    level = order.astype(float)
    return (order, np.argsort(order[:n]), np.stack([p, q]),
            np.append(sigma, np.zeros(n % 2)),
            params.omega0 * (level + 0.5) + params.chi * level ** 2)


def _blocks(table: np.ndarray, m: int, widths: list) -> list:
    """A flat table's consecutive contiguous (2, m, k) blocks, k in widths."""
    ends = 2 * m * np.cumsum([0] + widths)
    return [table[a:b].reshape(2, m, -1) for a, b in zip(ends, ends[1:])]


class _Workspace:
    """`_extrapolated_step`'s buffers on n levels, made once per run.  Its
    tables are stage-blocked, each stage's (2, m, k) block contiguous: the
    cos and i sin of the rotation angles, and two energy-phase tables, each
    tagged with its step length.  `fills` counts the phase tables made."""

    def __init__(self, n: int):
        m = (n + 1) // 2
        rows, widths = np.arange(2 * m), [len(run) for run in _STAGES]
        # the angles by rotation, and their cos + 0i and 0 + i sin; the
        # phases by fraction, then a fixed 0 that opens the padding row
        self.angles = np.empty((_ROT_MIDS.size, m))
        self.trig = np.zeros((2,) + self.angles.shape, np.complex128)
        self.args = np.empty((_PHASE_FRACTIONS.size, 2 * m))
        self.fractions = np.zeros(self.args.size + 1, np.complex128)
        # each entry of the stage-blocked tables, as a flat index into those
        self.rot_layout = np.concatenate(
            [np.add.outer(rows % m, c * m).ravel() for c in _STAGE_ROTATIONS]
        ) + [[0], [self.angles.size]]
        self.phase_layout = np.concatenate(
            [np.add.outer(rows, _PHASE_INDEX[c] * 2 * m).ravel()
             for c in [np.arange(4)] + [c + 4 for c in _STAGE_ROTATIONS]])
        self.phase_layout[4 * n:8 * m] = self.args.size  # padding: opens at 0
        self.rot = np.empty(self.rot_layout.shape, np.complex128)
        self.tags, self.tables = [math.nan] * 2, [
            (t, _blocks(t, m, [4] + widths)) for t in
            (np.empty(self.phase_layout.size, np.complex128) for _ in (0, 1))]
        self.x = np.empty((2, m, 4), np.complex128)
        self.stages = []
        for k, cos, isin in zip(widths, *(_blocks(r, m, widths)
                                          for r in self.rot)):
            s, b = self.x[..., :k], np.empty((2, m, k), np.complex128)
            self.stages.append((s, s.view(np.float64), b, b.view(np.float64),
                                np.empty_like(b), cos, isin))
        self.fills = 0

    def phases(self, h: float, energies: np.ndarray) -> list:
        """The blocks of step length h's energy-phase table, opening first.
        A miss refills the older table in place, bit-equal to a fresh one."""
        if h not in self.tags:
            self.tags, self.tables = [self.tags[1], h], self.tables[::-1]
            np.multiply((-h * _PHASE_FRACTIONS)[:, None], energies,
                        out=self.args)
            by_fraction = self.fractions[:-1].reshape(self.args.shape)
            np.cos(self.args, out=by_fraction.real)
            np.sin(self.args, out=by_fraction.imag)
            self.fractions.take(self.phase_layout, out=self.tables[1][0],
                                mode="clip")
            self.fills += 1
        return self.tables[self.tags.index(h)][1]


def _extrapolated_step(psi, t, h, drive, model, work=None):
    """The extrapolated step of length h from psi at t: (kept, estimate).

    The Strang substep exp(-i H0 tau/2) exp(-i tau e(t_mid) V)
    exp(-i H0 tau/2) runs as chains of 1, 2, 3 and 4 substeps of h / 1 ..
    h / 4, neighbouring half phases merged, in lockstep as the columns of
    one (2, m, 4) state in `_chiral_model`'s row order.  Each stage rotates
    the columns still running: one stacked real product W^T @ x, the cos /
    i sin mix of the halves, and W @ x back.  One product with
    `_EXTRAPOLATION` gives T44, kept renormalized when finite (it is not
    unitary), and T44 - T43, whose norm is the estimate.  Returns a fresh
    kept state."""
    order, rows, w, sigma, energies = model
    work = work or _Workspace(rows.size)
    np.multiply((-h * _ROT_WEIGHTS * drive(t + h * _ROT_MIDS))[:, None],
                sigma, out=work.angles)
    np.cos(work.angles, out=work.trig[0].real)
    np.sin(work.angles, out=work.trig[1].imag)
    work.trig.take(work.rot_layout, out=work.rot, mode="clip")
    opening, *phases = work.phases(h, energies)
    np.multiply(psi[order].reshape(2, -1, 1), opening, out=work.x)
    for (s, s_float, b, b_float, mixed, cos, isin), phase in zip(
            work.stages, phases):
        np.matmul(w.mT, s_float, out=b_float)
        np.multiply(b[::-1], isin, out=mixed)
        b *= cos
        b += mixed
        np.matmul(w, b_float, out=s_float)
        s *= phase
    kept, error = _EXTRAPOLATION.T @ work.x.reshape(-1, 4).T
    kept = kept[rows]
    norm = math.sqrt(np.vdot(kept, kept).real)
    if math.isfinite(norm):  # a non-finite state is the controller's to refuse
        kept /= norm
    return kept, math.sqrt(np.vdot(error, error).real)


def _wall_time(start: float, attempted: int) -> str:
    """Telemetry: wall seconds since start, and per attempted step."""
    wall = time.perf_counter() - start
    per_step = 1e6 * wall / attempted if attempted else 0.0
    return f"{wall:.3f} s wall, {per_step:.1f} us per attempted step"


def _step_control(step, order: int, floor: float, psi0, t_end: float,
                  times: np.ndarray, tol: float, take) -> tuple:
    """Step from psi0 at t = 0 through the sorted sample times; returns the
    accepted and rejected step counts, and the peak accepted estimate as a
    fraction of its budget.

    The states at times[part] go to take(part, states) as each `_row_blocks`
    block fills, in a fresh (rows, levels) array, so a run holds one block
    of samples, not all of them.

    step(psi, t, h) returns (kept, estimate): the state after a step of
    length h, and an estimate of the error of a one-step map of the given
    order, whose rounding floor is floor.  A step is accepted when its
    estimate is at most tol * h, with h the controller's step, and the next
    h follows from the estimate's local error ~ h**(order + 1).  The rest of
    each sample interval is split into ceil(rest / h) equal steps, so the
    run lands on every sample exactly.  StepSizeError when h falls under
    1e-14 of the span, or the budget tol * h under floor: where the steps
    commute the estimate is rounding alone, exactly 0 as often as not, and
    h would never shrink to the floor.  OracleError when a step's estimate
    is not finite: the state is lost.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must not be negative")
    if times.size and (times[0] < -1e-12 or times[-1] > t_end + 1e-12
                       or np.any(np.diff(times) < 0.0)):
        raise ValueError("sample times must be sorted within [0, t_end]")
    span = float(times[-1]) if times.size else 0.0
    h = span * 1e-3
    h_min = max(span * 1e-14, floor / tol)
    psi = np.array(psi0, dtype=np.complex128)
    t = 0.0
    accepted, rejected, peak = 0, 0, 0.0
    for part in _row_blocks(times.size, psi.size):
        block = np.empty((times[part].size, psi.size), dtype=np.complex128)
        for row, target in enumerate(times[part]):
            while t < target:
                if h < h_min:
                    raise StepSizeError(f"step size underflow at t={t:.6g}", t)
                pieces = math.ceil((target - t) / h)
                length = (target - t) / pieces
                kept, err = step(psi, t, length)
                if not math.isfinite(err):  # a NaN or inf drive value, say
                    raise OracleError(f"non-finite state in the step from "
                                      f"t={t:.6g} to t={t + length:.6g}")
                ok = err <= tol * h
                if ok:
                    peak = max(peak, err / (tol * h))
                    psi = kept
                    t = target if pieces == 1 else t + length
                    accepted += 1
                else:
                    rejected += 1
                # A step cut short to land on a sample says nothing about
                # how long a step could be; a sliver of rounding size would
                # collapse h.
                if not (ok and pieces == 1 and length < h):
                    factor = (_MAX_FACTOR if err == 0.0 else _SAFETY
                              * (tol * length / err) ** (1.0 / order))
                    h = length * min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
            block[row] = psi
        take(part, block)
    return accepted, rejected, peak


def _exact_blocks(params: ModelParams, psi0: FockState, t_end: float,
                  tol: float, times: np.ndarray, take) -> tuple[int, int]:
    """`integrate_exact`'s run, handing take(part, states, norm_drift) each
    block of sample states once it passed the guard; returns the accepted
    and rejected step counts.

    The guard checks each block as it lands and raises OracleError at the
    first sample past a bound, naming its time: a norm drift beyond
    `_NORM_DRIFT_LIMIT`, or a top-level population beyond
    BOUNDARY_POPULATION.
    """
    start = time.perf_counter()
    if abs(psi0.norm() - 1.0) > UNIT_NORM_TOL:
        raise ValueError("initial state must be normalized")
    n_trunc = psi0.n_trunc
    margin_pop = float(np.sum(psi0.occupations()[n_trunc - SUPPORT_MARGIN:]))
    if n_trunc <= SUPPORT_MARGIN or margin_pop > BOUNDARY_POPULATION:
        raise OracleError(
            f"initial support too close to the truncation boundary "
            f"(top-{SUPPORT_MARGIN} population {margin_pop:.3e})")

    work = _Workspace(n_trunc)
    step = partial(_extrapolated_step, drive=params.drive,
                   model=_chiral_model(params, n_trunc), work=work)
    peak_drift = peak_top = 0.0

    def guarded(part, states):
        nonlocal peak_drift, peak_top
        # Nearly vacuous: the step renormalizes each kept state, so the
        # drift stays at the rounding level.  This only catches a step that
        # kept an unnormalized state (check 8's run at tol 4e-4 would drift
        # 9.0e-5 without the renormalization) or a bug.
        drift = np.abs(np.linalg.norm(states, axis=1) - 1.0)
        top = np.abs(states[:, -1]) ** 2
        peak_drift = max(peak_drift, float(drift.max()))
        peak_top = max(peak_top, float(top.max()))
        t = times[part]
        # NaN is past a bound too: a comparison with NaN is False
        if (past := ~(drift <= _NORM_DRIFT_LIMIT)).any():
            k = past.argmax()
            raise OracleError(f"norm drift {drift[k]:.3e} at t={t[k]:.6g} "
                              f"exceeds {_NORM_DRIFT_LIMIT:g}; run invalid")
        if (past := ~(top <= BOUNDARY_POPULATION)).any():
            k = past.argmax()
            raise OracleError(
                f"support reached the truncation boundary at t={t[k]:.6g} "
                f"(top-level population {top[k]:.3e})")
        take(part, states, drift)

    accepted, rejected, peak = _step_control(
        step, 6, _EXTRAPOLATION_FLOOR, psi0.amplitudes, t_end, times, tol,
        guarded)
    logger.debug("integrate_exact: %d accepted, %d rejected steps, %d phase "
                 "tables, budget %g per unit step, peak estimate %.2g of "
                 "budget, peak norm drift %.3e, peak boundary population "
                 "%.3e, %s", accepted, rejected, work.fills, tol, peak,
                 peak_drift, peak_top, _wall_time(start, accepted + rejected))
    return accepted, rejected


def integrate_exact(params: ModelParams, psi0: FockState, t_end: float,
                    tol: float = 1e-10,
                    sample_times: np.ndarray | None = None) -> OracleRun:
    """Direct time-ordered evolution of the full Kerr-oscillator Hamiltonian.

    An extrapolated split-step propagator: each step runs Strang substeps
    over 1, 2, 3 and 4 substeps and keeps their Aitken-Neville
    extrapolation in h**2, of order 8, renormalized; the distance to the
    order-6 extrapolation over 2, 3 and 4 substeps is the error estimate
    that sets the step.  One `_extrapolated_step` call computes both, with
    V in its chiral form; the energy-phase tables of the last two step
    lengths are kept, and the DEBUG line counts those filled.

    Parameters
    ----------
    params : ModelParams
    psi0 : FockState
        Normalized initial state whose top SUPPORT_MARGIN levels hold at
        most BOUNDARY_POPULATION (both from `kerrosc.fock`).
    t_end : float
        Final time.
    tol : float
        Error budget per unit step: a step is accepted when its estimate is
        at most tol * h, with h the controller's step.  A step cut short to
        land on a sample keeps that budget; its truncation error per unit
        step still falls as its length**6, so only the rounding floor of a
        very short step gains room.  The kept state is two orders more
        accurate than the estimate: halving tol divides the final-state
        deficit 1 - F of check 8 by about 27.
    sample_times : ndarray, optional
        Sorted output times in [0, t_end]; defaults to 1001 equidistant
        samples.  The propagator lands on each one exactly, splitting the
        rest of every sample interval into equal steps.

    Raises
    ------
    OracleError
        If the norm drifts beyond 1e-8 or the top-level population passes
        BOUNDARY_POPULATION at a sample (the message names the first such
        sample time), or a step's state is not finite (a NaN or inf drive
        value; the message names the step).
    StepSizeError
        If the budget tol * h falls under the rounding floor of the error
        estimate (about 0.29 machine epsilon, 6.4e-17), or the step
        collapses below 1e-14 of the span.
    """
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 1001)
    times = np.asarray(sample_times, dtype=float)
    states = np.empty((times.size, psi0.n_trunc), dtype=np.complex128)
    drift = np.empty(times.size)

    def keep(part, block, block_drift):
        states[part], drift[part] = block, block_drift

    accepted, rejected = _exact_blocks(params, psi0, t_end, tol, times, keep)
    return OracleRun(params=params, n_trunc=psi0.n_trunc, times=times,
                     states=states, norm_drift=drift,
                     accepted_steps=accepted, rejected_steps=rejected,
                     budget=tol)


def integrate_schrodinger(hamiltonian, psi0: FockState, t_end: float,
                          tol: float = 1e-9,
                          sample_times: np.ndarray | None = None) -> np.ndarray:
    """Generic dense-matrix Schrodinger integration i d psi/dt = H(t) psi.

    `integrate_exact`'s extrapolation and controller on the exponential
    midpoint substep exp(-i tau H(t + c h)): H at the step's 9 distinct
    midpoints c is checked as one stack and put through one stacked `eigh`
    per block size.  The kept state is rescaled to the incoming norm (the
    extrapolation is not unitary); the DEBUG line reports the peak defect
    |norm ratio - 1| this removed from a step, the peak estimate as a
    fraction of its budget and the final partition: the connected
    components of the exact nonzero pattern of every H seen, so a coupling
    that switches on mid-run is never dropped.

    Parameters
    ----------
    hamiltonian : callable
        t -> Hermitian ndarray (n, n) on psi0's n levels, in real
        arithmetic if real-valued.
    psi0 : FockState
    t_end : float
    tol : float
        Error budget per unit step, as in `integrate_exact`: halving it
        divides the final-state error by about 2 to 2.5 (1 - F by about 4
        to 9, measured on check 5's H(t) and on a driven Kerr H(t)).  A
        budget tol * h under the estimate's rounding floor (6.4e-17, as in
        `integrate_exact`) is refused with StepSizeError.
    sample_times : ndarray, optional
        Sorted times in [0, t_end]; defaults to just the endpoint.

    Returns
    -------
    ndarray
        States at the sample times, shape (len(sample_times), n).

    Raises
    ------
    ValueError
        If H(t) is not a finite n x n matrix, Hermitian within rounding
        (`eigh` reads one triangle), naming the earliest such t of the step.
    """
    start = time.perf_counter()
    if sample_times is None:
        sample_times = np.array([t_end])

    arithmetic, n, peak_defect = set(), psi0.n_trunc, 0.0
    # The cached partition, as the reachability matrix of its blocks, and
    # the blocks as (count, size) level arrays, one per size.  It starts as
    # n single levels and only merges.
    reach, groups = np.eye(n, dtype=bool), [np.arange(n)[:, None]]

    def checked(ts):
        """H at the sorted times ts as one stack, real if real-valued."""
        # an H of another shape goes on as NaN, refused as not finite
        stack = np.stack([h if h.shape == (n, n) else np.full((n, n), np.nan)
                          for h in map(np.asarray, map(hamiltonian, ts))])
        if not np.any(stack.imag):
            stack = np.ascontiguousarray(stack.real)  # real `eigh`
        flat = stack.reshape(ts.size, -1)
        finite = np.isfinite(flat).all(axis=1)
        flat[~finite] = 0.0  # no inf - inf in the others' residual
        asym = (stack - stack.conj().mT).reshape(ts.size, -1)
        bad = ~finite | (np.vecdot(asym, asym).real
                         > _HERMITIAN_RTOL ** 2 * np.vecdot(flat, flat).real)
        if bad.any():
            raise ValueError(f"hamiltonian is not a finite Hermitian {n}x{n} "
                             f"matrix at t={ts[bad.argmax()]:.6g}")
        arithmetic.add("complex" if np.iscomplexobj(stack) else "real")
        return stack

    def step(psi, t, h):
        nonlocal reach, groups, peak_defect
        stack = checked(t + h * _NODES)
        pattern = (stack != 0).any(axis=0)
        if (pattern > reach).any():  # merge it into the cached partition
            reach = reach | pattern | pattern.T  # a one-sided zero: rounding
            while not np.array_equal(reach, wider := reach @ reach):
                reach = wider  # boolean squaring: paths of twice the length
            firsts, sizes = np.unique(reach.argmax(axis=1), return_counts=True)
            groups = [np.nonzero(reach[firsts[sizes == s]])[1].reshape(-1, s)
                      for s in np.unique(sizes)]
        chains = np.empty((len(_SUBSTEPS), n), np.complex128)
        for idx in groups:  # one stacked `eigh` per block size
            w, v = np.linalg.eigh(stack[:, idx[:, :, None], idx[:, None, :]])
            phase = np.exp((-1j * h * _ROT_WEIGHTS)[:, None, None]
                           * w[_ROT_NODE])[..., None]
            x = np.repeat(psi[idx][None, ..., None], len(_SUBSTEPS), axis=0)
            for rots in _STAGE_ROTATIONS:  # the first len(rots) chains run
                u, run = v[_ROT_NODE[rots]], x[:rots.size]
                run[...] = u @ (phase[rots] * (u.mT.conj() @ run))
            chains[:, idx] = x[..., 0]
        kept, error = _EXTRAPOLATION.T @ chains
        before, after = (math.sqrt(np.vdot(s, s).real) for s in (psi, kept))
        if after and math.isfinite(after):  # else the controller refuses it
            peak_defect = max(peak_defect, abs(after / before - 1.0))
            kept *= before / after
        return kept, math.sqrt(np.vdot(error, error).real)

    times = np.asarray(sample_times, dtype=float)
    states = np.empty((times.size, n), dtype=np.complex128)
    accepted, rejected, peak = _step_control(
        step, 6, _EXTRAPOLATION_FLOOR, psi0.amplitudes, float(t_end), times,
        tol, states.__setitem__)
    partition = " and ".join(
        f"{len(g)} block{'s' * (len(g) > 1)} of {g.shape[1]} "
        f"level{'s' * (g.shape[1] > 1)}" for g in groups)
    logger.debug("integrate_schrodinger (%s arithmetic): %s, peak norm "
                 "defect %.2g before rescale, peak estimate %.2g of budget, "
                 "%d accepted, %d rejected steps, budget %g per unit step, %s",
                 " and ".join(sorted(arithmetic, reverse=True)), partition,
                 peak_defect, peak, accepted, rejected, tol,
                 _wall_time(start, accepted + rejected))
    return states


def fidelity(psi: FockState, phi: FockState) -> float:
    """|<psi|phi>|^2 for states on the same truncated basis."""
    if psi.n_trunc != phi.n_trunc:
        raise ValueError(f"dimension mismatch: {psi.n_trunc} vs {phi.n_trunc}")
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)
