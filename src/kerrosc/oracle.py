"""Ground-truth Schrodinger integration on the truncated Fock space.

`integrate_exact` propagates the full Kerr-oscillator Hamiltonian
H(t) = H0 + e(t) V, with H0 the diagonal Kerr energies (the exact
number-squared term included) and V = (a + a^dagger)/sqrt(2 Omega0), by a
split-step scheme: a Strang step is "diagonal phase, rotate, diagonal
phase".  V only links neighbouring levels, so one SVD of its even-odd
block, made once, turns each rotation into half-size products and a cos /
i sin mix.  Each attempted step runs it as chains of 1, 2, 3 and 4
substeps in lockstep; one `_StrangChains`, built once per run, holds that
model and the buffers.  It shares no code with the approximate branches, so
it stays an independent route to the answer.  `integrate_schrodinger`, the
generic dense-matrix variant used to validate the time-reparametrization
theorem, runs the same chains of another substep: the exponential midpoint
rule, through `eigh` on the decoupled blocks of H(t).  One step-size
controller, `_step_control`, alone extrapolates both steps' chains in h**2
(Blanes, Casas & Ros, Celest. Mech. Dyn. Astron. 75:149, 1999) to order 8
with an order-6 error estimate, guards and rescales the result's norm, and
hands the samples over in row blocks.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .evolution import ModelParams
from .fock import (BOUNDARY_POPULATION, SUPPORT_MARGIN, UNIT_NORM_TOL,
                   FockState, _freeze, _row_blocks, inner)
from .integrators import StepSizeError

__all__ = [
    "OracleError",
    "OracleRun",
    "StepRecord",
    "integrate_exact",
    "integrate_schrodinger",
    "fidelity",
]

logger = logging.getLogger(__name__)

_HERMITIAN_RTOL = 1e-12  # |H - H^dagger| / |H| above rounding

# Step-size controller of `_step_control`.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

# `_StrangChains` runs column j of its (2, m, 4) state as _SUBSTEPS[j]
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
_ORDER = 6  # of T43, whose local error the estimate measures
# Rounding floor of the estimate: the estimate of a one-ulp difference
# between unit states, in the column it weighs most.  A budget tol * h under
# the floor can only pass an estimate of exactly 0, which says nothing.
_EXTRAPOLATION_FLOOR = float(np.finfo(float).eps
                             * np.abs(_EXTRAPOLATION[:, 1]).max())
# The norm guard's rounding allowance per level (4.8e-15): about one ulp per
# level per substep of each chain, weighed by the chain's T44 weight.
_NORM_ROUNDING = float(np.finfo(float).eps * np.abs(_T44) @ _SUBSTEPS)
# The rotations of each stage; the 9 distinct rotation midpoints (the chains
# of 1 and 3 substeps share 0.5), and the index of each rotation's among them.
_STAGE_ROTATIONS = np.split(np.arange(_ROT_MIDS.size),
                            np.cumsum([len(run) for run in _STAGES])[:-1])
_NODES, _ROT_NODE = np.unique(_ROT_MIDS, return_inverse=True)


class OracleError(RuntimeError):
    """The reference run left its validity envelope: a step's norm defect
    past its bound, a non-finite state, or support at the boundary."""


@dataclass(frozen=True)
class StepRecord:
    """What one `_step_control` run did: accepted and rejected steps, the
    budget per unit step (tol), the peak accepted estimate as a fraction of
    its budget, the peak norm defect |norm ratio - 1| the rescale removed
    and wall seconds.  `str` is their one text, in both DEBUG lines."""

    accepted: int
    rejected: int
    budget: float
    peak: float
    defect: float
    seconds: float

    def __str__(self):
        attempted = self.accepted + self.rejected
        per_step = 1e6 * self.seconds / attempted if attempted else 0.0
        return (f"{self.accepted} accepted, {self.rejected} rejected steps, "
                f"budget {self.budget:g} per unit step, peak estimate "
                f"{self.peak:.2g} of budget, peak norm defect "
                f"{self.defect:.2g} before rescale, {self.seconds:.3f} s "
                f"wall, {per_step:.1f} us per attempted step")


@dataclass(frozen=True)
class OracleRun:
    """Sampled exact evolution and its `StepRecord`; the truncation is
    `states.shape[1]`.  The states are rescaled to unit norm, so their norm
    is 1 to rounding; the defect the rescale removed is `steps.defect`."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n_trunc), Schrodinger picture
    steps: StepRecord

    def __post_init__(self):
        _freeze(self, ("times", "states"))

    def state_at(self, index: int) -> FockState:
        """Sampled state as a unit-norm FockState, its rounding divided out."""
        amps = self.states[index]
        return FockState(amps / np.linalg.norm(amps), normalized=True)


def _blocks(table: np.ndarray, m: int, widths: list) -> list:
    """A flat table's consecutive contiguous (2, m, k) blocks, k in widths."""
    ends = 2 * m * np.cumsum([0] + widths)
    return [table[a:b].reshape(2, m, -1) for a, b in zip(ends, ends[1:])]


class _StrangChains:
    """The oracle's step on n levels: the model and buffers, made once.

    V links level k to k +- 1 only, so in (even, odd) level order it is
    [[0, C], [C^T, 0]], and with C = P diag(sigma) Q^T, exp(-i theta V) is
    W^T = [P^T, Q^T] on the halves, a mix of them by cos(theta sigma) and
    -i sin(theta sigma), and W back: `w` is W as (2, m, m), m = ceil(n/2),
    in the stacked row `order` (`rows` holds each level's).  An odd n's odd
    half gets one padding row: its own basis vector in Q, sigma 0 and an
    opening phase of 0, so it stays exactly 0.  The tables are
    stage-blocked, each stage's (2, m, k) block contiguous: the cos and
    i sin of the rotation angles, and two energy-phase tables, each tagged
    with its step length; `fills` counts the phase tables made."""

    def __init__(self, params: ModelParams, n: int):
        m, levels, self.drive = (n + 1) // 2, np.arange(n), params.drive
        order = np.concatenate([levels[::2], levels[1::2], levels[:n % 2]])
        self.order, self.rows = order, np.argsort(order[:n])
        ladder = np.sqrt(levels[1:]) / math.sqrt(2.0 * params.omega0)
        p, sigma, qt = np.linalg.svd(
            (np.diag(ladder, 1) + np.diag(ladder, -1))[::2, 1::2])
        q = np.eye(m)
        q[:n // 2, :n // 2] = qt.T
        self.w, self.sigma = np.stack([p, q]), np.pad(sigma, (0, n % 2))
        level = order.astype(float)
        self.energies = params.omega0 * (level + 0.5) + params.chi * level ** 2
        stacked, widths = np.arange(2 * m), [len(run) for run in _STAGES]
        # the angles by rotation, and their cos + 0i and 0 + i sin; the
        # phases by fraction, then a fixed 0 that opens the padding row
        self.angles = np.empty((_ROT_MIDS.size, m))
        self.trig = np.zeros((2,) + self.angles.shape, np.complex128)
        self.args = np.empty((_PHASE_FRACTIONS.size, 2 * m))
        self.fractions = np.zeros(self.args.size + 1, np.complex128)
        # each entry of the stage-blocked tables, as a flat index into those
        self.rot_layout = np.concatenate(
            [np.add.outer(stacked % m, c * m).ravel()
             for c in _STAGE_ROTATIONS]) + [[0], [self.angles.size]]
        self.phase_layout = np.concatenate(
            [np.add.outer(stacked, _PHASE_INDEX[c] * 2 * m).ravel()
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

    def phases(self, h: float) -> list:
        """The blocks of step length h's energy-phase table, opening first.
        A miss refills the older table in place, bit-equal to a fresh one."""
        if h not in self.tags:
            self.tags, self.tables = [self.tags[1], h], self.tables[::-1]
            np.multiply((-h * _PHASE_FRACTIONS)[:, None], self.energies,
                        out=self.args)
            by_fraction = self.fractions[:-1].reshape(self.args.shape)
            np.cos(self.args, out=by_fraction.real)
            np.sin(self.args, out=by_fraction.imag)
            self.fractions.take(self.phase_layout, out=self.tables[1][0],
                                mode="clip")
            self.fills += 1
        return self.tables[self.tags.index(h)][1]

    def __call__(self, psi, t, h):
        """The end states of a step of length h's Strang chains from psi at
        t, row j over _SUBSTEPS[j] substeps of h / _SUBSTEPS[j], as a fresh
        array.  Each substep exp(-i H0 tau/2) exp(-i tau e(t_mid) V)
        exp(-i H0 tau/2) runs, neighbouring half phases merged, in lockstep
        as the columns of one (2, m, 4) state in `order`; each stage rotates
        the columns still running: W^T @ x, the cos / i sin mix of the
        halves, and W @ x back."""
        w, x = self.w, self.x
        np.multiply((-h * _ROT_WEIGHTS * self.drive(t + h * _ROT_MIDS))
                    [:, None], self.sigma, out=self.angles)
        np.cos(self.angles, out=self.trig[0].real)
        np.sin(self.angles, out=self.trig[1].imag)
        self.trig.take(self.rot_layout, out=self.rot, mode="clip")
        opening, *phases = self.phases(h)
        np.multiply(psi[self.order].reshape(2, -1, 1), opening, out=x)
        for (s, s_float, b, b_float, mixed, cos, isin), phase in zip(
                self.stages, phases):
            np.matmul(w.mT, s_float, out=b_float)
            np.multiply(b[::-1], isin, out=mixed)
            b *= cos
            b += mixed
            np.matmul(w, b_float, out=s_float)
            s *= phase
        return x.reshape(-1, 4).T[:, self.rows]


def _step_control(chains, psi0, t_end: float, times: np.ndarray, tol: float,
                  take) -> StepRecord:
    """Step from psi0 at t = 0 through the sorted sample times; returns the
    run's `StepRecord` (accepted, rejected, budget, peak, defect, seconds
    timed from the call), which `OracleRun.steps`, both DEBUG log records'
    `steps` and the `oracle_steps` header read.

    The states at times[part] go to take(part, states) as each `_row_blocks`
    block fills, in a fresh (rows, levels) array, so a run holds one block
    of samples, not all of them.

    chains(psi, t, h) returns the end states of a step of length h's chains
    of substeps, shaped (4, levels), row j over _SUBSTEPS[j] substeps.  One
    product with `_EXTRAPOLATION` gives their extrapolation T44, of order 8,
    and T44 - T43, whose norm estimates the error of the order-6 T43.  A
    step is accepted when its estimate is at most tol * h, with h the
    controller's step, and the next h follows from the estimate's local
    error ~ h**7.  T44 is not unitary: an accepted one is rescaled to psi0's
    norm, and the defect |norm ratio - 1| this removes is reported and
    bounded by tol * h plus `_NORM_ROUNDING` per level: correct runs read at
    most 0.12 of the bound (check 8 at tol 4e-4), a T44 weight off by 1e-7
    reads 2e5.  The rest of each sample interval is split into
    ceil(rest / h) equal steps, so the run lands on every sample exactly.
    StepSizeError when h falls under 1e-14 of the span, or the budget
    tol * h under `_EXTRAPOLATION_FLOOR`: where the steps commute the
    estimate is rounding alone, exactly 0 as often as not, and h would never
    shrink to the floor.  OracleError, naming the step, when its estimate is
    not finite (the state is lost) or its defect passes the bound.
    """
    start = time.perf_counter()
    if not 0.0 < tol < math.inf:  # each check a comparison NaN fails
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    if times.size and not (-1e-12 <= times[0] and times[-1] <= t_end + 1e-12
                           and np.all(np.diff(times) >= 0.0)):
        raise ValueError("sample times must be finite, sorted, in [0, t_end]")
    psi = np.array(psi0, dtype=np.complex128)
    if not np.isfinite(psi).all():
        raise ValueError("psi0 must be finite")
    span = float(times[-1]) if times.size else 0.0
    h = span * 1e-3
    h_min = max(span * 1e-14, _EXTRAPOLATION_FLOOR / tol)
    norm0 = math.sqrt(np.vdot(psi, psi).real)
    allowance = psi.size * _NORM_ROUNDING
    t = 0.0
    accepted, rejected, peak, defect = 0, 0, 0.0, 0.0
    for part in _row_blocks(times.size, psi.size):
        block = np.empty((times[part].size, psi.size), dtype=np.complex128)
        for row, target in enumerate(times[part]):
            while t < target:
                if h < h_min:
                    raise StepSizeError(f"step size underflow at t={t:.6g}", t)
                pieces = math.ceil((target - t) / h)
                length = (target - t) / pieces
                kept, error = _EXTRAPOLATION.T @ chains(psi, t, length)
                err = math.sqrt(np.vdot(error, error).real)
                if not math.isfinite(err):  # a NaN or inf drive value, say
                    raise OracleError(f"non-finite state in the step from "
                                      f"t={t:.6g} to t={t + length:.6g}")
                ok = err <= tol * h
                if ok:
                    peak = max(peak, err / (tol * h))
                    if norm0:  # a zero state stays zero
                        ratio = math.sqrt(np.vdot(kept, kept).real) / norm0
                        gap, bound = abs(ratio - 1.0), tol * h + allowance
                        if gap > bound:
                            raise OracleError(f"norm defect {gap:.3e} in the "
                                              f"step from t={t:.6g} to t="
                                              f"{t + length:.6g} exceeds its "
                                              f"bound {bound:.3e}")
                        defect = max(defect, gap)
                        kept /= ratio
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
                              * (tol * length / err) ** (1.0 / _ORDER))
                    h = length * min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
            block[row] = psi
        take(part, block)
    return StepRecord(accepted, rejected, tol, peak, defect,
                      time.perf_counter() - start)


def _exact_blocks(params: ModelParams, psi0: FockState, t_end: float,
                  tol: float, times: np.ndarray, take) -> StepRecord:
    """`integrate_exact`'s run, handing take(part, states) each block of
    sample states once it passed the basis guard; returns the run's
    `StepRecord`, which `integrate_exact` keeps as `OracleRun.steps` and
    `kerrosc oracle` writes as its `oracle_steps` header.

    The basis guard checks each block as it lands and raises OracleError at
    the first sample whose top-level population passes BOUNDARY_POPULATION,
    naming its time; `_step_control` guards the norm step by step.
    """
    if not abs(psi0.norm() - 1.0) <= UNIT_NORM_TOL:  # NaN too
        raise ValueError("initial state must be normalized")
    n_trunc = psi0.n_trunc
    margin_pop = float(np.sum(psi0.occupations()[n_trunc - SUPPORT_MARGIN:]))
    if n_trunc <= SUPPORT_MARGIN or margin_pop > BOUNDARY_POPULATION:
        raise OracleError(
            f"initial support too close to the truncation boundary "
            f"(top-{SUPPORT_MARGIN} population {margin_pop:.3e})")

    chains = _StrangChains(params, n_trunc)
    peak_top = 0.0

    def guarded(part, states):
        nonlocal peak_top
        top = np.abs(states[:, -1]) ** 2
        peak_top = max(peak_top, float(top.max()))
        if (past := top > BOUNDARY_POPULATION).any():
            k = past.argmax()
            raise OracleError(
                f"support reached the truncation boundary at "
                f"t={times[part][k]:.6g} (top-level population {top[k]:.3e})")
        take(part, states)

    steps = _step_control(chains, psi0.amplitudes, t_end, times, tol, guarded)
    logger.debug("integrate_exact: %d phase tables, peak boundary population "
                 "%.3e, %s", chains.fills, peak_top, steps,
                 extra={"steps": steps})
    return steps


def integrate_exact(params: ModelParams, psi0: FockState, t_end: float,
                    tol: float = 1e-10,
                    sample_times: np.ndarray | None = None) -> OracleRun:
    """Direct time-ordered evolution of the full Kerr-oscillator Hamiltonian.

    An extrapolated split-step propagator: each step runs chains of 1, 2, 3
    and 4 Strang substeps and keeps their Aitken-Neville extrapolation in
    h**2, of order 8, rescaled to psi0's unit norm; the distance to the
    order-6 extrapolation over 2, 3 and 4 substeps is the error estimate
    that sets the step.  One `_StrangChains`, built for the run, runs the
    chains with V in its chiral form and keeps the energy-phase tables of
    the last two step lengths; `_step_control` extrapolates them.  The
    DEBUG line counts the tables filled and gives the peak boundary
    population, then prints the run's `StepRecord`, kept as
    `OracleRun.steps` and the log record's `steps` (peak norm defect
    5.8e-15 on fig. 2, 0.002 of bound).

    Parameters
    ----------
    params : ModelParams
    psi0 : FockState
        Normalized initial state whose top SUPPORT_MARGIN levels hold at
        most BOUNDARY_POPULATION (both from `kerrosc.fock`).
    t_end : float
        Sets the default sample grid and bounds the samples; the run ends at
        the last sample.
    tol : float
        Error budget per unit step: a step is accepted when its estimate is
        at most tol * h, with h the controller's step.  A step cut short to
        land on a sample keeps that budget; its truncation error per unit
        step still falls as its length**6, so only the rounding floor of a
        very short step gains room.  Where every step is cut short so, h
        never leaves its first value span / 1000, and each step is held to
        tol * span / 1000 (DEBUG ratios 0.0032 on fig. 2, 0.00031
        Kerr-free).  The kept state is two orders more accurate than the
        estimate: halving tol divides the final-state deficit 1 - F of
        check 8 by about 27.
    sample_times : ndarray, optional
        Sorted output times in [0, t_end]; defaults to 1001 equidistant
        samples.  The propagator lands on each one exactly, splitting the
        rest of every sample interval into equal steps.

    Raises
    ------
    ValueError
        Before the first sample, if psi0 is not normalized, tol not positive
        and finite, t_end not finite and non-negative, or the sample times
        not finite and sorted in [0, t_end].
    OracleError
        If the top-level population passes BOUNDARY_POPULATION at a sample
        (the message names the first such sample time), or a step's state
        is not finite (a NaN or inf drive value) or its norm defect before
        the rescale exceeds tol * h plus 4.8e-15 per level, at most 0.12 of
        which correct runs read (the message names the step).
    StepSizeError
        If the budget tol * h falls under the rounding floor of the error
        estimate (about 0.29 machine epsilon, 6.4e-17), or the step
        collapses below 1e-14 of the span.
    """
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 1001)
    times = np.asarray(sample_times, dtype=float)
    states = np.empty((times.size, psi0.n_trunc), dtype=np.complex128)
    steps = _exact_blocks(params, psi0, t_end, tol, times, states.__setitem__)
    return OracleRun(times=times, states=states, steps=steps)


def integrate_schrodinger(hamiltonian, psi0: FockState, t_end: float,
                          tol: float = 1e-9,
                          sample_times: np.ndarray | None = None) -> np.ndarray:
    """Generic dense-matrix Schrodinger integration i d psi/dt = H(t) psi.

    `integrate_exact`'s chains, extrapolation and controller on the
    exponential midpoint substep exp(-i tau H(t + c h)): H at the step's 9
    distinct midpoints c is checked as one stack and put through one
    stacked `eigh` per block size.  The kept state is guarded and rescaled
    to psi0's norm, as in `integrate_exact`.  The DEBUG line reports the
    arithmetic and the final partition: the connected components of the
    exact nonzero pattern of every H seen, so a coupling that switches on
    mid-run is never dropped.  Then it prints the run's `StepRecord`, also
    carried as the log record's `steps`, with the peak norm defect.

    Parameters
    ----------
    hamiltonian : callable
        t -> Hermitian ndarray (n, n) on psi0's n levels, in real
        arithmetic if real-valued.
    psi0 : FockState
    t_end : float
        As in `integrate_exact`: the default sample, and the samples' bound.
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
        If tol, t_end or a sample time is refused as in `integrate_exact`,
        or psi0 is not finite, before the first sample (any norm is kept);
        or if H(t) is not a finite n x n matrix, Hermitian within rounding
        (`eigh` reads one triangle), naming the earliest such t of the step.
    OracleError
        As in `integrate_exact`, if a step's state is not finite or its norm
        defect passes its bound (check 5's runs read 0.0013 of it).
    """
    if sample_times is None:
        sample_times = np.array([t_end])

    arithmetic, n = set(), psi0.n_trunc
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
        nonlocal reach, groups
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
        return chains

    times = np.asarray(sample_times, dtype=float)
    states = np.empty((times.size, n), dtype=np.complex128)
    steps = _step_control(step, psi0.amplitudes, float(t_end), times, tol,
                          states.__setitem__)
    partition = " and ".join(
        f"{len(g)} block{'s' * (len(g) > 1)} of {g.shape[1]} "
        f"level{'s' * (g.shape[1] > 1)}" for g in groups)
    logger.debug("integrate_schrodinger (%s arithmetic): %s, %s",
                 " and ".join(sorted(arithmetic, reverse=True)), partition,
                 steps, extra={"steps": steps})
    return states


def fidelity(psi: FockState, phi: FockState) -> float:
    """|<psi|phi>|^2 for states on the same truncated basis."""
    return float(abs(inner(psi, phi)) ** 2)
