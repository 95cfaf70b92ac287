"""Ground-truth Schrodinger integration on the truncated Fock space.

`integrate_exact` propagates the full Kerr-oscillator Hamiltonian
H(t) = H0 + e(t) V, with H0 the diagonal Kerr energies (the exact
number-squared term included) and V = (a + a^dagger)/sqrt(2 Omega0), by a
unitary split-step scheme.  V is diagonalized once; a Strang step is then
"diagonal phase, dense rotate, diagonal phase", and Yoshida's triple jump
(Phys. Lett. A 150:262, 1990) composes three of them to fourth order.  Each
attempted step, the full step and its two half steps, is one `_exact_pair`
call on buffers made once per run.  It shares no code with the approximate
branches, so it stays an independent route to the answer.
`integrate_schrodinger`, the generic dense-matrix variant used to validate
the time-reparametrization theorem, takes unitary 4th-order commutator-free
Magnus steps (Blanes & Moan, Appl. Numer. Math. 56:1519, 2006) through
`eigh` on the decoupled blocks of H(t), in real arithmetic where H(t) is
real.  Both run under one step-doubling controller, `_step_doubling`, and
read tol as the same error budget per unit step.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .evolution import ModelParams
from .fock import BOUNDARY_POPULATION, SUPPORT_MARGIN, FockState, _freeze
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

# Step-size controller of `_step_doubling`.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# The estimate of a one-ulp difference between unit states: a budget tol * h
# under it can only pass an estimate of exactly 0, which says nothing.
_ESTIMATE_FLOOR = float(np.finfo(float).eps) / 15.0

# Yoshida triple jump: substeps w1, w0, w1 of the step, midpoints in _MIDS.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_WEIGHTS = np.array([_W1, _W0, _W1])
_MIDS = np.array([0.5 * _W1, _W1 + 0.5 * _W0, _W1 + _W0 + 0.5 * _W1])
# The 9 substeps of `_exact_pair`, as fractions of the step h: the full step
# and the first half step interleaved (columns 2k, 2k + 1 are substep k of
# each), then the second half step.  Their midpoints, and their lengths.
_PAIR_MIDS = np.concatenate([np.column_stack([_MIDS, 0.5 * _MIDS]).ravel(),
                             0.5 + 0.5 * _MIDS])
_PAIR_WEIGHTS = np.concatenate([np.column_stack([_WEIGHTS,
                                                 0.5 * _WEIGHTS]).ravel(),
                                0.5 * _WEIGHTS])
# Energy phases of the half step h / 2: outer, (w1 / 2)(h / 2), and inner,
# ((w1 + w0) / 2)(h / 2), as multiples of -i h E.
_HALF_PHASES = -0.25j * np.array([_W1, _W1 + _W0])

# Commutator-free Magnus CF4: Gauss nodes, and the weights of H at those
# nodes in the first and the second exponential.
_R3 = math.sqrt(3.0) / 6.0
_GAUSS = (0.5 - _R3, 0.5 + _R3)
_CF4 = ((0.25 + _R3, 0.25 - _R3), (0.25 - _R3, 0.25 + _R3))


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


def _diagonal_energies(params: ModelParams, n_trunc: int) -> np.ndarray:
    n = np.arange(n_trunc)
    return params.omega0 * (n + 0.5) + params.chi * n.astype(float) ** 2


def _pair_workspace(n: int) -> tuple:
    """`_exact_pair`'s buffers on n levels, and their views per rotation."""
    rot, phases, x, y, y1 = (np.empty(shape, np.complex128) for shape in
                             ((n, 9), (2, n, 2), (n, 2), (n, 2), (n, 1)))
    # full[:, j] and half[:, j]: the full and half step's outer (j = 0) and
    # inner (j = 1) energy phase, paired as x's columns in outer and inner.
    full, half = phases
    outer, inner = phases.T
    steps = [(x, y, rot[:, 2 * k:2 * k + 2], phase) for k, phase in
             enumerate((inner, inner, full[:, :1]))]
    steps += [(x[:, 1:], y1, rot[:, 6 + k:7 + k], phase) for k, phase in
              enumerate((half[:, 1:], half[:, 1:], half[:, :1]))]
    return rot, full, half, outer, x, [
        (s, s.view(np.float64), b, b.view(np.float64), r, phase)
        for s, b, r, phase in steps]


def _exact_pair(psi, t, h, drive, energies, d, u, work=None):
    """The 4th-order step of length h from psi at t, and its two half steps.

    Each step is Yoshida's triple jump of Strang substeps
    exp(-i H0 tau/2) U exp(-i tau e(t_mid) D) U^T exp(-i H0 tau/2), with the
    diagonal half-phases of neighbouring substeps merged, those at the
    junction of the two half steps too.  The full step and the first half
    step run in lockstep as the two columns of one state, so each rotation
    is one real product U^T @ x.view(float) on both; one drive call and two
    `exp` calls serve all 9 substeps in work.  Returns fresh (full, halves)."""
    rot, full, half, outer, x, steps = work or _pair_workspace(d.size)
    e = drive(t + h * _PAIR_MIDS)
    np.exp(np.multiply.outer(d, -1j * h * _PAIR_WEIGHTS * e, out=rot), out=rot)
    np.exp(np.multiply.outer(energies, h * _HALF_PHASES, out=half), out=half)
    np.multiply(half, half, out=full)
    np.multiply(psi[:, None], outer, out=x)
    for s, s_float, b, b_float, r, phase in steps:
        np.matmul(u.T, s_float, out=b_float)
        b *= r
        np.matmul(u, b_float, out=s_float)
        s *= phase
    return x[:, 0].copy(), x[:, 1].copy()


def _wall_time(start: float, attempted: int) -> str:
    """Telemetry: wall seconds since start, and per attempted step."""
    wall = time.perf_counter() - start
    per_step = 1e6 * wall / attempted if attempted else 0.0
    return f"{wall:.3f} s wall, {per_step:.1f} us per attempted step"


def _step_doubling(pair, psi0, t_end: float, times: np.ndarray,
                   tol: float) -> tuple[np.ndarray, int, int]:
    """States at the sorted sample times of a run from psi0 at t = 0, and the
    accepted and rejected step counts.

    pair(psi, t, h) returns (psi_h, psi_(h/2, h/2)): one step of length h of
    a 4th-order one-step map, and two steps of h/2.  A step's error estimate
    is |psi_(h/2, h/2) - psi_h| / 15 and the two half steps are kept; it is
    accepted when the estimate is at most tol * h, with h the controller's
    step.  The rest of each sample interval is split into ceil(rest / h)
    equal steps, so the run lands on every sample exactly.  StepSizeError
    when h falls under 1e-14 of the span, or the budget tol * h under
    `_ESTIMATE_FLOOR`: where the steps commute the estimate is rounding
    alone, exactly 0 as often as not, and h would never shrink to the floor.
    OracleError when a step's estimate is not finite: the state is lost.
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
    h_min = max(span * 1e-14, _ESTIMATE_FLOOR / tol)
    psi = np.array(psi0, dtype=np.complex128)
    states = np.empty((times.size, psi.size), dtype=np.complex128)
    t = 0.0
    accepted = rejected = 0
    for i, target in enumerate(times):
        while t < target:
            if h < h_min:
                raise StepSizeError(f"step size underflow at t={t:.6g}", t)
            pieces = math.ceil((target - t) / h)
            step = (target - t) / pieces
            full, halves = pair(psi, t, step)
            err = np.linalg.norm(halves - full) / 15.0
            if not math.isfinite(err):  # a NaN or inf drive value, say
                raise OracleError(f"non-finite state in the step from "
                                  f"t={t:.6g} to t={t + step:.6g}")
            ok = err <= tol * h
            if ok:
                psi = halves
                t = target if pieces == 1 else t + step
                accepted += 1
            else:
                rejected += 1
            # A step cut short to land on a sample says nothing about how
            # long a step could be; a sliver of rounding size would collapse h.
            if not (ok and pieces == 1 and step < h):
                factor = (_MAX_FACTOR if err == 0.0 else
                          _SAFETY * (tol * step / err) ** 0.25)
                h = step * min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
        states[i] = psi
    return states, accepted, rejected


def integrate_exact(params: ModelParams, psi0: FockState, t_end: float,
                    tol: float = 1e-10,
                    sample_times: np.ndarray | None = None) -> OracleRun:
    """Direct time-ordered evolution of the full Kerr-oscillator Hamiltonian.

    A unitary 4th-order split-step propagator (Strang steps composed by
    Yoshida's triple jump) with step doubling: the error estimate of a step
    is |psi_(h/2, h/2) - psi_h| / 15 and the two half steps are kept.  The
    full step and the two half steps come from one `_exact_pair` call.  The
    final-state deficit 1 - F therefore scales as tol**2.

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
        step still falls as its length**4, so only the rounding floor of a
        very short step gains room.
    sample_times : ndarray, optional
        Sorted output times in [0, t_end]; defaults to 1001 equidistant
        samples.  The propagator lands on each one exactly, splitting the
        rest of every sample interval into equal steps.

    Raises
    ------
    OracleError
        If the norm drifts beyond 1e-8, the top-level population passes
        BOUNDARY_POPULATION, or a step's state is not finite (a NaN or inf
        drive value); the message names the step.
    StepSizeError
        If the budget tol * h falls under the rounding floor of the error
        estimate (machine epsilon / 15, about 1.5e-17), or the step
        collapses below 1e-14 of the span.
    """
    start = time.perf_counter()
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    n_trunc = psi0.n_trunc
    margin_pop = float(np.sum(psi0.occupations()[n_trunc - SUPPORT_MARGIN:]))
    if n_trunc <= SUPPORT_MARGIN or margin_pop > BOUNDARY_POPULATION:
        raise OracleError(
            f"initial support too close to the truncation boundary "
            f"(top-{SUPPORT_MARGIN} population {margin_pop:.3e})")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 1001)
    times = np.asarray(sample_times, dtype=float)

    energies = _diagonal_energies(params, n_trunc)
    ladder = np.sqrt(np.arange(1, n_trunc))
    coupling = (np.diag(ladder, 1) + np.diag(ladder, -1)) \
        / math.sqrt(2.0 * params.omega0)
    d, u = np.linalg.eigh(coupling)

    pair = partial(_exact_pair, drive=params.drive, energies=energies, d=d,
                   u=u, work=_pair_workspace(n_trunc))

    states, accepted, rejected = _step_doubling(
        pair, psi0.amplitudes, t_end, times, tol)

    # Nearly vacuous under a unitary scheme: the drift stays at the rounding
    # level, so this only catches a non-unitary U or a bug.  It stays anyway.
    norms = np.linalg.norm(states, axis=1)
    drift = np.abs(norms - 1.0)
    top_pop = np.abs(states[:, -1]) ** 2
    peak_drift = float(drift.max(initial=0.0))
    peak_top = float(top_pop.max(initial=0.0))
    logger.debug("integrate_exact: %d accepted, %d rejected steps, budget "
                 "%g per unit step, peak norm drift %.3e, peak boundary "
                 "population %.3e, %s", accepted, rejected, tol, peak_drift,
                 peak_top, _wall_time(start, accepted + rejected))
    if peak_drift > _NORM_DRIFT_LIMIT:
        raise OracleError(f"norm drift {peak_drift:.3e} exceeds "
                          f"{_NORM_DRIFT_LIMIT:g}; run invalid")
    if peak_top > BOUNDARY_POPULATION:
        raise OracleError(
            f"support reached the truncation boundary "
            f"(top-level population {peak_top:.3e})")
    return OracleRun(params=params, n_trunc=n_trunc, times=times,
                     states=states, norm_drift=drift,
                     accepted_steps=accepted, rejected_steps=rejected,
                     budget=tol)


def integrate_schrodinger(hamiltonian, psi0: FockState, t_end: float,
                          tol: float = 1e-9,
                          sample_times: np.ndarray | None = None) -> np.ndarray:
    """Generic dense-matrix Schrodinger integration i d psi/dt = H(t) psi.

    A unitary 4th-order commutator-free Magnus step,
    exp(-i h (a2 H1 + a1 H2)) exp(-i h (a1 H1 + a2 H2)) with H_k = H(t + c_k h)
    at the Gauss nodes c = 1/2 -+ sqrt(3)/6 and a_1,2 = 1/4 +- sqrt(3)/6;
    step size and sample landing as in `integrate_exact`.  Each exponential
    is applied block by block through `eigh`, one stacked call per block
    size.  The blocks are the connected components of the exact nonzero
    pattern of the exponents seen so far: the partition is kept for the run
    and merged with any exponent that has a nonzero outside it, so a
    coupling that switches on mid-run is never dropped, and a fully coupled
    H(t) is one block.  The telemetry line names the final partition.

    Parameters
    ----------
    hamiltonian : callable
        t -> Hermitian ndarray (n, n) on psi0's n levels, in real
        arithmetic if real-valued.
    psi0 : FockState
    t_end : float
    tol : float
        Error budget per unit step, as in `integrate_exact`, so the final
        deficit 1 - F scales as tol**2.  A budget tol * h under the rounding
        floor of the step's error estimate (about 1.5e-17, e.g. tol = 1e-16)
        is refused with StepSizeError.
    sample_times : ndarray, optional
        Sorted times in [0, t_end]; defaults to just the endpoint.

    Returns
    -------
    ndarray
        States at the sample times, shape (len(sample_times), n).

    Raises
    ------
    ValueError
        If H(t) is not a finite n x n matrix, Hermitian within rounding:
        `eigh` reads one triangle.
    """
    start = time.perf_counter()
    if sample_times is None:
        sample_times = np.array([t_end])

    arithmetic = set()
    n = psi0.n_trunc
    # The cached partition: each level's block, named by its lowest level;
    # the flat indices of the entries outside the blocks; and the blocks as
    # (count, size) level arrays, one per size.  It starts as n single
    # levels and only merges.
    roots = np.arange(n)
    outside = np.flatnonzero(~np.eye(n, dtype=bool))
    groups = [roots[:, None]]

    def blocks(a):
        """The cached partition, merged first with a's exact nonzeros."""
        nonlocal roots, outside, groups
        if a.take(outside).any():
            reach = (a != 0) | (roots[:, None] == roots)
            reach |= reach.T  # Hermitian within rounding: a one-sided zero
            while not np.array_equal(reach, wider := reach @ reach):
                reach = wider  # boolean squaring: paths of twice the length
            roots, outside = reach.argmax(axis=1), np.flatnonzero(~reach)
            firsts, sizes = np.unique(roots, return_counts=True)
            groups = [np.nonzero(reach[firsts[sizes == s]])[1].reshape(-1, s)
                      for s in np.unique(sizes)]
        return groups

    def hermitian(t):
        h = np.asarray(hamiltonian(t))
        h = h if np.any(h.imag) else h.real  # real-valued: real `eigh`
        if h.shape != (n, n) or not np.isfinite(h).all() or np.linalg.norm(
                h - h.conj().T) > _HERMITIAN_RTOL * np.linalg.norm(h):
            raise ValueError(f"hamiltonian is not a finite Hermitian {n}x{n} "
                             f"matrix at t={t:.6g}")
        arithmetic.add("complex" if np.iscomplexobj(h) else "real")
        return h

    def cf4(psi, t, h):
        h1, h2 = (hermitian(t + c * h) for c in _GAUSS)
        for a1, a2 in _CF4:
            a = a1 * h1 + a2 * h2
            psi = psi.copy()  # each block reads and writes its own levels
            for idx in blocks(a):  # one stacked `eigh` per block size
                w, v = np.linalg.eigh(a[idx[:, :, None], idx[:, None, :]])
                x = v.conj().swapaxes(1, 2) @ psi[idx][..., None]
                psi[idx] = (v @ (np.exp(-1j * h * w)[..., None] * x))[..., 0]
        return psi

    def pair(psi, t, h):
        half = 0.5 * h
        return cf4(psi, t, h), cf4(cf4(psi, t, half), t + half, half)

    states, accepted, rejected = _step_doubling(
        pair, psi0.amplitudes, float(t_end),
        np.asarray(sample_times, dtype=float), tol)
    partition = " and ".join(
        f"{len(g)} block{'s' * (len(g) > 1)} of {g.shape[1]} "
        f"level{'s' * (g.shape[1] > 1)}" for g in groups)
    logger.debug("integrate_schrodinger (%s arithmetic): %s, %d accepted, "
                 "%d rejected steps, budget %g per unit step, %s",
                 " and ".join(sorted(arithmetic, reverse=True)), partition,
                 accepted, rejected, tol,
                 _wall_time(start, accepted + rejected))
    return states


def fidelity(psi: FockState, phi: FockState) -> float:
    """|<psi|phi>|^2 for states on the same truncated basis."""
    if psi.n_trunc != phi.n_trunc:
        raise ValueError(f"dimension mismatch: {psi.n_trunc} vs {phi.n_trunc}")
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)
