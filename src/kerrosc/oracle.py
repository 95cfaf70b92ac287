"""Ground-truth Schrodinger integration on the truncated Fock space.

`integrate_exact` propagates the full Kerr-oscillator Hamiltonian
H(t) = H0 + e(t) V, with H0 the diagonal Kerr energies (the exact
number-squared term included) and V = (a + a^dagger)/sqrt(2 Omega0), by a
unitary split-step scheme.  V is diagonalized once; a Strang step is then
"diagonal phase, dense rotate, diagonal phase", and Yoshida's triple jump
(Phys. Lett. A 150:262, 1990) composes three of them to fourth order.  It
shares no code with the approximate branches, so it stays an independent
route to the answer.  `integrate_schrodinger` is the generic dense-matrix
variant used to validate the time-reparametrization theorem: a unitary
4th-order commutator-free Magnus step (Blanes & Moan, Appl. Numer. Math.
56:1519, 2006), each exponential applied through `eigh`.  Both run under one
step-doubling controller, `_step_doubling`, and read tol as the same error
budget per unit step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .evolution import ModelParams
from .fock import FockState
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
_BOUNDARY_POPULATION = 1e-10
_SUPPORT_MARGIN = 10
_HERMITIAN_RTOL = 1e-12  # |H - H^dagger| / |H| above rounding

# Step-size controller of `_step_doubling`.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

# Yoshida triple jump: substeps w1, w0, w1 of the step, midpoints in _MIDS.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_WEIGHTS = (_W1, _W0, _W1)
_MIDS = np.array([0.5 * _W1, _W1 + 0.5 * _W0, _W1 + _W0 + 0.5 * _W1])

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
        for name in ("times", "states", "norm_drift"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def state_at(self, index: int) -> FockState:
        """Sampled state as a unit-norm FockState; raw norms live in
        `norm_drift`."""
        amps = self.states[index]
        return FockState(amps / np.linalg.norm(amps), normalized=True,
                         renormalized=True)


def _diagonal_energies(params: ModelParams, n_trunc: int) -> np.ndarray:
    n = np.arange(n_trunc)
    return params.omega0 * (n + 0.5) + params.chi * n.astype(float) ** 2


def _real_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix and a complex vector, as one real product."""
    return (m @ x.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def _triple_jump(psi, h, drive_mids, energies, d, u):
    """One 4th-order step of length h: three Strang substeps
    exp(-i H0 tau/2) U exp(-i tau e(t_mid) D) U^T exp(-i H0 tau/2), with the
    diagonal half-phases of neighbouring substeps merged."""
    outer = np.exp(-0.5j * _W1 * h * energies)
    inner = np.exp(-0.5j * (_W1 + _W0) * h * energies)
    x = outer * psi
    for w, e_mid, phase in zip(_WEIGHTS, drive_mids, (inner, inner, outer)):
        y = _real_matvec(u.T, x)
        y *= np.exp(-1j * w * h * e_mid * d)
        x = phase * _real_matvec(u, y)
    return x


def _step_doubling(advance, psi0, t_end: float, times: np.ndarray,
                   tol: float) -> tuple[np.ndarray, int, int]:
    """States at the sorted sample times of a run from psi0 at t = 0, and the
    accepted and rejected step counts.

    advance(psi, t, h) is a 4th-order one-step map.  A step's error estimate
    is |psi_(h/2, h/2) - psi_h| / 15 and the two half steps are kept; it is
    accepted when the estimate is at most tol * h, with h the controller's
    step.  The rest of each sample interval is split into ceil(rest / h)
    equal steps, so the run lands on every sample exactly.  StepSizeError
    when h falls under 1e-14 of the span.
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
    h_min = span * 1e-14
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
            half = 0.5 * step
            full = advance(psi, t, step)
            halves = advance(advance(psi, t, half), t + half, half)
            err = np.linalg.norm(halves - full) / 15.0
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
    final-state deficit 1 - F therefore scales as tol**2.

    Parameters
    ----------
    params : ModelParams
    psi0 : FockState
        Normalized initial state whose top `_SUPPORT_MARGIN` levels must be
        essentially empty.
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
        If the norm drifts beyond 1e-8 or the support reaches the truncation
        boundary (top-level population above 1e-10).
    StepSizeError
        If the step collapses, as it does when tol * h sits under the
        rounding floor of the error estimate (about 3e-16).
    """
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    n_trunc = psi0.n_trunc
    margin_pop = float(np.sum(psi0.occupations()[n_trunc - _SUPPORT_MARGIN:]))
    if n_trunc <= _SUPPORT_MARGIN or margin_pop > _BOUNDARY_POPULATION:
        raise OracleError(
            f"initial support too close to the truncation boundary "
            f"(top-{_SUPPORT_MARGIN} population {margin_pop:.3e})")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 1001)
    times = np.asarray(sample_times, dtype=float)

    energies = _diagonal_energies(params, n_trunc)
    ladder = np.sqrt(np.arange(1, n_trunc))
    coupling = (np.diag(ladder, 1) + np.diag(ladder, -1)) \
        / math.sqrt(2.0 * params.omega0)
    d, u = np.linalg.eigh(coupling)

    def advance(psi, t, h):
        return _triple_jump(psi, h, params.drive(t + h * _MIDS),
                            energies, d, u)

    states, accepted, rejected = _step_doubling(
        advance, psi0.amplitudes, t_end, times, tol)

    # Nearly vacuous under a unitary scheme: the drift stays at the rounding
    # level, so this only catches a non-unitary U or a bug.  It stays anyway.
    norms = np.linalg.norm(states, axis=1)
    drift = np.abs(norms - 1.0)
    top_pop = np.abs(states[:, -1]) ** 2
    peak_drift = float(drift.max(initial=0.0))
    peak_top = float(top_pop.max(initial=0.0))
    logger.debug("integrate_exact: %d accepted, %d rejected steps, budget "
                 "%g per unit step, peak norm drift %.3e, peak boundary "
                 "population %.3e", accepted, rejected, tol, peak_drift,
                 peak_top)
    if peak_drift > _NORM_DRIFT_LIMIT:
        raise OracleError(f"norm drift {peak_drift:.3e} exceeds "
                          f"{_NORM_DRIFT_LIMIT:g}; run invalid")
    if peak_top > _BOUNDARY_POPULATION:
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
    at the Gauss nodes c = 1/2 -+ sqrt(3)/6 and a_1,2 = 1/4 +- sqrt(3)/6, each
    exponential applied through `eigh`; step size and sample landing as in
    `integrate_exact`.

    Parameters
    ----------
    hamiltonian : callable
        t -> Hermitian complex ndarray (n, n).
    psi0 : FockState
    t_end : float
    tol : float
        Error budget per unit step, as in `integrate_exact`, so the final
        deficit 1 - F scales as tol**2.  A budget under the rounding floor of
        the step's error estimate (about 3e-16, e.g. tol = 1e-14) is refused
        with StepSizeError.
    sample_times : ndarray, optional
        Sorted times in [0, t_end]; defaults to just the endpoint.

    Returns
    -------
    ndarray
        States at the sample times, shape (len(sample_times), n).

    Raises
    ------
    ValueError
        If H(t) is not Hermitian within rounding: `eigh` reads one triangle.
    """
    if sample_times is None:
        sample_times = np.array([t_end])

    def hermitian(t):
        h = np.asarray(hamiltonian(t))
        if np.linalg.norm(h - h.conj().T) \
                > _HERMITIAN_RTOL * np.linalg.norm(h):
            raise ValueError(f"hamiltonian is not Hermitian at t={t:.6g}")
        return h

    def advance(psi, t, h):
        h1, h2 = (hermitian(t + c * h) for c in _GAUSS)
        for a1, a2 in _CF4:
            w, v = np.linalg.eigh(a1 * h1 + a2 * h2)
            psi = v @ (np.exp(-1j * h * w) * (v.conj().T @ psi))
        return psi

    states, accepted, rejected = _step_doubling(
        advance, psi0.amplitudes, float(t_end),
        np.asarray(sample_times, dtype=float), tol)
    logger.debug("integrate_schrodinger: %d accepted, %d rejected steps, "
                 "budget %g per unit step", accepted, rejected, tol)
    return states


def fidelity(psi: FockState, phi: FockState) -> float:
    """|<psi|phi>|^2 for states on the same truncated basis."""
    if psi.n_trunc != phi.n_trunc:
        raise ValueError(f"dimension mismatch: {psi.n_trunc} vs {phi.n_trunc}")
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)
