"""Dynamics of the driven Kerr oscillator at zero confinement modulation.

Two approximate branches for H = Omega0 (n + 1/2) + chi n^2
+ e(t)/sqrt(2 Omega0) (a + a^dag):

* Heisenberg-picture ladder trajectories from linearizing the Kerr term
  around the mean occupation of an initial number state.
* A factorized evolution operator on the Heisenberg algebra {1, a, a^dag}
  (Wei-Norman form) after replacing the number-dependent interaction phase
  by its coherent-state average; this yields closed-form states equal to a
  Kerr-rotated coherent state of amplitude eta_t = X2(t) + alpha.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .driven import DriveSpec
from .fock import (
    FockState,
    TruncationError,
    coherent_amplitudes,
    default_truncation,
    poisson_tail,
)
from .integrators import integrate_adaptive

__all__ = [
    "ModelParams",
    "LinearizedSolution",
    "WeiNormanSolution",
    "linearized_ladder",
    "drive_coefficient",
    "integrate_wei_norman",
    "evolved_state",
]

SAMPLES_PER_PERIOD = 2000


@dataclass(frozen=True)
class ModelParams:
    """Kerr-oscillator parameters: base frequency, Kerr constant, drive, alpha.

    alpha is the initial coherent amplitude entering the averaged interaction
    coefficient; it is frozen there rather than updated self-consistently.
    """

    omega0: float
    chi: float = 0.0
    drive: DriveSpec = DriveSpec.zero()
    alpha: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")
        if self.chi < 0.0:
            raise ValueError("chi must be non-negative")
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.chi > 0.5 * self.omega0:
            warnings.warn(
                f"chi/omega0 = {self.chi / self.omega0:.3g} > 0.5: outside "
                "the weak-nonlinearity regime the approximations assume",
                stacklevel=3)  # past __post_init__ and __init__

    @property
    def nu(self) -> float:
        """Shifted carrier frequency Omega0 - chi."""
        return self.omega0 - self.chi


@dataclass(frozen=True)
class LinearizedSolution:
    """Linearized ladder-operator solution evaluated at one time.

    a(t) is approximated by a0_coefficient * a(0) + drive_term, where
    a0_coefficient = exp(-i (nu t + gamma_phase)) and drive_term =
    exp(-i nu t) delta.  The first-order response zeta solves the Kerr-free
    equation; gamma_phase accumulates the occupation-shifted rate.
    """

    t: float
    n: int
    zeta: complex
    gamma_phase: float
    delta: complex
    rate: float
    n_bar: float
    _nu_t: float = 0.0  # nu * t, kept so the coefficients need no params

    @property
    def a0_coefficient(self) -> complex:
        return complex(np.exp(-1j * (self._nu_t + self.gamma_phase)))

    @property
    def drive_term(self) -> complex:
        return complex(np.exp(-1j * self._nu_t) * self.delta)


def linearized_ladder(params: ModelParams, n: int, t: float,
                      tol: float = 1e-12) -> LinearizedSolution:
    """Linearized Heisenberg solution for an initial number state |n>.

    Integrates jointly the first-order response zeta, the accumulated phase
    gamma(t) = integral 2 chi [n + |zeta|^2], and the refined drive response
    delta with the shared adaptive stepper.

    Parameters
    ----------
    params : ModelParams
    n : int
        Initial number-state level (the linearization premise).
    t : float
        Evaluation time, t >= 0.
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    nu = params.nu
    chi = params.chi
    scale = 1.0 / math.sqrt(2.0 * params.omega0)

    def rhs(s, y):
        zeta, gamma, delta = y
        e_s = params.drive(s)
        d_zeta = -1j * nu * zeta + 1j * e_s * scale
        rate = 2.0 * chi * (n + abs(zeta) ** 2)
        d_gamma = rate
        d_delta = -1j * rate * delta - 1j * e_s * scale * np.exp(1j * nu * s)
        return np.array([d_zeta, d_gamma, d_delta])

    if t == 0.0:
        zeta, gamma, delta = 0.0j, 0.0j, 0.0j
    else:
        _, ys = integrate_adaptive(rhs, np.zeros(3, dtype=np.complex128),
                                   0.0, t, tol)
        zeta, gamma, delta = ys[-1]
    n_bar = n + abs(zeta) ** 2
    return LinearizedSolution(
        t=t, n=n, zeta=complex(zeta), gamma_phase=float(gamma.real),
        delta=complex(delta), rate=2.0 * chi * n_bar, n_bar=n_bar,
        _nu_t=nu * t)


def drive_coefficient(params: ModelParams, t) -> complex:
    """Averaged interaction-picture drive coefficient.

    g(t) = e(t)/sqrt(2 Omega0) exp(-i t (Omega0 + chi))
    exp(|alpha|^2 (exp(-2 i chi t) - 1)); the number-dependent phase has been
    replaced by its average over the initial coherent state.
    """
    e_t = params.drive(t)
    mu = abs(params.alpha) ** 2
    t = np.asarray(t) if np.ndim(t) else t
    phase = np.exp(-1j * (params.omega0 + params.chi) * t)
    averaging = np.exp(mu * (np.exp(-2j * params.chi * t) - 1.0))
    return e_t / np.sqrt(2.0 * params.omega0) * phase * averaging


@dataclass(frozen=True)
class WeiNormanSolution:
    """Sampled trajectories of the factorization coefficients X1, X2, X3.

    eta(t) = X2(t) + alpha is the displaced coherent amplitude of the evolved
    state; xi(t) = chi t its Kerr phase.  Values between grid samples are
    interpolated linearly in the complex plane.
    """

    params: ModelParams
    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray

    def __post_init__(self):
        for name in ("times", "x1", "x2", "x3"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def eta(self) -> np.ndarray:
        return self.x2 + self.params.alpha

    def xi(self, t: float) -> float:
        return self.params.chi * t

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _interp(self, series: np.ndarray, t: float) -> complex:
        if not self.times[0] <= t <= self.times[-1] + 1e-12:
            raise ValueError(f"t={t} outside the solution window "
                             f"[{self.times[0]}, {self.times[-1]}]")
        re = np.interp(t, self.times, series.real)
        im = np.interp(t, self.times, series.imag)
        return complex(re, im)

    def x1_at(self, t: float) -> complex:
        return self._interp(self.x1, t)

    def x3_at(self, t: float) -> complex:
        return self._interp(self.x3, t)

    def eta_at(self, t: float) -> complex:
        return self._interp(self.x2, t) + self.params.alpha


def _default_samples(params: ModelParams, t_end: float) -> int:
    if params.drive.kind == "cosine" and params.drive.frequency > 0.0:
        period = 2.0 * math.pi / params.drive.frequency
    else:
        period = 2.0 * math.pi / params.omega0
    n = int(math.ceil(t_end / period * SAMPLES_PER_PERIOD)) + 1
    return min(max(n, 1001), 200_001)


def integrate_wei_norman(params: ModelParams, t_end: float,
                         tol: float = 1e-10,
                         samples: int | None = None) -> WeiNormanSolution:
    """Integrate the factorization ODEs dX1 = dX3 X2, dX2 = -i conj(g), dX3 = -i g.

    Parameters
    ----------
    params : ModelParams
    t_end : float
        End of the integration window (starts at 0, all X vanish there).
    tol : float
        Local error budget per unit step for the adaptive stepper.
    samples : int, optional
        Number of equidistant output samples; defaults to 2000 per drive
        period, clipped to [1001, 200001].

    Raises
    ------
    StepSizeError
        On step-size underflow, reporting the failure time.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if samples is None:
        samples = _default_samples(params, t_end)
    if samples < 2:
        raise ValueError("need at least two output samples")
    times = np.linspace(0.0, t_end, samples)

    def rhs(s, y):
        g = drive_coefficient(params, s)
        dx3 = -1j * g
        return np.array([dx3 * y[1], -1j * np.conj(g), dx3])

    if t_end == 0.0:
        ys = np.zeros((samples, 3), dtype=np.complex128)
    else:
        _, ys = integrate_adaptive(rhs, np.zeros(3, dtype=np.complex128),
                                   0.0, t_end, tol, sample_times=times)
    return WeiNormanSolution(params=params, times=times,
                             x1=ys[:, 0], x2=ys[:, 1], x3=ys[:, 2])


def evolved_state(params: ModelParams, sol: WeiNormanSolution, t: float,
                  n_trunc: int | None = None) -> FockState:
    """Evolved state at time t: a Kerr-phased coherent state of amplitude eta_t.

    Amplitudes c_n = G exp(-i Omega0 t n - i chi t n^2) eta^n / sqrt(n!) with
    the global factor G carrying the exact phase from X1 and X3 and the
    modulus fixed by normalization, |G|^2 = exp(-|eta|^2).

    Raises
    ------
    TruncationError
        If the Poisson tail of |eta_t|^2 beyond n_trunc exceeds 1e-9.
    """
    eta = sol.eta_at(t)
    if n_trunc is None:
        n_trunc = default_truncation(eta)
    tail = poisson_tail(abs(eta) ** 2, n_trunc)
    if tail > 1e-9:
        raise TruncationError(
            f"n_trunc={n_trunc} leaves tail mass {tail:.3e} > 1e-9 "
            f"for |eta|^2={abs(eta)**2:.6g}")
    amps = _evolved_amplitudes(params, sol, t, eta, n_trunc)
    amps /= np.linalg.norm(amps)
    return FockState(amps, normalized=True, renormalized=True)


def _evolved_amplitudes(params: ModelParams, sol: WeiNormanSolution,
                        t: float, eta: complex, n_trunc: int) -> np.ndarray:
    """The c_n of `evolved_state` before renormalization; eta = eta_t."""
    g_phase = (sol.x1_at(t) + sol.x3_at(t) * params.alpha).imag \
        - 0.5 * params.omega0 * t
    n = np.arange(n_trunc)
    rotated = np.exp(-1j * params.omega0 * t) * eta
    return coherent_amplitudes(rotated, n_trunc) \
        * np.exp(1j * (g_phase - params.chi * t * n ** 2))
