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
from dataclasses import dataclass

import numpy as np

from .driven import DriveSpec, _finite
from .fock import FockState, _freeze, checked_truncation, coherent_amplitudes
from .integrators import _panel_quadrature

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
    Any chi >= 0 runs: chi/omega0 does not rank where the averaging holds.
    """

    omega0: float
    chi: float = 0.0
    drive: DriveSpec = DriveSpec.zero()
    alpha: complex = 0.0 + 0.0j

    def __post_init__(self):
        if _finite("omega0", self.omega0) <= 0.0:
            raise ValueError("omega0 must be positive")
        if _finite("chi", self.chi) < 0.0:
            raise ValueError("chi must be non-negative")
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not all(map(math.isfinite, (self.alpha.real, self.alpha.imag))):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")

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

    Nested integrals on the panel kernel of `kerrosc.integrators`: with
    s = 1/sqrt(2 Omega0) and Z(u) = integral_0^u e exp(i nu u'), zeta =
    i s exp(-i nu t) Z(t), gamma(t) = integral 2 chi [n + s^2 |Z|^2] and
    delta = -i s exp(-i gamma(t)) integral e exp(i nu u + i gamma(u)).

    Parameters
    ----------
    params : ModelParams
    n : int
        Initial number-state level (the linearization premise).
    t : float
        Evaluation time, finite and t >= 0.
    tol : float
        Positive, finite accuracy; panels double until each integral moves
        by at most max(tol**2, 1e-13), the panel kernel's floor.  Any tol
        below about 3.2e-7, the default included, runs at that floor and
        gives the same result.
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    if not 0.0 <= t < math.inf:  # each check a comparison NaN fails
        raise ValueError(f"t must be finite and non-negative, got {t}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    nu, chi = params.nu, params.chi
    scale = 1.0 / math.sqrt(2.0 * params.omega0)

    def integrands(u, running):
        source = params.drive(u) * np.exp(1j * nu * u)
        rate = 2.0 * chi * (n + scale ** 2 * np.abs(running(source)) ** 2)
        return source, rate, source * np.exp(1j * running(rate))

    z_t, gamma, d_t = _panel_quadrature(integrands, [0.0], [t], tol)[:, 0]
    zeta = 1j * scale * np.exp(-1j * nu * t) * z_t
    delta = -1j * scale * np.exp(-1j * gamma.real) * d_t
    n_bar = n + abs(zeta) ** 2
    return LinearizedSolution(
        t=t, n=n, zeta=complex(zeta), gamma_phase=float(gamma.real),
        delta=complex(delta), rate=2.0 * chi * n_bar, n_bar=n_bar,
        _nu_t=nu * t)


def drive_coefficient(params: ModelParams, t):
    """Averaged interaction-picture drive coefficient, at a time or an array.

    g(t) = e(t)/sqrt(2 Omega0) exp(-i t (Omega0 + chi))
    exp(|alpha|^2 (exp(-2 i chi t) - 1)); the number-dependent phase has been
    replaced by its average over the initial coherent state.
    """
    t = np.asarray(t, dtype=float)
    e_t = params.drive(t)
    mu = abs(params.alpha) ** 2
    phase = np.exp(-1j * (params.omega0 + params.chi) * t)
    averaging = np.exp(mu * (np.exp(-2j * params.chi * t) - 1.0))
    return e_t / np.sqrt(2.0 * params.omega0) * phase * averaging


@dataclass(frozen=True)
class WeiNormanSolution:
    """Factorization coefficients X1, X2, X3 sampled on an output grid.

    eta(t) = X2(t) + alpha is the displaced coherent amplitude of the evolved
    state.  `eta_at` takes a time or an array of times: stored values on the
    grid, else one panel set from the grid point below, refined to the solve's
    own budget, so no value depends on the grid.  `params` is the model the
    coefficients were solved for, which every reader of the solution uses.
    """

    params: ModelParams
    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray

    def __post_init__(self):
        _freeze(self, ("times", "x1", "x2", "x3"))

    @property
    def eta(self) -> np.ndarray:
        return self.x2 + self.params.alpha

    def _at(self, t):
        """(X1, X2, X3) at t: complex for a scalar t, else shaped like t."""
        ts = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        # NaN is outside too: a comparison with NaN is False
        outside = ~((self.times[0] <= ts) & (ts <= self.times[-1] + 1e-12))
        if outside.any():
            raise ValueError(f"t={ts[outside.argmax()]} outside the solution "
                             f"window [{self.times[0]}, {self.times[-1]}]")
        k = np.searchsorted(self.times, ts, side="right") - 1
        x = np.stack([self.x1[k], self.x2[k], self.x3[k]])
        off = self.times[k] != ts
        if off.any():
            g0 = 1j * x[2, off]  # G = i X3
            d_g, d_q = _increments(self.params, self.times[k[off]], ts[off])
            x[:, off] = _coefficients(
                g0 + d_g, x[0, off].imag - (g0.conj() * d_g + d_q).imag)
        return tuple(v.reshape(np.shape(t))[()] for v in x)

    def eta_at(self, t):
        return self._at(t)[1] + self.params.alpha


def _default_samples(params: ModelParams, t_end: float) -> int:
    if params.drive.kind == "cosine" and params.drive.frequency > 0.0:
        period = 2.0 * math.pi / params.drive.frequency
    else:
        period = 2.0 * math.pi / params.omega0
    n = int(math.ceil(t_end / period * SAMPLES_PER_PERIOD)) + 1
    return min(max(n, 1001), 200_001)


def _increments(params: ModelParams, starts, ends) -> np.ndarray:
    """Integrals of g and of g conj(G - G(start)) over each [start, end]."""
    def integrands(t, running):
        g = drive_coefficient(params, t)
        return g, g * running(g).conj()

    return _panel_quadrature(integrands, starts, ends, 0.0)  # the floor


def _coefficients(big_g, im_x1) -> np.ndarray:
    """(X1, X2, X3) from G = integral of g and Im X1; Re X1 = -|G|^2 / 2."""
    return np.stack([-0.5 * np.abs(big_g) ** 2 + 1j * im_x1,
                     -1j * big_g.conj(), -1j * big_g])


def integrate_wei_norman(params: ModelParams, t_end: float,
                         samples: int | None = None) -> WeiNormanSolution:
    """Solve the factorization ODEs dX1 = dX3 X2, dX2 = -i conj(g), dX3 = -i g.

    They are integrals: with G(t) that of g from 0 to t, X3 = -i G,
    X2 = -i conj(G), Re X1 = -|G|^2 / 2 exactly and Im X1 = -Im of the
    integral of g conj(G), both on Gauss-Legendre panels at the budget floor
    of `kerrosc.integrators`: 1e-13 per unit time, or relative where larger.

    Parameters
    ----------
    params : ModelParams
    t_end : float
        End of the integration window, finite and non-negative (starts at
        0, all X vanish there).
    samples : int, optional
        Number of equidistant output samples; defaults to 2000 per drive
        period, clipped to [1001, 200001].

    Raises
    ------
    StepSizeError
        If an interval still misses the budget at 1024 panels, reporting
        the interval's start time.
    """
    if not 0.0 <= t_end < math.inf:  # NaN fails too
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    if samples is None:
        samples = _default_samples(params, t_end)
    if samples < 2:
        raise ValueError("need at least two output samples")
    times = np.linspace(0.0, t_end, samples)
    d_g, d_q = _increments(params, times[:-1], times[1:])
    big_g = np.concatenate(([0.0], np.cumsum(d_g)))
    # Im X1 gains Im(conj(G(t_k)) dG_k + dQ_k) over interval k, negated
    im_x1 = -np.concatenate(
        ([0.0], np.cumsum((big_g[:-1].conj() * d_g + d_q).imag)))
    x1, x2, x3 = _coefficients(big_g, im_x1)
    return WeiNormanSolution(params=params, times=times, x1=x1, x2=x2, x3=x3)


def evolved_state(sol: WeiNormanSolution, t: float,
                  n_trunc: int | None = None) -> FockState:
    """Evolved state at time t: a Kerr-phased coherent state of amplitude eta_t.

    Amplitudes c_n = G exp(-i Omega0 t n - i chi t n^2) eta^n / sqrt(n!) with
    the global factor G carrying the exact phase from X1 and X3 and the
    modulus fixed by normalization, |G|^2 = exp(-|eta|^2).  The model is the
    one `sol` was solved for, `sol.params`.

    Raises
    ------
    TruncationError
        If n_trunc (default `default_truncation(eta_t)`) is below 1, or the
        Poisson tail of |eta_t|^2 beyond it reaches `fock.TAIL_MASS`.
    """
    n_trunc = checked_truncation(sol.eta_at(t), n_trunc)
    amps = _evolved_amplitudes(sol, t, n_trunc)
    amps /= np.linalg.norm(amps)
    return FockState(amps, normalized=True)


def _evolved_amplitudes(sol: WeiNormanSolution, t, n_trunc: int) -> np.ndarray:
    """The c_n of `evolved_state` before renormalization, on n_trunc levels.

    X1, X2 and X3 at t come from `sol._at` and the model from `sol.params`.
    t may be an array; the levels then run along a new last axis.  On the
    solution grid `_at` reads stored values; a time off it costs a panel
    quadrature, which an off-grid `evolved_state` pays twice, since it also
    reads eta_t there to check its basis.
    """
    params = sol.params
    x1, x2, x3 = sol._at(t)
    t = np.asarray(t)[..., None]
    g_phase = np.asarray(x1 + x3 * params.alpha).imag[..., None] \
        - 0.5 * params.omega0 * t
    rotated = np.exp(-1j * params.omega0 * t[..., 0]) * (x2 + params.alpha)
    return coherent_amplitudes(rotated, n_trunc) * np.exp(
        1j * (g_phase - params.chi * t * np.arange(n_trunc) ** 2))
