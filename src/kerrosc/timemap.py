"""Mass-to-time reparametrization for oscillators with time-dependent mass.

A Hamiltonian p^2/2m(t) + m(t) Omega^2(t) q^2 / 2 factorizes as H*(t)/m(t)
with constant-mass H*(t) = p^2/2 + omega^2(t) q^2 / 2, omega = m Omega.  Its
evolution operator is the constant-mass one evaluated at the rescaled time
tau = integral_0^t dt'/m(t'), so spectra and state evolution transfer between
the two pictures.  The exponential-mass oscillator admits closed-form
Heisenberg trajectories for q and p, provided here as the coefficient matrix
relative to the initial operators.  `MassSpec` shares `DriveSpec`'s base.

Note: the underdamped momentum coefficients grow like exp(+rate*t/2); that is
what keeps the coefficient matrix symplectic (determinant one), since the
canonical momentum tracks m(t) dq/dt with the growing mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .driven import FrequencySpec, _finite, _TimeSpec
from .fock import FockState
from .integrators import _panel_quadrature

__all__ = [
    "MassSpec",
    "HeisenbergQP",
    "rescaled_time",
    "physical_time",
    "transformed_frequency",
    "heisenberg_coefficients",
    "evolve_via_timemap",
]


@dataclass(frozen=True, kw_only=True)
class MassSpec(_TimeSpec):
    """Oscillator mass m(t) > 0: constant, exponential, or positive tabulated
    samples through a monotone cubic."""

    KINDS = {"constant": ("m0",), "exponential": ("m0", "rate"),
             **_TimeSpec.KINDS}
    _NAME, _INTERPOLANT, _POSITIVE = "mass", "PchipInterpolator", True

    m0: float = 1.0
    rate: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.m0 <= 0.0:
            raise ValueError("mass must be positive")

    @classmethod
    def constant(cls, m0: float = 1.0) -> "MassSpec":
        return cls(kind="constant", m0=m0)

    @classmethod
    def exponential(cls, m0: float, rate: float) -> "MassSpec":
        """m(t) = m0 exp(rate * t)."""
        return cls(kind="exponential", m0=m0, rate=rate)

    def _closed(self, t: np.ndarray) -> np.ndarray:
        return self.m0 * np.exp(self.rate * t)  # rate 0 when constant


def rescaled_time(mass: MassSpec, t):
    """tau(t) = integral_0^t dt'/m(t'); strictly increasing, tau(0) = 0.

    Closed forms for constant and exponential masses; a tabulated one takes
    1/m, analytic per knot segment, to the kernel of `kerrosc.integrators`:
    tau at the knots once, then one panel set from the knot below each t.
    """
    t = np.asarray(t, dtype=float)
    if not (t >= 0.0).all():  # NaN fails too
        raise ValueError("t must not be NaN" if np.isnan(t).any()
                         else "t must be non-negative")
    if mass.kind == "tabulated":
        edges, knot_tau = _knot_tau(mass)
        k = np.searchsorted(edges, t, side="right") - 1
        tau = _tau_from(mass, edges[k].ravel(), knot_tau[k].ravel(),
                        t.ravel()).reshape(t.shape)
    elif mass.rate == 0.0:  # every constant mass
        tau = t / mass.m0
    else:
        tau = -np.expm1(-mass.rate * t) / (mass.rate * mass.m0)
    return tau[()]


def _tau_from(mass: MassSpec, lo, tau_lo, t) -> np.ndarray:
    """tau_lo, tau at the knot lo below each t, plus the integral of 1/m."""
    return tau_lo + _panel_quadrature(lambda s, _: 1.0 / mass(s), lo, t, 0.0)


def _knot_tau(mass: MassSpec) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the knot segments from 0 to the window's end, tau at each."""
    edges = np.unique(np.clip(np.concatenate(([0.0], mass.times)), 0.0, None))
    steps = _tau_from(mass, edges[:-1], 0.0, edges[1:])
    return edges, np.concatenate(([0.0], np.cumsum(steps)))


def physical_time(mass: MassSpec, tau):
    """Inverse of `rescaled_time`, tau or array; a tabulated mass takes Newton
    steps, dtau/dt = 1/m, each target until its own step stops shrinking."""
    tau = np.asarray(tau, dtype=float)
    if not (tau >= 0.0).all():  # NaN fails too; np.all adds a dispatch
        raise ValueError("tau must not be NaN" if np.isnan(tau).any()
                         else "tau must be non-negative")
    if mass.kind == "tabulated":
        edges, knot_tau = _knot_tau(mass)
        if (knot_tau[-1] < tau).any():
            raise ValueError("tau beyond the tabulated window")
        k = np.searchsorted(knot_tau[1:-1], tau.ravel(), side="right")
        lo, hi, tau_lo, want = edges[k], edges[k + 1], knot_tau[k], tau.ravel()
        t = lo + (hi - lo) * (want - tau_lo) / (knot_tau[k + 1] - tau_lo)
        step, live = np.inf, np.arange(t.size)  # last step of each live target
        while live.size:
            new = mass(t[live]) * (_tau_from(mass, lo[live], tau_lo[live],
                                             t[live]) - want[live])
            shrinking = np.abs(new) < np.abs(step)
            live, step = live[shrinking], new[shrinking]
            t[live] = np.clip(t[live] - step, lo[live], hi[live])
        return t.reshape(tau.shape)[()]
    arg = 1.0 - mass.rate * mass.m0 * tau  # one closed form: rate 0 is tau*m0
    if (arg <= 0.0).any():
        raise ValueError(f"tau={tau.max()} beyond the reachable horizon "
                         f"{1.0 / (mass.rate * mass.m0):.6g}")
    t = tau * mass.m0 if mass.rate == 0.0 else -np.log(arg) / mass.rate
    return t[()]


def transformed_frequency(mass: MassSpec, frequency: FrequencySpec, t):
    """omega(t) = m(t) Omega(t), the constant-mass-picture frequency."""
    return mass(t) * frequency(t)


@dataclass(frozen=True)
class HeisenbergQP:
    """Coefficients expressing q(t), p(t) in terms of q(0), p(0).

    q(t) = c_qq q(0) + c_qp p(0) and p(t) = c_pq q(0) + c_pp p(0).  Unitarity
    of the evolution pins the determinant of the matrix to one.  Each
    coefficient is a float, or an array shaped like the times asked for.
    """

    c_qq: float | np.ndarray
    c_qp: float | np.ndarray
    c_pq: float | np.ndarray
    c_pp: float | np.ndarray

    def symplectic_determinant(self):
        return self.c_qq * self.c_pp - self.c_qp * self.c_pq


def heisenberg_coefficients(m0: float, omega0: float, rate: float,
                            t) -> HeisenbergQP:
    """Closed-form Heisenberg trajectory for mass m0 exp(rate t), frequency omega0.

    Only the oscillatory branch 4 omega0^2 > rate^2 is defined; the angle
    theta = atan2(F, rate) with F = sqrt(4 omega0^2 - rate^2) makes t = 0 the
    identity map.
    """
    m0, omega0, rate = map(_finite, ("m0", "omega0", "rate"),
                           (m0, omega0, rate))
    if m0 <= 0.0 or omega0 <= 0.0:
        raise ValueError("mass and frequency must be positive")
    disc = 4.0 * omega0 ** 2 - rate ** 2
    if disc <= 0.0:
        raise ValueError(
            f"overdamped regime rejected: 4 omega0^2 = {4 * omega0**2:.6g} "
            f"<= rate^2 = {rate**2:.6g}")
    f_osc = math.sqrt(disc)
    theta = math.atan2(f_osc, rate)
    t = np.asarray(t, dtype=float)
    half = 0.5 * f_osc * t
    decay = np.exp(-0.5 * rate * t)
    growth = np.exp(0.5 * rate * t)
    return HeisenbergQP(
        c_qq=(2.0 * omega0 / f_osc) * decay * np.sin(half + theta),
        c_qp=(2.0 / (m0 * f_osc)) * decay * np.sin(half),
        c_pq=-(2.0 * m0 * omega0 ** 2 / f_osc) * growth * np.sin(half),
        c_pp=-(2.0 * omega0 / f_osc) * growth * np.sin(half - theta),
    )


def evolve_via_timemap(
    psi0: FockState,
    mass: MassSpec,
    evolver_star: Callable[[FockState, float], FockState],
    t: float,
) -> FockState:
    """Evolve under the time-dependent-mass Hamiltonian via the time map.

    `evolver_star` must propagate the constant-mass Hamiltonian H*(tau) from
    tau = 0; the reparametrization theorem reduces the full evolution to
    evaluating it at tau = rescaled_time(mass, t).
    """
    return evolver_star(psi0, rescaled_time(mass, t))
