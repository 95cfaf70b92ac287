"""Mass-to-time reparametrization for oscillators with time-dependent mass.

A Hamiltonian p^2/2m(t) + m(t) Omega^2(t) q^2 / 2 factorizes as H*(t)/m(t)
with constant-mass H*(t) = p^2/2 + omega^2(t) q^2 / 2, omega = m Omega.  Its
evolution operator is the constant-mass one evaluated at the rescaled time
tau = integral_0^t dt'/m(t'), so spectra and state evolution transfer between
the two pictures.  The exponential-mass oscillator admits closed-form
Heisenberg trajectories for q and p, provided here as the coefficient matrix
relative to the initial operators.

Note: the underdamped momentum coefficients grow like exp(+rate*t/2); that is
what keeps the coefficient matrix symplectic (determinant one), since the
canonical momentum tracks m(t) dq/dt with the growing mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .driven import FrequencySpec
from .fock import FockState
from .integrators import adaptive_simpson

__all__ = [
    "MassSpec",
    "HeisenbergQP",
    "rescaled_time",
    "physical_time",
    "transformed_frequency",
    "energy_level",
    "heisenberg_coefficients",
    "evolve_via_timemap",
]


@dataclass(frozen=True)
class MassSpec:
    """Oscillator mass m(t) > 0: constant, exponential, or tabulated."""

    kind: str
    m0: float = 1.0
    rate: float = 0.0
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    _interp: object = field(default=None, repr=False, compare=False)

    @classmethod
    def constant(cls, m0: float = 1.0) -> "MassSpec":
        if m0 <= 0.0:
            raise ValueError("mass must be positive")
        return cls(kind="constant", m0=float(m0))

    @classmethod
    def exponential(cls, m0: float, rate: float) -> "MassSpec":
        """m(t) = m0 exp(rate * t)."""
        if m0 <= 0.0:
            raise ValueError("mass must be positive")
        return cls(kind="exponential", m0=float(m0), rate=float(rate))

    @classmethod
    def tabulated(cls, times, values) -> "MassSpec":
        """Monotone-cubic interpolation through positive mass samples."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2 or times.size != values.size:
            raise ValueError("tabulated mass needs matching 1-D samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("tabulated mass times must increase strictly")
        if np.any(values <= 0.0):
            raise ValueError("mass samples must be positive")
        from scipy.interpolate import PchipInterpolator  # lazy: slow import
        return cls(kind="tabulated", times=times, values=values,
                   _interp=PchipInterpolator(times, values))

    def __call__(self, t):
        if self.kind == "constant":
            return np.full(np.shape(t), self.m0) if np.ndim(t) else self.m0
        if self.kind == "exponential":
            return self.m0 * np.exp(self.rate * np.asarray(t)) if np.ndim(t) \
                else self.m0 * math.exp(self.rate * t)
        if self.kind == "tabulated":
            t_arr = np.asarray(t, dtype=float)
            if np.any(t_arr < self.times[0] - 1e-12) or \
                    np.any(t_arr > self.times[-1] + 1e-12):
                raise ValueError("mass sampled outside its tabulated window")
            m = self._interp(t_arr)
            if np.any(m <= 0.0):
                raise ValueError("interpolated mass is non-positive")
            return m if np.ndim(t) else float(m)
        raise ValueError(f"unknown mass kind {self.kind!r}")


def rescaled_time(mass: MassSpec, t: float) -> float:
    """tau(t) = integral_0^t dt'/m(t'); strictly increasing, tau(0) = 0.

    Closed forms for the constant and exponential kinds; adaptive Simpson
    quadrature at 1e-10 relative tolerance for tabulated masses.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if t == 0.0:
        return 0.0
    if mass.kind == "constant":
        return t / mass.m0
    if mass.kind == "exponential":
        if mass.rate == 0.0:
            return t / mass.m0
        return -math.expm1(-mass.rate * t) / (mass.rate * mass.m0)
    return adaptive_simpson(lambda s: 1.0 / float(mass(s)), 0.0, t,
                            rel_tol=1e-10)


def physical_time(mass: MassSpec, tau: float) -> float:
    """Inverse of `rescaled_time`."""
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if tau == 0.0:
        return 0.0
    if mass.kind == "constant":
        return tau * mass.m0
    if mass.kind == "exponential":
        if mass.rate == 0.0:
            return tau * mass.m0
        arg = 1.0 - mass.rate * mass.m0 * tau
        if arg <= 0.0:
            raise ValueError(f"tau={tau} beyond the reachable horizon "
                             f"{1.0 / (mass.rate * mass.m0):.6g}")
        return -math.log(arg) / mass.rate
    from scipy.optimize import brentq  # lazy: slow import
    hi = mass.times[-1]
    if rescaled_time(mass, hi) < tau:
        raise ValueError("tau beyond the tabulated window")
    return brentq(lambda s: rescaled_time(mass, s) - tau, 0.0, hi,
                  xtol=1e-13, rtol=1e-13)


def transformed_frequency(mass: MassSpec, frequency: FrequencySpec,
                          t: float) -> float:
    """omega(t) = m(t) Omega(t), the constant-mass-picture frequency."""
    return mass(t) * frequency(t)


def energy_level(n: int, frequency: FrequencySpec, t: float) -> float:
    """Instantaneous level Omega(t)(n + 1/2); the mass drops out (hbar = 1)."""
    if n < 0:
        raise ValueError("level index must be non-negative")
    return frequency(t) * (n + 0.5)


@dataclass(frozen=True)
class HeisenbergQP:
    """Coefficients expressing q(t), p(t) in terms of q(0), p(0).

    q(t) = c_qq q(0) + c_qp p(0) and p(t) = c_pq q(0) + c_pp p(0).  Unitarity
    of the evolution pins the determinant of the matrix to one.
    """

    c_qq: float
    c_qp: float
    c_pq: float
    c_pp: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.c_qq, self.c_qp], [self.c_pq, self.c_pp]])

    def symplectic_determinant(self) -> float:
        return self.c_qq * self.c_pp - self.c_qp * self.c_pq


def heisenberg_coefficients(m0: float, omega0: float, rate: float,
                            t: float) -> HeisenbergQP:
    """Closed-form Heisenberg trajectory for mass m0 exp(rate t), frequency omega0.

    Only the oscillatory branch 4 omega0^2 > rate^2 is defined; the angle
    theta = atan2(F, rate) with F = sqrt(4 omega0^2 - rate^2) makes t = 0 the
    identity map.
    """
    if m0 <= 0.0 or omega0 <= 0.0:
        raise ValueError("mass and frequency must be positive")
    disc = 4.0 * omega0 ** 2 - rate ** 2
    if disc <= 0.0:
        raise ValueError(
            f"overdamped regime rejected: 4 omega0^2 = {4 * omega0**2:.6g} "
            f"<= rate^2 = {rate**2:.6g}")
    f_osc = math.sqrt(disc)
    theta = math.atan2(f_osc, rate)
    half = 0.5 * f_osc * t
    decay = math.exp(-0.5 * rate * t)
    growth = math.exp(0.5 * rate * t)
    return HeisenbergQP(
        c_qq=(2.0 * omega0 / f_osc) * decay * math.sin(half + theta),
        c_qp=(2.0 / (m0 * f_osc)) * decay * math.sin(half),
        c_pq=-(2.0 * m0 * omega0 ** 2 / f_osc) * growth * math.sin(half),
        c_pp=-(2.0 * omega0 / f_osc) * growth * math.sin(half - theta),
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
