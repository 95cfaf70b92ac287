"""Driven oscillator without the Kerr term: displacement diagonalization.

The instantaneous Hamiltonian Omega(t)(n + 1/2) + e(t)/sqrt(2 Omega) (a + a^dag)
is diagonalized by a displacement of amplitude lambda_t; the module provides
the shifted spectrum, the displaced number eigenstates on the truncated basis,
and the matching position-space eigenfunctions built from the normalized
Hermite-function recurrence.  The drive e(t), a `DriveSpec`, shares one
checked, tabulated base, `_TimeSpec`, with the mass `timemap.MassSpec`.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field, fields

import numpy as np

from .fock import (
    BOUNDARY_POPULATION,
    FockOperator,
    FockState,
    TruncationError,
    _freeze,
    annihilation_operator,
    displacement_operator,
    number_state,
)

__all__ = [
    "DriveSpec",
    "FrequencySpec",
    "displacement_amplitude",
    "energy_level",
    "eigenfunction",
    "hermite_functions",
    "displaced_number_state",
    "hamiltonian_matrix",
]

_MAX_HERMITE = 200


def _finite(name: str, value) -> float:
    """float(value), refused with a message naming it unless finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class _TimeSpec:
    """A time function: a closed form `_closed(t)` for each of its `KINDS`
    but "tabulated", whose samples go through `scipy.interpolate`'s
    `_INTERPOLANT`.  Built by keyword after `kind`; a parameter outside its
    kind's is refused unless at its default, and the kind's own numbers
    become finite floats.  Samples become read-only copies, refused unless
    matching, 1-D and strictly increasing in time (and, if `_POSITIVE`,
    above zero), and are kept as tuples too: specs compare and hash by
    value.  A time outside the samples' window is refused; a scalar time
    gives a float."""

    KINDS = {"tabulated": ("times", "values")}
    _NAME, _INTERPOLANT, _POSITIVE = "", "", False  # each subclass's own

    kind: str
    _: KW_ONLY
    times: np.ndarray | None = field(default=None, compare=False)
    values: np.ndarray | None = field(default=None, compare=False)
    _samples: tuple | None = field(default=None, init=False, repr=False)
    _interp: object = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        name = self._NAME
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown {name} kind {self.kind!r}")
        for f in fields(self)[1:]:  # every field after kind
            value = getattr(self, f.name)
            if f.name in self.KINDS[self.kind]:
                if f.default is not None:  # not tabulated samples
                    object.__setattr__(self, f.name,
                                       _finite(f"{name} {f.name}", value))
            elif f.init:
                if value is not None if f.default is None \
                        else value != f.default:
                    raise ValueError(f"{name} kind {self.kind!r} takes no "
                                     f"{f.name}")
                object.__setattr__(self, f.name, f.default)  # 0 becomes 0.0
        if self.kind != "tabulated":
            return
        _freeze(self, ("times", "values"), float, copy=True)
        times, values = self.times, self.values
        if times.ndim != 1 or times.size < 2 or times.size != values.size:
            raise ValueError(f"tabulated {name} needs matching 1-D samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError(f"tabulated {name} times must increase strictly")
        if self._POSITIVE and np.any(values <= 0.0):
            raise ValueError(f"{name} samples must be positive")
        object.__setattr__(self, "_samples",
                           (tuple(times.tolist()), tuple(values.tolist())))
        from scipy import interpolate  # lazy: slow import
        object.__setattr__(self, "_interp", getattr(
            interpolate, self._INTERPOLANT)(times, values))

    @classmethod
    def tabulated(cls, times, values):
        return cls(kind="tabulated", times=times, values=values)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind != "tabulated":
            return self._closed(t)[()]
        lo, hi = self.times[0], self.times[-1]
        if not ((t >= lo - 1e-12).all() and (t <= hi + 1e-12).all()):
            where = "at t=nan" if np.isnan(t).any() else \
                f"outside its tabulated window [{lo:g}, {hi:g}]"
            raise ValueError(f"{self._NAME} sampled {where}")
        out = self._interp(t)
        if self._POSITIVE and np.any(out <= 0.0):
            raise ValueError(f"interpolated {self._NAME} is non-positive")
        return out[()]


@dataclass(frozen=True, kw_only=True)
class DriveSpec(_TimeSpec):
    """Classical drive e(t): zero, constant, cosine, or tabulated samples
    through a cubic spline."""

    KINDS = {"zero": (), "constant": ("value",),
             "cosine": ("amplitude", "frequency"), **_TimeSpec.KINDS}
    _NAME, _INTERPOLANT = "drive", "CubicSpline"

    value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0

    @classmethod
    def zero(cls) -> "DriveSpec":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value: float) -> "DriveSpec":
        return cls(kind="constant", value=value)

    @classmethod
    def cosine(cls, amplitude: float, frequency: float) -> "DriveSpec":
        return cls(kind="cosine", amplitude=amplitude, frequency=frequency)

    def _closed(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "cosine":
            return self.amplitude * np.cos(self.frequency * t)
        return np.full(t.shape, self.value)  # value 0 when zero


@dataclass(frozen=True)
class FrequencySpec:
    """Modulated frequency Omega(t) = Omega0 [1 + 2 k cos(2 Omega0 t)].

    The modulation depth k must stay below 1/2 so the frequency is positive.
    Called with a time or an array of times, like `DriveSpec`.
    """

    omega0: float
    k: float = 0.0

    def __post_init__(self):
        if _finite("omega0", self.omega0) <= 0.0:
            raise ValueError("omega0 must be positive")
        if not 0.0 <= self.k < 0.5:
            raise ValueError("confinement parameter k must lie in [0, 1/2)")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.omega0 * (1.0 + 2.0 * self.k
                              * np.cos(2.0 * self.omega0 * t))


def displacement_amplitude(drive: DriveSpec, frequency: FrequencySpec, t):
    """lambda_t = e(t) / (Omega(t) sqrt(2 Omega(t)))."""
    omega = frequency(t)
    return drive(t) / (omega * np.sqrt(2.0 * omega))


def energy_level(n, drive: DriveSpec, frequency: FrequencySpec, t):
    """Level (n + 1/2 - lambda_t^2) Omega(t), hbar = 1; n and t broadcast."""
    if np.any(np.asarray(n) < 0):
        raise ValueError("level index must be non-negative")
    lam = displacement_amplitude(drive, frequency, t)
    return (n + 0.5 - lam ** 2) * frequency(t)


def hermite_functions(n_max: int, z: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions psi_0 .. psi_n_max evaluated at z.

    Three-term recurrence on the normalized functions directly, stable up to
    n ~ 200 for the |z| values reachable here.

    Returns
    -------
    ndarray
        Shape (n_max + 1, len(z)).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if n_max > _MAX_HERMITE:
        raise ValueError(f"Hermite recurrence limited to n <= {_MAX_HERMITE}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty((n_max + 1, z.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * z * z)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * z * out[0]
    for n in range(2, n_max + 1):
        out[n] = (math.sqrt(2.0 / n) * z * out[n - 1]
                  - math.sqrt((n - 1) / n) * out[n - 2])
    return out


def eigenfunction(n: int, q, drive: DriveSpec, frequency: FrequencySpec,
                  t: float) -> np.ndarray:
    """Position-space eigenfunction of the driven oscillator at time t.

    The free eigenfunction is shifted to the displaced potential minimum at
    q = -lambda_t sqrt(2/Omega(t)); with the drive off it reduces to the
    standard harmonic-oscillator function at frequency Omega(t).
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    omega = float(frequency(t))
    lam = float(displacement_amplitude(drive, frequency, t))
    q = np.asarray(q, dtype=float)
    shift = lam * math.sqrt(2.0 / omega)
    z = math.sqrt(omega) * (q + shift)
    psi = omega ** 0.25 * hermite_functions(n, z)[n]
    return psi if q.ndim else float(psi[0])


def displaced_number_state(n: int, lam: float, n_trunc: int) -> FockState:
    """Number state displaced by exp(lam (a - a^dag)), i.e. D^dag(lam)|n>.

    Raises
    ------
    TruncationError
        If the displaced state presses against the truncation boundary
        (top-level population above `fock.BOUNDARY_POPULATION`); the
        truncated generator is anti-Hermitian, so the error shows up as
        distortion there rather than as norm loss.
    """
    if not 0 <= n < n_trunc:
        raise ValueError(f"level n={n} outside basis of size {n_trunc}")
    dis = displacement_operator(-lam, n_trunc)
    amps = dis.matrix @ number_state(n, n_trunc).amplitudes
    top = abs(amps[-1]) ** 2
    if top > BOUNDARY_POPULATION:
        raise TruncationError(
            f"displaced state reaches the truncation boundary "
            f"(top-level population {top:.3e}); increase n_trunc={n_trunc}")
    norm = np.linalg.norm(amps)
    return FockState(amps / norm, normalized=True)


def hamiltonian_matrix(drive: DriveSpec, frequency: FrequencySpec, t: float,
                       n_trunc: int) -> FockOperator:
    """Driven-oscillator Hamiltonian in the instantaneous ladder basis."""
    omega = float(frequency(t))
    e_t = float(drive(t))
    a = annihilation_operator(n_trunc).matrix
    n_diag = np.diag(np.arange(n_trunc, dtype=np.complex128))
    h = omega * (n_diag + 0.5 * np.eye(n_trunc)) \
        + e_t / math.sqrt(2.0 * omega) * (a + a.conj().T)
    return FockOperator(h)
